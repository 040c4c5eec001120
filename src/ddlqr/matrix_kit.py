"""Block-Hankel matrices of multivariable time series, the data of every estimate.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np


def as_series(signal) -> np.ndarray:
    """Return a (T, d) float array, promoting 1-D inputs to a single channel."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"signal must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def hankel_window(signal, start: int, depth: int, width: int) -> np.ndarray:
    """The block-Hankel window of a vector time series: a (..., depth, d, width) view
    of ``signal`` (a (..., T, d) array, or a length-T 1-D one) whose block (i, j) is
    sample ``signal[start + i + j]``. Leading axes batch series. The sizes are not
    checked: ``markov.hankel_width`` holds a record to them."""
    sig = np.asarray(signal, dtype=float)
    sig = sig if sig.ndim > 2 else as_series(sig)
    return np.lib.stride_tricks.sliding_window_view(sig[..., start:start + depth + width - 1, :],
                                                    width, axis=-2)
