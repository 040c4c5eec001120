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
    """The window of ``block_hankel``: a (..., depth, d, width) view of ``signal``."""
    sig = np.asarray(signal, dtype=float)
    sig = sig if sig.ndim > 2 else as_series(sig)
    if depth < 1 or width < 1:
        raise ValueError(f"depth and width must be >= 1, got {depth}, {width}")
    needed = start + depth + width - 1
    if sig.shape[-2] < needed:
        raise ValueError(
            f"signal too short for block Hankel: need {needed} samples "
            f"(start={start}, depth={depth}, width={width}), have {sig.shape[-2]}"
        )
    return np.lib.stride_tricks.sliding_window_view(sig[..., start:needed, :], width, axis=-2)


def block_hankel(signal, start: int, depth: int, width: int) -> np.ndarray:
    """Build the block-Hankel matrix of a vector time series.

    Block (i, j) of the result is sample ``signal[start + i + j]``, so each
    column stacks ``depth`` consecutive samples and consecutive columns slide
    the window one step.

    Args:
        signal: (..., T, d) array (or length-T 1-D array) of d-dimensional
            samples; leading axes batch series.
        start: index of the sample placed in the top-left block.
        depth: number of block rows.
        width: number of columns.

    Returns:
        (..., depth * d, width) array.
    """
    window = hankel_window(signal, start, depth, width)
    return window.reshape(window.shape[:-3] + (depth * window.shape[-2], width))
