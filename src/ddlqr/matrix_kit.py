"""Dense-matrix building blocks shared by the estimation and design pipeline.

Everything here is a pure function of its inputs: block-Hankel construction
from multivariable time series and strictly-lower block-Toeplitz assembly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_series(signal) -> np.ndarray:
    """Return a (T, d) float array, promoting 1-D inputs to a single channel."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"signal must be 1-D or 2-D, got shape {arr.shape}")
    return arr


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
    # window[..., i, c, j] = sig[..., start + i + j, c]
    window = np.lib.stride_tricks.sliding_window_view(sig[..., start:needed, :], width, axis=-2)
    return window.reshape(sig.shape[:-2] + (depth * sig.shape[-1], width))


def block_toeplitz_strict_lower(
    blocks: Sequence[np.ndarray],
    n_blocks: int,
    block_shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Assemble a strictly-lower block-Toeplitz matrix.

    Block position (i, j) receives ``blocks[i - j - 1]`` for i > j and zeros
    on and above the block diagonal, so ``blocks`` lists the first block
    column from the first sub-diagonal downward.

    Args:
        blocks: n_blocks - 1 matrices, all of one shape (..., q, p); leading
            axes batch matrices.
        n_blocks: number of block rows (= block columns).
        block_shape: required when ``blocks`` is empty to fix (q, p).

    Returns:
        (..., q * n_blocks, p * n_blocks) array.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != n_blocks - 1:
        raise ValueError(f"need {n_blocks - 1} blocks for {n_blocks} block rows, got {len(blocks)}")
    if blocks:
        shape = blocks[0].shape
        for k, b in enumerate(blocks):
            if b.shape != shape:
                raise ValueError(f"block {k} has shape {b.shape}, expected {shape}")
        *batch, q, p = shape
    elif block_shape is not None:
        batch, (q, p) = [], block_shape
    else:
        raise ValueError("block_shape is required when no blocks are given")
    out = np.zeros((*batch, n_blocks, q, n_blocks, p))
    if blocks:
        i, j = np.tril_indices(n_blocks, -1)
        out[..., i, :, j, :] = np.stack(blocks)[i - j - 1]
    return out.reshape(*batch, q * n_blocks, p * n_blocks)
