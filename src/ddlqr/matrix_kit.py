"""Dense-matrix building blocks shared by the estimation and design pipeline.

Everything here is a pure function of its inputs: block-Hankel construction
from multivariable time series, strictly-lower block-Toeplitz assembly, and
block-diagonal repetition of a weight matrix.
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
        signal: (T, d) array (or length-T 1-D array) of d-dimensional samples.
        start: index of the sample placed in the top-left block.
        depth: number of block rows.
        width: number of columns.

    Returns:
        (depth * d, width) array.
    """
    sig = as_series(signal)
    if depth < 1 or width < 1:
        raise ValueError(f"depth and width must be >= 1, got {depth}, {width}")
    needed = start + depth + width - 1
    if sig.shape[0] < needed:
        raise ValueError(
            f"signal too short for block Hankel: need {needed} samples "
            f"(start={start}, depth={depth}, width={width}), have {sig.shape[0]}"
        )
    d = sig.shape[1]
    out = np.empty((depth * d, width))
    for i in range(depth):
        # row block i holds samples start+i .. start+i+width-1, transposed
        out[i * d:(i + 1) * d, :] = sig[start + i:start + i + width].T
    return out


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
        blocks: n_blocks - 1 matrices, all of one shape (q, p).
        n_blocks: number of block rows (= block columns).
        block_shape: required when ``blocks`` is empty to fix (q, p).

    Returns:
        (q * n_blocks, p * n_blocks) array.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if len(blocks) != n_blocks - 1:
        raise ValueError(f"need {n_blocks - 1} blocks for {n_blocks} block rows, got {len(blocks)}")
    if blocks:
        q, p = blocks[0].shape
        for k, b in enumerate(blocks):
            if b.shape != (q, p):
                raise ValueError(f"block {k} has shape {b.shape}, expected {(q, p)}")
    elif block_shape is not None:
        q, p = block_shape
    else:
        raise ValueError("block_shape is required when no blocks are given")
    out = np.zeros((q * n_blocks, p * n_blocks))
    for i in range(n_blocks):
        for j in range(i):
            out[i * q:(i + 1) * q, j * p:(j + 1) * p] = blocks[i - j - 1]
    return out


def block_diag_repeat(w, count: int) -> np.ndarray:
    """Block-diagonal matrix holding ``count`` copies of the square matrix w."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"w must be square, got shape {w.shape}")
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.kron(np.eye(count), w)
