"""Markov-parameter estimation from batch data via a lifted output predictor.

The data are arranged into past/future block-Hankel matrices; a least-squares
predictor maps [past inputs; past outputs; future inputs] to future outputs,
and the impulse-response (Markov parameter) blocks sit in the predictor's
future-input columns as a strictly-lower block-Toeplitz factor.

Each dataset is factored once: one LQ factorization of the stacked Hankel data
[U_p; Y_p; U_f; Y_f; X] (Verhaegen & Dewilde 1992, MOESP). The Toeplitz
factor, the excitation rank and both observability estimates are read off
its blocks, whose sizes do not grow with the record length, so no full-width
SVD or pseudo-inverse is taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from .matrix_kit import DEFAULT_PINV_TOL, block_hankel, block_toeplitz_strict_lower
from .plant_sim import Dataset, StateSpaceModel

DEFAULT_RANK_TOL = 1e-8
# Row partitions of ``DataMatrices.stack``, top to bottom.
PARTS = ("u_past", "y_past", "u_future", "y_future", "x_past")


def _partition(name: str) -> property:
    return property(lambda self: self.stack[self.parts[name]], doc=f"``{name}`` rows of ``stack``.")


@dataclass
class DataMatrices:
    """Past/future Hankel partitions of a dataset at one depth, and their factor.

    ``stack`` holds [u_past; y_past; u_future; y_future; x_past] and each
    partition is a view of its rows. ``u_past``/``y_past`` and the state
    snapshot ``x_past`` start at sample 0, ``u_future``/``y_future`` at sample
    ``depth``; all share ``width`` columns. ``regressor`` stacks
    [u_past; y_past; u_future].
    """

    stack: np.ndarray
    depth: int
    width: int
    n_inputs: int
    n_outputs: int

    u_past, y_past, u_future, y_future, x_past = map(_partition, PARTS)

    @cached_property
    def parts(self) -> Dict[str, slice]:
        """Row range of each partition in ``stack`` and ``factor``; those of the
        first four also index the factor's columns."""
        pd, qd = self.n_inputs * self.depth, self.n_outputs * self.depth
        edges = [0, pd, pd + qd, 2 * pd + qd, 2 * (pd + qd), self.stack.shape[0]]
        return {name: slice(a, b) for name, a, b in zip(PARTS, edges, edges[1:])}

    @property
    def regressor(self) -> np.ndarray:
        return self.stack[:self.parts["u_future"].stop]

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower-trapezoidal L with ``stack = L Q'`` and orthonormal Q, never formed.

        Computed once per object. L has min(rows, width) columns; any least
        squares between row blocks of the stack can be solved on L alone.
        """
        return np.linalg.qr(self.stack.T, mode="r").T


@dataclass
class MarkovEstimate:
    """Least-squares predictor and the Markov parameters extracted from it.

    ``raw`` is the identifiable future-input block (q*depth x p*depth) of the
    least-squares predictor; ``toeplitz`` is its structure-enforced
    strictly-lower block-Toeplitz form built from the ``blocks`` (depth-1 of
    them, each q x p). ``input_rank_margin`` is the smallest singular value of
    [u_past; u_future] over ``rank_tol`` times the largest: above 1 the input
    is persistently exciting.
    """

    raw: np.ndarray
    toeplitz: np.ndarray
    blocks: List[np.ndarray]
    depth: int
    input_rank: int = 0
    regressor_rank: int = 0
    input_rank_margin: float = 0.0

    def stacked(self, count: Optional[int] = None) -> np.ndarray:
        """Column-stack the first ``count`` Markov blocks into a (q*count, p) matrix."""
        count = len(self.blocks) if count is None else count
        if count > len(self.blocks):
            raise ValueError(f"only {len(self.blocks)} blocks available, requested {count}")
        return np.vstack(self.blocks[:count])


def state_snapshot(data: Dataset, width: int) -> np.ndarray:
    """First ``width`` state samples as columns of an (n, width) matrix."""
    if width < 1 or width > data.n_samples:
        raise ValueError(f"width must be in 1..{data.n_samples}, got {width}")
    return data.x[:width].T


def build_data_matrices(data: Dataset, depth: int, width: Optional[int] = None) -> DataMatrices:
    """Split a dataset into past/future input/output Hankel matrices and states.

    ``width`` defaults to the largest value the record supports,
    T - 2*depth + 1. The generic solvability condition
    width >= (2p + q) * depth is enforced; the stricter single-output
    guidance width >= 3*q*depth only warns.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    T = data.n_samples
    max_width = T - 2 * depth + 1
    if max_width < 1:
        raise ValueError(
            f"need T >= 2*depth + width - 1: T={T} cannot support any columns "
            f"at depth {depth} (need at least {2 * depth} samples)"
        )
    if width is None:
        width = max_width
    if width < 1 or width > max_width:
        raise ValueError(
            f"need T >= 2*depth + width - 1: T={T}, depth={depth} allows width "
            f"1..{max_width}, got {width}"
        )
    p, q = data.n_inputs, data.n_outputs
    if width < 3 * q * depth:
        warnings.warn(
            f"width {width} is below the guidance 3*q*depth = {3 * q * depth}; "
            "estimates may be poorly conditioned",
            stacklevel=2,
        )
    stack = np.vstack([
        block_hankel(data.u, 0, depth, width),
        block_hankel(data.y, 0, depth, width),
        block_hankel(data.u, depth, depth, width),
        block_hankel(data.y, depth, depth, width),
        state_snapshot(data, width),
    ])
    return DataMatrices(stack=stack, depth=depth, width=width, n_inputs=p, n_outputs=q)


def _rank(s: np.ndarray, reference: float, tol: float) -> int:
    return int(np.sum(s >= tol * reference)) if reference > 0.0 else 0


def estimate_predictor(
    dm: DataMatrices,
    structure: str = "average",
    rank_tol: float = DEFAULT_RANK_TOL,
    pinv_tol: float = DEFAULT_PINV_TOL,
) -> MarkovEstimate:
    """Solve the lifted least-squares problem and extract Markov parameters.

    The predictor is y_future = W [u_past; y_past; u_future], solved on the
    blocks of the data factor L. Its u_past and y_past blocks fit their own
    columns of L exactly, so the future-input block (the identifiable part of
    W, which carries the Toeplitz factor) fits the y_future rows on what is
    left of the u_future rows: ``raw = L_Yf,rest L_Uf,rest^+``. When y_past
    has full row rank given u_past (noisy data) the remainder is L_Uf,Uf, so
    raw = L_Yf,Uf L_Uf,Uf^-1; otherwise (noise-free data, or more outputs than
    states) it also holds the null directions of L_Yp,Yp, decided with
    ``pinv_tol`` as in the pseudo-inverse solution. ``structure`` chooses how
    the strictly-lower Toeplitz structure is enforced on ``raw``:

    * ``"average"``: average each block sub-diagonal (reduces noise),
    * ``"first-column"``: read blocks from the first block column only.

    Excitation is checked with ``rank_tol`` relative to the largest singular
    value of [u_past; u_future]: that stack (a persistently exciting input)
    and the u_future remainder (future inputs outside the row span of past
    inputs and outputs) must both have full row rank. ``regressor_rank`` sums
    the ranks of L_Up,Up, L_Yp,Yp and the remainder.
    """
    if structure not in ("average", "first-column"):
        raise ValueError(f"structure must be 'average' or 'first-column', got {structure!r}")
    d, L = dm.depth, dm.width
    p, q = dm.n_inputs, dm.n_outputs
    min_width = (2 * p + q) * d
    if L < min_width:
        raise ValueError(
            f"width {L} is below the regressor row count {min_width}; "
            f"the least-squares problem cannot determine the predictor"
        )
    F = dm.factor
    up, yp, uf, yf = (dm.parts[k] for k in ("u_past", "y_past", "u_future", "y_future"))
    cols = slice(0, uf.stop)
    s_in = np.linalg.svd(np.vstack([F[up, cols], F[uf, cols]]), compute_uv=False)
    input_rank = _rank(s_in, s_in[0], rank_tol)
    if input_rank < 2 * p * d:
        raise ValueError(
            f"insufficient excitation: stacked input Hankel has numerical rank "
            f"{input_rank}, need {2 * p * d} (persistently exciting input of order {2 * d})"
        )
    # L_Yp,Yp has a column for every y_past row; its null directions lie
    # outside the row space of y_past, so they stay in the u_future remainder.
    _, s_yp, vt_yp = np.linalg.svd(F[yp, yp])
    scale = max(s_in[0], s_yp[0])  # stands in for the norm of the regressor
    null = vt_yp[s_yp < pinv_tol * scale].T
    u_rest = np.hstack([F[uf, uf], F[uf, yp] @ null])
    y_rest = np.hstack([F[yf, uf], F[yf, yp] @ null])
    u_m, s_m, vt_m = np.linalg.svd(u_rest, full_matrices=False)
    if s_m[-1] < rank_tol * s_in[0]:
        raise ValueError(
            f"insufficient excitation: future inputs lie numerically in the span of "
            f"past inputs and outputs (smallest singular value of their remainder "
            f"{s_m[-1]:.3e} < {rank_tol:g} x {s_in[0]:.3e}); the Toeplitz factor "
            f"is not identifiable"
        )
    raw = (y_rest @ vt_m.T / s_m) @ u_m.T

    blocks: List[np.ndarray] = []
    if structure == "average":
        for k in range(d - 1):
            # sub-diagonal k holds block copies at positions (i+k+1, i)
            copies = [
                raw[(i + k + 1) * q:(i + k + 2) * q, i * p:(i + 1) * p]
                for i in range(d - 1 - k)
            ]
            blocks.append(np.mean(copies, axis=0))
    else:
        for k in range(d - 1):
            blocks.append(raw[(k + 1) * q:(k + 2) * q, 0:p])

    S = block_toeplitz_strict_lower(blocks, d, block_shape=(q, p))
    s_up = np.linalg.svd(F[up, up], compute_uv=False)
    return MarkovEstimate(
        raw=raw,
        toeplitz=S,
        blocks=blocks,
        depth=d,
        input_rank=input_rank,
        regressor_rank=sum(_rank(sv, scale, rank_tol) for sv in (s_up, s_yp, s_m)),
        input_rank_margin=float(s_in[-1] / (rank_tol * s_in[0])),
    )


def true_markov(model: StateSpaceModel, count: int) -> List[np.ndarray]:
    """Model-based impulse-response blocks C A^(i-1) B for i = 1..count."""
    if count < 0:
        raise ValueError("count must be >= 0")
    blocks = []
    power = np.eye(model.n_states)
    for _ in range(count):
        blocks.append(model.C @ power @ model.B)
        power = model.A @ power
    return blocks
