"""Markov-parameter estimation from batch data via a lifted output predictor.

The data are arranged into past/future block-Hankel matrices; a least-squares
predictor maps [past inputs; past outputs; future inputs] to future outputs,
and the impulse-response (Markov parameter) blocks sit in the predictor's
future-input columns as a strictly-lower block-Toeplitz factor. That factor
is the whole estimate: its first block column is [0; Markov blocks
1..depth-1], and synthesis slices its block rows and columns.

Each dataset is factored once: one LQ factorization of the stacked Hankel data
[U_p; Y_p; U_f; Y_f; X] (Verhaegen & Dewilde 1992, MOESP). The Toeplitz
factor, the excitation rank and both observability estimates are read off
its blocks, whose sizes do not grow with the record length. Every SVD the
predictor takes is square: of L_Up,Up, of L_Yp,Yp, of a 2pd x 2pd input
triangle after a small QR, and of a pd x pd remainder triangle (L_Uf,Uf or R_m).

``DataMatrices`` keeps only the factor of the stack that ``hankel_stack`` writes. Data
may carry leading batch axes (say, Monte Carlo runs); so do the factor and every estimate,
each entry bit-for-bit its unbatched result. A rank check that fails for some entries
raises a ValueError about the first; its ``failed`` attribute marks them all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional

import numpy as np

from .matrix_kit import hankel_window
from .plant_sim import Dataset, InputError

# Relative singular-value cut-offs: RANK_TOL decides the excitation ranks,
# PINV_TOL the directions a least-squares solve treats as null (a
# pseudo-inverse's rcond).
RANK_TOL = 1e-8
PINV_TOL = 1e-12
# Row partitions of the Hankel stack and of its factor, top to bottom.
PARTS = ("u_past", "y_past", "u_future", "y_future", "x_past")


def _fail_entries(failed: np.ndarray, describe: Callable[[tuple], str]) -> None:
    """If any entry is ``failed``, raise ValueError(describe(index of the first))."""
    if failed.any():
        exc = ValueError(describe(tuple(np.argwhere(failed)[0])))
        exc.failed = failed
        raise exc


@dataclass
class DataMatrices:
    """The LQ factor of a dataset's past/future Hankel partitions at one depth.

    ``factor`` (..., rows, min(rows, width)) is the lower-trapezoidal L in stack = L Q'
    (Q orthonormal, never formed) of the ``hankel_stack`` [u_past; y_past; u_future;
    y_future; x_past], whose rows ``parts`` names. ``u_past``/``y_past`` and the state
    snapshot ``x_past`` start at sample 0, ``u_future``/``y_future`` at ``depth``.
    """

    factor: np.ndarray
    depth: int
    width: int
    n_inputs: int
    n_outputs: int

    @cached_property
    def parts(self) -> Dict[str, slice]:
        """Row range of each partition in the stack and in ``factor``; those of
        the first four also index the factor's columns."""
        pd, qd = self.n_inputs * self.depth, self.n_outputs * self.depth
        edges = [0, pd, pd + qd, 2 * pd + qd, 2 * (pd + qd), self.factor.shape[-2]]
        return {name: slice(a, b) for name, a, b in zip(PARTS, edges, edges[1:])}

    @cached_property
    def past_input_singular_values(self) -> np.ndarray:
        """Singular values of L_Up,Up, those of u_past, descending."""
        up = self.parts["u_past"]
        return np.linalg.svd(self.factor[..., up, up], compute_uv=False)


@dataclass
class MarkovEstimate:
    """Markov parameters held in their strictly-lower block-Toeplitz factor.

    ``toeplitz`` (q*depth x p*depth) has Markov block k (C A^(k-1) B, q x p)
    on block sub-diagonal k, for k = 1..depth-1, and zeros on and above the
    block diagonal; q and p are its shape over ``depth``. ``input_rank_margin``
    is the smallest singular value of [u_past; u_future] over ``RANK_TOL``
    times the largest: above 1 the input is persistently exciting. Arrays,
    ranks and the margin carry the batch axes of the data.
    """

    toeplitz: np.ndarray
    depth: int
    input_rank: int = 0
    regressor_rank: int = 0
    input_rank_margin: float = 0.0


def hankel_width(T: int, q: int, n: int, depth: int, width: Optional[int]) -> int:
    """Columns of the Hankel data at ``depth`` of a T-sample record of q outputs and n
    states: ``width``, or all the record holds, T - 2*depth + 1, when it is None.
    InputError unless the record holds the 2*depth + width - 1 samples they read (one
    column at least) and q*depth >= n: fewer past outputs cannot determine the states,
    and the Markov parameters would be biased."""
    if depth < 1:
        raise InputError("depth", f"must be >= 1, got {depth}")
    if width is None:
        if T < 2 * depth:
            raise InputError("depth", f"{depth} needs 2*depth = {2 * depth} samples for one "
                                      f"column, the record has {T}")
        width = T - 2 * depth + 1
    elif width < 1:
        raise InputError("width", f"must be >= 1, got {width}")
    elif 2 * depth + width - 1 > T:
        raise InputError("width", f"{width} at depth {depth} needs 2*depth + width - 1 = "
                                  f"{2 * depth + width - 1} samples, the record has {T}")
    if q * depth < n:
        raise InputError("depth", f"{depth} gives q*depth = {q * depth} past outputs, too few "
                                  f"to determine the {n} states (q = {q} outputs)")
    return width


def check_regressor(p: int, q: int, depth: int, width: int) -> None:
    """InputError unless ``width`` columns can determine the predictor of p inputs and q
    outputs: one for each of its (2p + q) * depth regressor rows."""
    if width < (2 * p + q) * depth:
        raise InputError("width", f"{width} must be >= (2p + q) * depth = {(2 * p + q) * depth} "
                                  f"at depth {depth} (p = {p} inputs, q = {q} outputs); a "
                                  f"T-sample record holds T - 2*depth + 1 columns at most")


def hankel_stack(data: Dataset, depth: int, width: int) -> np.ndarray:
    """The (..., rows, width) stack [u_past; y_past; u_future; y_future; x_past] of
    ``data`` at ``depth``, each block's sliding window written straight into its rows."""
    p, q, n = data.n_inputs, data.n_outputs, data.n_states
    stack = np.empty(data.u.shape[:-2] + (2 * (p + q) * depth + n, width))
    row = 0
    for sig, start in ((data.u, 0), (data.y, 0), (data.u, depth), (data.y, depth)):
        window = hankel_window(sig, start, depth, width)
        stack[..., row:row + depth * sig.shape[-1], :].reshape(window.shape)[...] = window
        row += depth * sig.shape[-1]
    stack[..., row:, :] = data.x[..., :width, :].swapaxes(-1, -2)
    return stack


def build_data_matrices(data: Dataset, depth: int, width: Optional[int] = None) -> DataMatrices:
    """Factor a dataset's past/future input/output Hankel matrices and states: one
    QR of their ``hankel_stack``, which is then dropped. ``depth`` and ``width`` are
    held to ``hankel_width``; below the single-output guidance width >= 3*q*depth the
    data only warn."""
    p, q, n = data.n_inputs, data.n_outputs, data.n_states
    width = hankel_width(data.n_samples, q, n, depth, width)
    if width < 3 * q * depth:
        warnings.warn(
            f"width {width} is below the guidance 3*q*depth = {3 * q * depth}; "
            "estimates may be poorly conditioned",
            stacklevel=2,
        )
    stack = hankel_stack(data, depth, width).swapaxes(-1, -2)
    # numpy's QR copies its input, so a batch is factored half at a time: a whole stack freed
    # with a whole copy went back to the OS, and the next batch faulted the memory back in
    halves = np.array_split(stack, 2) if stack.ndim > 2 else [stack]
    L = np.concatenate([np.linalg.qr(h, mode="r") for h in halves]).swapaxes(-1, -2)
    return DataMatrices(factor=L, depth=depth, width=width, n_inputs=p, n_outputs=q)


def _rank(s: np.ndarray, reference, tol: float):
    """Singular values in ``s`` (last axis) at least ``tol`` x ``reference``; 0 when that is 0."""
    return np.sum(s >= tol * np.expand_dims(reference, -1), axis=-1) * (reference > 0.0)


def estimate_predictor(dm: DataMatrices) -> MarkovEstimate:
    """Solve the lifted least-squares problem and extract Markov parameters.

    The predictor is y_future = W [u_past; y_past; u_future], solved on the
    blocks of the data factor L. Its u_past and y_past blocks fit their own
    columns of L exactly, so the future-input block (the identifiable part of
    W, which carries the Toeplitz factor) fits the y_future rows on what is
    left of the u_future rows: ``raw = L_Yf,rest L_Uf,rest^+``. When y_past
    has full row rank given u_past (noisy data) the remainder is the triangle
    L_Uf,Uf, so raw = L_Yf,Uf L_Uf,Uf^-1; otherwise (noise-free data, or more
    outputs than states) it also holds the null directions of L_Yp,Yp, decided
    with ``PINV_TOL`` as in the pseudo-inverse solution, and goes through its
    QR, L_Uf,rest' = Q_m R_m, so raw = (L_Yf,rest Q_m) R_m'^-1. Each block
    sub-diagonal of the Toeplitz factor is the average of that sub-diagonal of
    ``raw``, which reduces noise and enforces the structure.

    Excitation is checked with ``RANK_TOL`` relative to the largest singular
    value of [u_past; u_future]: that stack (a persistently exciting input)
    and the u_future remainder (future inputs outside the row span of past
    inputs and outputs) must both have full row rank. Both spectra come from
    square triangles with the same singular values. ``regressor_rank`` sums
    the ranks of L_Up,Up, L_Yp,Yp and the remainder.
    """
    d, L = dm.depth, dm.width
    p, q = dm.n_inputs, dm.n_outputs
    check_regressor(p, q, d, L)
    F = dm.factor
    up, yp, uf, yf = (dm.parts[k] for k in ("u_past", "y_past", "u_future", "y_future"))
    # [L_Uf,Yp L_Uf,Uf] = R_f' Q_f' (orthonormal Q_f), so the input rows of L have the
    # singular values of the triangle [L_Up,Up 0; L_Uf,Up R_f'], L's zeros filling its corner
    r_f = np.linalg.qr(F[..., uf, yp.start:uf.stop].swapaxes(-1, -2), mode="r")
    s_in = np.linalg.svd(np.concatenate([F[..., up, :2 * p * d], np.concatenate(
        [F[..., uf, up], r_f.swapaxes(-1, -2)], axis=-1)], axis=-2), compute_uv=False)
    input_rank = _rank(s_in, s_in[..., 0], RANK_TOL)
    _fail_entries(input_rank < 2 * p * d, lambda i: (
        f"insufficient excitation: stacked input Hankel has numerical rank "
        f"{input_rank[i]}, need {2 * p * d} (persistently exciting input of order {2 * d})"))
    # L_Yp,Yp has a column for every y_past row; its null directions (trailing
    # rows of vt_yp) lie outside the row space of y_past, so they stay in the
    # u_future remainder. Each distinct count of them is solved for once.
    _, s_yp, vt_yp = np.linalg.svd(F[..., yp, yp])
    scale = np.maximum(s_in[..., 0], s_yp[..., 0])  # stands in for the norm of the regressor
    nulls = np.sum(s_yp < PINV_TOL * scale[..., None], axis=-1)
    raw = np.empty(F.shape[:-2] + (q * d, p * d))
    s_m = np.zeros(F.shape[:-2] + (p * d,))
    for k in sorted(set(np.ravel(nulls).tolist())):
        at = nulls == k  # the copy keeps each entry's factor laid out as when alone
        F_k, vt_k = (F, vt_yp) if at.all() else (
            F.swapaxes(-1, -2)[at].swapaxes(-1, -2), vt_yp[at])
        # the remainder u_rest is R_m' Q_m', so raw = y_rest Q_m R_m'^-1; with no
        # null directions it is the triangle L_Uf,Uf (Q_m = I)
        r_m, y_m = F_k[..., uf, uf].swapaxes(-1, -2), F_k[..., yf, uf]
        if k:
            null = vt_k[..., q * d - k:, :].swapaxes(-1, -2)
            q_m, r_m = np.linalg.qr(np.concatenate(
                [F_k[..., uf, uf], F_k[..., uf, yp] @ null], axis=-1).swapaxes(-1, -2))
            y_m = np.concatenate([y_m, F_k[..., yf, yp] @ null], axis=-1) @ q_m
        s_m[at] = np.linalg.svd(r_m, compute_uv=False)
        _fail_entries(at & (s_m[..., -1] < RANK_TOL * s_in[..., 0]), lambda i: (
            f"insufficient excitation: future inputs lie numerically in the span of "
            f"past inputs and outputs (smallest singular value of their remainder "
            f"{s_m[i][-1]:.3e} < {RANK_TOL:g} x {s_in[i][0]:.3e}); the Toeplitz factor "
            f"is not identifiable"))
        raw[at] = np.linalg.solve(r_m, y_m.swapaxes(-1, -2)).swapaxes(-1, -2)

    # block sub-diagonal k holds the copies at block positions (i+k+1, i)
    grid = raw.reshape(raw.shape[:-2] + (d, q, d, p))
    S = np.zeros_like(grid)
    for k in range(d - 1):
        i = np.arange(k + 1, d)
        S[..., i, :, i - k - 1, :] = np.ascontiguousarray(
            np.moveaxis(np.diagonal(grid, -k - 1, -4, -2), -1, -3)).mean(axis=-3)
    s_up = dm.past_input_singular_values
    return MarkovEstimate(
        toeplitz=S.reshape(raw.shape), depth=d, input_rank=input_rank,
        regressor_rank=sum(_rank(sv, scale, RANK_TOL) for sv in (s_up, s_yp, s_m)),
        input_rank_margin=s_in[..., -1] / (RANK_TOL * s_in[..., 0]))

