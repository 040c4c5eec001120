"""Markov-parameter estimation from batch data via a lifted output predictor.

The data are arranged into past/future block-Hankel matrices; a least-squares
predictor maps [past inputs; past outputs; future inputs] to future outputs,
and the impulse-response (Markov parameter) blocks sit in the predictor's
future-input columns as a strictly-lower block-Toeplitz factor. That factor
is the whole estimate: its first block column is [0; Markov blocks
1..depth-1], and synthesis slices its block rows and columns.

Each dataset is factored once: one LQ factorization of the stacked Hankel data
[U_p; Y_p; Z; U_f; Y_f; X] (Verhaegen & Dewilde 1992, MOESP). The Toeplitz
factor, the excitation rank and both observability estimates are read off
its blocks, whose sizes do not grow with the record length. Every SVD the
predictor takes is square: of the past-output block L_Yp,Yp (of [Y_p; Z]), of a
2pd x 2pd input triangle after a small QR, and of a pd x pd remainder triangle R_m.
One QR gives R_m for every batch: the directions of L_Yp,Yp that are not null are
zeroed, not dropped, so every entry's remainder has one shape; an entry with no null
direction (noisy data) gets L_Uf,Uf' back from it exactly.

Every rank decision, here and in ``observability``, follows one rule, ``_rank``: it counts
a block's singular values at least a tolerance times its own largest (the input stack's
for the u_future remainder), so no decision depends on the units of u, y or x.

With an internal-model controller (``imc``) the estimate is that of the plant plus
controller, whose outputs and states append the controller states x_c. These filter
the plant outputs, so x_c(k+i) is a linear combination of x_c(k) and y(k..k+i-1):
the stack holds the plant's rows and Z, x_c at each column's start sample, and the
estimates lift their y rows through the filter (``imc.append_imc_states``). The
augmented rows span nothing more, so the lifted least-squares solutions are theirs.
Without a controller Z has no rows and nothing is lifted.

``DataMatrices`` keeps only the factor of the stack that ``hankel_stack`` writes, which
the dgeqrf of numpy's own OpenBLAS factors in place: the C-ordered (rows x width) stack
is the Fortran (width x rows) matrix it takes. With numpy's workspace the factor has the
bytes of ``np.linalg.qr``, the fallback, which copies the stack twice. Data may carry
leading batch axes (say, Monte Carlo runs); so do the factor and every estimate, each
entry bit-for-bit its unbatched result. A rank check that fails for some entries raises
a ValueError about the first; its ``failed`` attribute marks them all.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .imc import ImcRealization, append_imc_states, filter_imc_states
from .plant_sim import Dataset, InputError, as_series

# Relative singular-value cut-offs: RANK_TOL decides the excitation ranks,
# PINV_TOL the directions a least-squares solve treats as null (a
# pseudo-inverse's rcond).
RANK_TOL = 1e-8
PINV_TOL = 1e-12
# Row partitions of the Hankel stack and of its factor, top to bottom.
PARTS = ("u_past", "y_past", "z_past", "u_future", "y_future", "x_past")


@functools.cache
def _numpy_openblas():
    """numpy's bundled OpenBLAS, else None; the ILP64 dgeqrf that numpy's QR calls gets its
    argument types. scipy's OpenBLAS exports the same names: only numpy's folders count."""
    here = Path(np.__file__).parent
    libs = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]
    blas = ctypes.CDLL(str(min(libs))) if libs else None
    if hasattr(blas, "scipy_dgeqrf_64_"):
        int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        blas.scipy_dgeqrf_64_.argtypes = [int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p]
        blas.scipy_dgeqrf_64_.restype = None
    return blas


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
    (Q orthonormal, never formed) of the ``hankel_stack`` [u_past; y_past; z_past;
    u_future; y_future; x_past], whose rows ``parts`` names. ``u_past``/``y_past``, the
    state snapshot ``x_past`` and the controller states ``z_past`` of ``imc`` (no rows
    without one) start at sample 0, ``u_future``/``y_future`` at ``depth``.
    """

    factor: np.ndarray
    depth: int
    width: int
    n_inputs: int
    n_outputs: int
    imc: Optional[ImcRealization] = None

    @cached_property
    def parts(self) -> Dict[str, slice]:
        """Row range of each partition in the stack and in ``factor``; those of
        the first five also index the factor's columns."""
        pd, qd = self.n_inputs * self.depth, self.n_outputs * self.depth
        z = self.n_outputs * self.imc.order if self.imc is not None else 0
        edges = [0, pd, pd + qd, pd + qd + z, 2 * pd + qd + z, 2 * (pd + qd) + z,
                 self.factor.shape[-2]]
        return {name: slice(a, b) for name, a, b in zip(PARTS, edges, edges[1:])}

    def past_rows(self, first: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The factor's past-output and state rows from column ``first`` on, those of the
        plant plus ``imc``: y_past with its controller states lifted from z_past, and
        [x_past; z_past]."""
        F, yp, zp, xp = (self.factor, *(self.parts[k] for k in ("y_past", "z_past", "x_past")))
        if self.imc is None:
            return F[..., yp, first:], F[..., xp, first:]
        # L is lower trapezoidal: the y_past and z_past rows, and so their lifts, are zero
        # from column zp.stop on
        y = np.zeros(F.shape[:-2] + ((yp.stop - yp.start) * (1 + self.imc.order),
                                     F.shape[-1] - first))
        y[..., :zp.stop - first] = append_imc_states(
            F[..., yp, first:zp.stop], self.n_outputs, self.imc, F[..., zp, first:zp.stop])
        return y, np.concatenate([F[..., xp, first:], F[..., zp, first:]], axis=-2)


def hankel_width(T: int, p: int, q: int, n: int, depth: int, width: Optional[int]) -> int:
    """Columns of the Hankel data at ``depth`` of a T-sample record of p inputs, q outputs
    and n states: ``width``, or all the record holds, T - 2*depth + 1, when it is None.
    InputError unless the record holds the 2*depth + width - 1 samples they read (one
    column at least), q*depth >= n (fewer past outputs cannot determine the states, and
    the Markov parameters would be biased) and the columns can determine the predictor:
    one for each of its (2p + q) * depth regressor rows."""
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
    if width < (2 * p + q) * depth:
        raise InputError("width", f"{width} must be >= (2p + q) * depth = {(2 * p + q) * depth} "
                                  f"at depth {depth} (p = {p} inputs, q = {q} outputs); a "
                                  f"T-sample record holds T - 2*depth + 1 columns at most")
    return width


def hankel_window(signal, start: int, depth: int, width: int) -> np.ndarray:
    """The block-Hankel window of a vector time series: a (..., depth, d, width) view
    of ``signal`` (a (..., T, d) array, or a length-T 1-D one) whose block (i, j) is
    sample ``signal[start + i + j]``. Leading axes batch series. The sizes are not
    checked: ``hankel_width`` holds a record to them."""
    return np.lib.stride_tricks.sliding_window_view(
        as_series(signal)[..., start:start + depth + width - 1, :], width, axis=-2)


def hankel_stack(data: Dataset, depth: int, width: int, runs: slice = slice(None),
                 imc: Optional[ImcRealization] = None) -> np.ndarray:
    """The (..., rows, width) stack [u_past; y_past; z_past; u_future; y_future; x_past]
    of ``data`` at ``depth``, each block's sliding window written straight into its rows;
    of a batched dataset, of the records ``runs`` of its leading axis. z_past holds the
    ``filter_imc_states`` of ``imc`` at the first ``width`` samples, no rows without one."""
    p, q, n = data.n_inputs, data.n_outputs, data.n_states
    u, y, x = data.u[runs], data.y[runs], data.x[runs]
    z = filter_imc_states(y[..., :width, :], imc) if imc is not None else y[..., :0]
    stack = np.empty(u.shape[:-2] + (2 * (p + q) * depth + n + z.shape[-1], width))
    row = 0  # a snapshot at each column's start sample is a window of depth 1
    for sig, start, blocks in ((u, 0, depth), (y, 0, depth), (z, 0, 1), (u, depth, depth),
                               (y, depth, depth), (x, 0, 1)):
        window = hankel_window(sig, start, blocks, width)
        stack[..., row:row + blocks * sig.shape[-1], :].reshape(window.shape)[...] = window
        row += blocks * sig.shape[-1]
    return stack


def build_data_matrices(data: Dataset, depth: int, width: Optional[int] = None,
                        runs: slice = slice(None),
                        imc: Optional[ImcRealization] = None) -> DataMatrices:
    """Factor a dataset's past/future input/output Hankel matrices and states (of the
    records ``runs`` of a batched one), with the controller states of ``imc``: one QR of
    their ``hankel_stack`` in place (``np.linalg.qr`` of a copy without numpy's dgeqrf).
    ``depth`` and ``width`` are held to ``hankel_width`` before the stack is written, with
    the controller states counted among the outputs and states, so every ``DataMatrices``
    can determine the predictor of the plant plus controller."""
    p, q, n = data.n_inputs, data.n_outputs, data.n_states
    z = q * imc.order if imc is not None else 0
    width = hankel_width(data.n_samples, p, q + z, n + z, depth, width)
    L = _lq_factor(hankel_stack(data, depth, width, runs, imc))
    return DataMatrices(factor=L, depth=depth, width=width, n_inputs=p, n_outputs=q, imc=imc)


def _lq_factor(stack: np.ndarray) -> np.ndarray:
    """L of stack = L Q', (..., rows, min(rows, width)), as
    ``np.linalg.qr(stack.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)`` returns it, bytes and
    strides; a C-ordered float ``stack`` is overwritten with the reflectors."""
    geqrf = getattr(_numpy_openblas(), "scipy_dgeqrf_64_", None)
    if geqrf is None or stack.dtype != np.float64 or not stack.flags.c_contiguous:
        return np.linalg.qr(stack.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    (rows, width), k = stack.shape[-2:], min(stack.shape[-2:])
    # numpy's workspace, max(1, rows, LAPACK's optimum): with less, dgeqrf takes smaller
    # blocks or none, which rounds differently
    m, n, lwork, info = (ctypes.c_int64(v) for v in (width, rows, -1, 0))
    a, tau, work = stack.ctypes.data, np.empty(k), np.empty(1)
    geqrf(m, n, a, m, tau.ctypes.data, work.ctypes.data, lwork, info)
    lwork.value = max(1, rows, int(work[0]))
    work = np.empty(lwork.value)
    tau_p, work_p = tau.ctypes.data, work.ctypes.data
    for entry in range(a, a + stack.nbytes, rows * width * stack.itemsize):
        geqrf(m, n, entry, m, tau_p, work_p, lwork, info)
        if info.value:
            raise np.linalg.LinAlgError(f"dgeqrf: argument {-info.value} is illegal")
    # R' is each entry's first k columns, the reflectors above its diagonal; R is C-ordered
    # as numpy's QR returns it, since later BLAS calls round by operand layout
    R = np.empty(stack.shape[:-2] + (k, rows))
    R[...] = stack[..., :k].swapaxes(-1, -2)
    np.copyto(R, 0.0, where=np.tri(k, rows, -1, dtype=bool))
    return R.swapaxes(-1, -2)


def _rank(s: np.ndarray, reference, tol: float):
    """Singular values in ``s`` (last axis) at least ``tol`` x ``reference``; 0 when that is 0."""
    return np.sum(s >= tol * np.expand_dims(reference, -1), axis=-1) * (reference > 0.0)


def estimate_predictor(dm: DataMatrices) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """The Markov parameters, held in their strictly-lower block-Toeplitz factor, with the
    excitation figures: ``(toeplitz, {"input_rank", "input_rank_margin", "regressor_rank"})``.

    ``toeplitz`` (q*depth x p*depth) has Markov block k (C A^(k-1) B, q x p) on block
    sub-diagonal k, for k = 1..depth-1, and zeros on and above the block diagonal; with an
    internal model q counts the controller states. The array and the figures carry the
    batch axes of the data.

    The predictor is y_future = W [u_past; y_past; u_future], solved on the
    blocks of the data factor L. Its u_past and y_past blocks fit their own
    columns of L exactly, so the future-input block (the identifiable part of
    W, which carries the Toeplitz factor) fits the y_future rows on what is
    left of the u_future rows: ``raw = L_Yf,rest L_Uf,rest^+``. The remainder
    holds L_Uf,Uf and L_Uf,Yp on the null directions of L_Yp,Yp, those below
    ``PINV_TOL`` times its largest singular value (noise-free data, or more
    outputs than states, has them); its other directions are zeroed, so one
    batched QR, L_Uf,rest' = Q_m R_m, serves every entry and raw =
    (L_Yf,rest Q_m) R_m'^-1. An entry with no null direction (noisy data) has
    the remainder [L_Uf,Uf 0], whose QR returns R_m = L_Uf,Uf' and Q_m = [I; 0]
    bit for bit, so raw = L_Yf,Uf L_Uf,Uf^-1. With an internal model, y_past is
    [y_past; z_past] and raw is lifted to the controller's rows: their
    future-input coefficients are the controller's filter of those of the
    y_future rows above them, from a zero start. Each block sub-diagonal of the
    Toeplitz factor is the average of that sub-diagonal of the (lifted) ``raw``,
    which enforces the structure; its copies sum one record shifted by a sample,
    so averaging narrows their noise little.

    Excitation is checked with ``RANK_TOL`` relative to the largest singular
    value of [u_past; u_future]: that stack (a persistently exciting input, else
    "insufficient excitation") and the u_future remainder (future inputs outside
    the row span of past inputs and outputs, else "future inputs not identifiable")
    must both have full row rank. Both spectra come from
    square triangles with the same singular values. ``input_rank`` is the rank of the
    stack and ``input_rank_margin`` its smallest singular value over ``RANK_TOL`` times
    the largest: above 1 the input is persistently exciting. ``regressor_rank`` is that of
    [u_past; y_past; u_future]: 2*p*depth for L_Up,Up and the remainder, which these
    checks make full, plus the rank of L_Yp,Yp against its own largest singular value.
    """
    d, p, q = dm.depth, dm.n_inputs, dm.n_outputs
    F = dm.factor
    up, uf, yf = (dm.parts[k] for k in ("u_past", "u_future", "y_future"))
    yp = slice(dm.parts["y_past"].start, dm.parts["z_past"].stop)
    # [L_Uf,Yp L_Uf,Uf] = R_f' Q_f' (orthonormal Q_f), so the input rows of L have the
    # singular values of the triangle [L_Up,Up 0; L_Uf,Up R_f'], L's zeros filling its corner
    r_f = np.linalg.qr(F[..., uf, yp.start:uf.stop].swapaxes(-1, -2), mode="r")
    s_in = np.linalg.svd(np.concatenate([F[..., up, :2 * p * d], np.concatenate(
        [F[..., uf, up], r_f.swapaxes(-1, -2)], axis=-1)], axis=-2), compute_uv=False)
    input_rank = _rank(s_in, s_in[..., 0], RANK_TOL)
    _fail_entries(input_rank < 2 * p * d, lambda i: (
        f"insufficient excitation: stacked input Hankel has numerical rank "
        f"{input_rank[i]}, need {2 * p * d} (persistently exciting input of order {2 * d})"))
    # L_Yp,Yp has a column for every y_past row; its null directions (trailing rows of
    # vt_yp) lie outside the row space of y_past, so they stay in the u_future remainder.
    # The other directions are zeroed, not dropped, so every entry's remainder has one shape
    _, s_yp, vt_yp = np.linalg.svd(F[..., yp, yp])
    is_null = np.arange(s_yp.shape[-1]) >= _rank(s_yp, s_yp[..., 0], PINV_TOL)[..., None]
    # the remainder u_rest is R_m' Q_m', so raw = y_rest Q_m R_m'^-1; with no null direction
    # it is [L_Uf,Uf 0], whose QR returns the triangle L_Uf,Uf' and Q_m = [I; 0] exactly
    null = vt_yp.swapaxes(-1, -2) * is_null[..., None, :]
    q_m, r_m = np.linalg.qr(np.concatenate(
        [F[..., uf, uf], F[..., uf, yp] @ null], axis=-1).swapaxes(-1, -2))
    y_m = np.concatenate([F[..., yf, uf], F[..., yf, yp] @ null], axis=-1) @ q_m
    s_m = np.linalg.svd(r_m, compute_uv=False)
    _fail_entries(_rank(s_m, s_in[..., 0], RANK_TOL) < p * d, lambda i: (
        f"future inputs not identifiable: they lie numerically in the span of past inputs "
        f"and outputs, so the Toeplitz factor is not determined (smallest singular value "
        f"of their remainder {s_m[i][-1]:.3e} < {RANK_TOL:g} x {s_in[i][0]:.3e})"))
    raw = np.linalg.solve(r_m, y_m.swapaxes(-1, -2)).swapaxes(-1, -2)

    if dm.imc is not None:
        raw = append_imc_states(raw, q, dm.imc)
        q += q * dm.imc.order
    # block sub-diagonal s holds copies (j+s, j), j < d - s: block column j holds copy j of
    # every sub-diagonal. sums[s - 1] adds them column by column from zero, then divides:
    # np.mean's own order and division for blocks of two entries or more. np.mean sums the
    # copies of 1 x 1 blocks pairwise, so a scalar sub-diagonal takes its mean
    grid = raw.reshape(raw.shape[:-2] + (d, q, d, p))
    sums = np.zeros(raw.shape[:-2] + (d - 1, q, p))
    if p * q > 1:
        for j in range(d - 1):
            sums[..., :d - 1 - j, :, :] += grid[..., j + 1:, :, j, :]
        sums /= np.arange(d - 1, 0, -1)[:, None, None]
    else:
        for s in range(1, d):
            sums[..., s - 1, 0, 0] = np.diagonal(grid[..., :, 0, :, 0], -s, -2, -1).mean(-1)
    S = np.zeros_like(grid)
    for j in range(d - 1):
        S[..., j + 1:, :, j, :] = sums[..., :d - 1 - j, :, :]
    return S.reshape(raw.shape), {
        "input_rank": input_rank, "input_rank_margin": s_in[..., -1] / (RANK_TOL * s_in[..., 0]),
        "regressor_rank": 2 * p * d + _rank(s_yp, s_yp[..., 0], RANK_TOL)}

