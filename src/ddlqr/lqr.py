"""Infinite-horizon LQR gain synthesis.

Two routes to the same gain: a closed-form expression built from Markov
parameters and a shifted extended observability matrix (the data-driven
path), applied block by block, and a Riccati solver by structure-preserving
doubling on a known model (the oracle path). The closed-form gain of order N
is the Riccati gain (R + B'P_NB)^-1 B'P_NA of the N-th iterate of
P_(k+1) = A'P_kA - A'P_kB (R + B'P_kB)^-1 B'P_kA + C'QC from P_0 = 0, so it
converges to the stationary Riccati gain as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .plant_sim import InputError, StateSpaceModel

DARE_TOL = 1e-12
DARE_MAX_ITER = 64
RIDGE_HINT = (
    "R must be symmetric positive definite; for a dead-beat design use a "
    "small ridge such as 1e-9 * I instead of R = 0"
)


def _check_weight(name: str, m, hint: str = "") -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise InputError(name, f"must be square, got {m.shape}")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise InputError(name, "must be symmetric within 1e-12")
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise InputError(name, f"must be positive definite. {hint}".strip())
    return m


@dataclass
class LqrWeights:
    """Positive-definite output and input weights of the quadratic cost."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = _check_weight("Q", self.Q)
        self.R = _check_weight("R", self.R, hint=RIDGE_HINT)


def dd_lqr_gain(
    M: np.ndarray,
    S: np.ndarray,
    O_plus: np.ndarray,
    weights: LqrWeights,
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Closed-form LQR gain from Markov parameters and shifted observability, with its
    conditioning diagnostics.

    M stacks the first N Markov-parameter blocks (q*N x p), S is their strictly-lower
    block-Toeplitz matrix (q*N x p*N), and O_plus stacks CA .. CA^N (q*N x n); N is read
    from M's rows, one less than ``experiments.synthesize``'s horizon. The gain is

        K = [R + M' Gamma M]^-1 M' Gamma O_plus,
        Gamma = (Q_N^-1 + S R_N^-1 S')^-1,

    with Q_N, R_N the N-fold block-diagonal weight repeats, applied block by
    block and never formed. By the matrix-inversion lemma, with
    mid = R_N + S' Q_N S, M' Gamma = M' Q_N - (mid^-1 S' Q_N M)' S' Q_N: one
    solve with p right-hand sides and no qN x qN Gamma. ``cond_inner`` is the
    condition number of mid, max|lambda| / min|lambda| of its eigenvalues, and
    ``cond_bracket`` that of R + M' Gamma M. Leading batch axes of the arrays carry over
    to the gain and the figures. Unchecked: ``experiments.synthesize`` slices the arrays
    to these shapes, N >= 1.
    """
    q, p = weights.Q.shape[0], weights.R.shape[0]
    N = M.shape[-2] // q
    QS = (weights.Q @ S.reshape(S.shape[:-2] + (N, q, p * N))).reshape(S.shape)  # Q_N S
    QM = (weights.Q @ M.reshape(M.shape[:-2] + (N, q, p))).reshape(M.shape)  # Q_N M
    SQ = QS.swapaxes(-1, -2)
    mid = S.swapaxes(-1, -2) @ QS  # S' Q_N S, then R_N on its block diagonal
    np.einsum("...ipiq->...ipq", mid.reshape(mid.shape[:-2] + (N, p, N, p)))[...] += weights.R
    ev = np.abs(np.linalg.eigvalsh(mid))  # mid is symmetric positive definite
    cond_inner = ev.max(axis=-1) / ev.min(axis=-1)
    MtG = QM.swapaxes(-1, -2) - np.linalg.solve(mid, SQ @ M).swapaxes(-1, -2) @ SQ
    bracket = weights.R + MtG @ M
    cond_bracket = np.linalg.cond(bracket)
    try:
        K = np.linalg.solve(bracket, MtG @ O_plus)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular gain bracket R + M' Gamma M (condition {np.max(cond_bracket):.3e})"
        ) from exc
    return K, {"cond_inner": cond_inner, "cond_bracket": cond_bracket}


def dare_solve(model: StateSpaceModel, weights: LqrWeights) -> np.ndarray:
    """Stabilizing Riccati solution by structure-preserving doubling.

    From A_0 = A, G_0 = B R^-1 B', H_0 = C'QC and W = I + G_k H_k, the steps
    A_k+1 = A_k W^-1 A_k, G_k+1 = G_k + A_k W^-1 G_k A_k', H_k+1 = H_k + A_k' H_k W^-1 A_k
    make H_k the 2^k-th fixed-point iterate P <- A'PA - (A'PB)(R + B'PB)^-1(B'PA) + C'QC
    from P = 0. Doubling stops at a relative step of H below ``DARE_TOL``, then
    fixed-point steps run until the relative residual is below 10*DARE_TOL.
    ValueError means no stabilizing solution, or no convergence in
    ``DARE_MAX_ITER`` steps of either kind.
    """
    A, B, C = model.A, model.B, model.C
    CQC = C.T @ weights.Q @ C

    def step(P):
        Pn = A.T @ P @ A - (A.T @ P @ B) @ model_lqr_gain(model, P, weights.R) + CQC
        return 0.5 * (Pn + Pn.T)

    Ak, G, H = A, B @ np.linalg.solve(weights.R, B.T), CQC
    for k in range(DARE_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            WiA, WiG = np.hsplit(np.linalg.solve(np.eye(len(A)) + G @ H, np.hstack([Ak, G])), 2)
            Hn, G = H + Ak.T @ H @ WiA, G + Ak @ WiG @ Ak.T
            Ak, G, Hn = Ak @ WiA, 0.5 * (G + G.T), 0.5 * (Hn + Hn.T)
            change = np.linalg.norm(Hn - H) / max(np.linalg.norm(Hn), np.finfo(float).tiny)
        if not all(np.isfinite(X).all() for X in (Ak, G, Hn)):
            raise ValueError(f"Riccati doubling diverged at step {k + 1}: no stabilizing solution")
        H = Hn
        if change < DARE_TOL:
            break
    else:
        raise ValueError("Riccati doubling did not converge: no stabilizing solution")
    # the fixed-point map corrects the rounding that doubling leaves on badly conditioned plants
    for _ in range(DARE_MAX_ITER):
        P = step(H)
        resid = np.linalg.norm(P - H) / max(np.linalg.norm(H), np.finfo(float).tiny)
        if resid < 10 * DARE_TOL:
            return H
        H = P
    raise ValueError(f"Riccati refinement did not converge: fixed-point residual {resid:.3e}")


def model_lqr_gain(model: StateSpaceModel, P: np.ndarray, R) -> np.ndarray:
    """Optimal gain K = (R + B'PB)^-1 (B'PA) for a Riccati solution P."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    B, A = model.B, model.A
    bracket = R + B.T @ P @ B
    try:
        return np.linalg.solve(bracket, B.T @ P @ A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular gain bracket R + B'PB (condition {np.linalg.cond(bracket):.3e})"
        ) from exc
