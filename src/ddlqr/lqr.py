"""Infinite-horizon LQR gain synthesis.

Two routes to the same gain: a closed-form expression built from Markov
parameters and a shifted extended observability matrix (the data-driven
path), and a fixed-point Riccati solver on a known model (the oracle path).
The closed-form route converges to the Riccati gain as the horizon depth
grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .matrix_kit import block_diag_repeat
from .plant_sim import StateSpaceModel

DARE_TOL = 1e-12
DARE_MAX_ITER = 100_000
RIDGE_HINT = (
    "R must be symmetric positive definite; for a dead-beat design use a "
    "small ridge such as 1e-9 * I instead of R = 0"
)


def _check_weight(name: str, m, hint: str = "") -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise ValueError(f"{name} must be positive definite. {hint}".strip())
    return m


@dataclass
class LqrWeights:
    """Positive-definite output and input weights of the quadratic cost."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = _check_weight("Q", self.Q)
        self.R = _check_weight("R", self.R, hint=RIDGE_HINT)


@dataclass
class LqrDesign:
    """A synthesized state-feedback gain with its conditioning diagnostics."""

    K: np.ndarray
    horizon: int
    weights: LqrWeights
    diagnostics: Dict[str, float] = field(default_factory=dict)


def dd_lqr_gain(
    M: np.ndarray,
    S: np.ndarray,
    O_plus: np.ndarray,
    weights: LqrWeights,
    horizon: int,
) -> LqrDesign:
    """Closed-form LQR gain from Markov parameters and shifted observability.

    With N = ``horizon``, M stacks the first N Markov-parameter blocks
    (q*N x p), S is their strictly-lower block-Toeplitz matrix (q*N x p*N),
    and O_plus stacks CA .. CA^N (q*N x n). The gain is

        K = [R + M' Gamma M]^-1 M' Gamma O_plus,
        Gamma = (Q_N^-1 + S R_N^-1 S')^-1,

    with Q_N, R_N the N-fold block-diagonal weight repeats. Gamma is evaluated
    through the matrix-inversion lemma as Q_N - Q_N S (R_N + S' Q_N S)^-1 S' Q_N,
    which avoids inverting the weight blocks themselves; ``cond_inner`` is the
    condition number of the inverted matrix R_N + S' Q_N S.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    O_plus = np.atleast_2d(np.asarray(O_plus, dtype=float))
    N = horizon
    if N < 1:
        raise ValueError("horizon must be >= 1")
    q = weights.Q.shape[0]
    p = weights.R.shape[0]
    if M.shape != (q * N, p):
        raise ValueError(f"M has shape {M.shape}, expected ({q * N}, {p})")
    if S.shape != (q * N, p * N):
        raise ValueError(f"S has shape {S.shape}, expected ({q * N}, {p * N})")
    if O_plus.shape[0] != q * N:
        raise ValueError(f"O_plus has {O_plus.shape[0]} rows, expected {q * N}")

    QN = block_diag_repeat(weights.Q, N)
    RN = block_diag_repeat(weights.R, N)
    mid = RN + S.T @ QN @ S
    cond_inner = float(np.linalg.cond(mid))
    QNS = QN @ S
    gamma = QN - QNS @ np.linalg.solve(mid, QNS.T)
    MtG = M.T @ gamma
    bracket = weights.R + MtG @ M
    cond_bracket = float(np.linalg.cond(bracket))
    try:
        K = np.linalg.solve(bracket, MtG @ O_plus)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular gain bracket R + M' Gamma M (condition {cond_bracket:.3e})"
        ) from exc
    return LqrDesign(
        K=K,
        horizon=N,
        weights=weights,
        diagnostics={"cond_inner": cond_inner, "cond_bracket": cond_bracket},
    )


def dare_solve(model: StateSpaceModel, weights: LqrWeights) -> np.ndarray:
    """Stabilizing Riccati solution by fixed-point iteration.

    Iterates P <- A'PA - (A'PB)(R + B'PB)^-1(B'PA) + C'QC from P0 = C'QC
    until the relative step falls below ``DARE_TOL``, then verifies the
    fixed-point residual of the returned P is below 10*DARE_TOL.
    """
    A, B, C = model.A, model.B, model.C
    CQC = C.T @ weights.Q @ C

    def step(P):
        BtP = B.T @ P
        gain = np.linalg.solve(weights.R + BtP @ B, BtP @ A)
        Pn = A.T @ P @ A - (A.T @ P @ B) @ gain + CQC
        return 0.5 * (Pn + Pn.T)

    P = CQC.copy()
    last_resid = np.inf
    for _ in range(DARE_MAX_ITER):
        Pn = step(P)
        change = np.linalg.norm(Pn - P) / max(np.linalg.norm(Pn), np.finfo(float).tiny)
        P = Pn
        if change < DARE_TOL:
            last_resid = np.linalg.norm(step(P) - P) / max(np.linalg.norm(P), np.finfo(float).tiny)
            if last_resid < 10 * DARE_TOL:
                return P
    raise ValueError(
        f"Riccati fixed-point iteration did not converge in {DARE_MAX_ITER} iterations "
        f"(last residual {last_resid:.3e})"
    )


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
