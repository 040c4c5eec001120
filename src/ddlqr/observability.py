"""Extended-observability-matrix estimation in measured state coordinates.

Two estimators: one subtracts the estimated input Toeplitz contribution from
the past outputs and regresses on the state snapshots; the other projects the
past-input row space away first, which removes the need for the Toeplitz
estimate altogether.

Both work on the LQ factor of the stacked data (``DataMatrices.factor``,
stack = L Q'): a least-squares fit between row blocks of the stack is the same
fit between the row blocks of L, because Q' has orthonormal rows. The
past-input projection is then a column selection: u_past = L_Up,Up Q1', with
Q1' the first p*depth rows of Q', so dropping those columns of L applies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import DataMatrices
from .matrix_kit import DEFAULT_PINV_TOL
from .plant_sim import StateSpaceModel

ALGORITHMS = ("alg1", "alg2")


@dataclass
class ObservabilityEstimate:
    """Estimated extended observability matrix and its one-block-shifted form.

    ``matrix`` stacks the blocks C, CA, ..., CA^(depth-1); ``shifted`` drops
    the first block row, so it stacks CA, ..., CA^(depth-1). ``residual`` is
    the Frobenius fit residual of the defining matrix equation.
    """

    matrix: np.ndarray
    shifted: np.ndarray
    algorithm: str
    depth: int
    residual: float = 0.0


def true_observability(model: StateSpaceModel, depth: int) -> np.ndarray:
    """Model-based stack of C A^i for i = 0..depth-1 (test oracle)."""
    rows = []
    power = np.eye(model.n_states)
    for _ in range(depth):
        rows.append(model.C @ power)
        power = power @ model.A
    return np.vstack(rows)


def drop_first_block_row(obs: np.ndarray, q: int) -> np.ndarray:
    """Remove the first q rows, shifting the observability stack by one power of A."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if q < 1:
        raise ValueError("q must be >= 1")
    if obs.shape[0] < 2 * q:
        raise ValueError(
            f"observability matrix has {obs.shape[0]} rows; need at least {2 * q} "
            f"to drop one block row of {q}"
        )
    return obs[q:, :]


def _fit_states(dm: DataMatrices, algorithm: str, lhs: np.ndarray, x: np.ndarray,
                tol: float, what: str) -> ObservabilityEstimate:
    """Least-squares O in lhs = O x for a wide x of full row rank, with its residual."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] < tol * s[0]:
        raise ValueError(
            f"states not sufficiently excited: {what}: numerical row rank below {x.shape[0]}"
        )
    obs = (lhs @ vt.T / s) @ u.T
    return ObservabilityEstimate(
        matrix=obs,
        shifted=drop_first_block_row(obs, dm.n_outputs),
        algorithm=algorithm,
        depth=dm.depth,
        residual=float(np.linalg.norm(lhs - obs @ x)),
    )


def estimate_obs_alg1(
    dm: DataMatrices,
    s_hat: np.ndarray,
    tol: float = DEFAULT_PINV_TOL,
) -> ObservabilityEstimate:
    """Estimate the observability matrix by Toeplitz subtraction.

    Solves y_past = O x_past + s_hat u_past for O in least squares:
    O = (y_past - s_hat u_past) x_past^+, computed on the factor as
    O = (L_Yp - s_hat L_Up) L_X^+.
    """
    qd, pd = dm.n_outputs * dm.depth, dm.n_inputs * dm.depth
    if s_hat.shape != (qd, pd):
        raise ValueError(
            f"Toeplitz factor shape {s_hat.shape} does not match y_past rows "
            f"{qd} and u_past rows {pd}"
        )
    F = dm.factor
    rhs = F[dm.parts["y_past"]] - s_hat @ F[dm.parts["u_past"]]
    return _fit_states(dm, "alg1", rhs, F[dm.parts["x_past"]], tol, "state snapshot")


def estimate_obs_alg2(dm: DataMatrices, tol: float = DEFAULT_PINV_TOL) -> ObservabilityEstimate:
    """Estimate the observability matrix by projecting the inputs away.

    Applies the orthogonal-complement projector P of the past-input rows to
    both sides of y_past = O x_past + S u_past, annihilating the unknown
    Toeplitz term, then solves O = (y_past P) (x_past P)^+. On the factor the
    projection drops the u_past columns: O = L_Yp[:, pd:] (L_X[:, pd:])^+.
    That needs u_past to have full row rank, which is checked with ``tol``.
    """
    up = dm.parts["u_past"]
    F = dm.factor
    s = np.linalg.svd(F[up, up], compute_uv=False)
    if s[0] == 0.0 or s[-1] < tol * s[0]:
        raise ValueError(
            f"insufficient excitation: past-input Hankel has numerical row rank "
            f"below {up.stop}"
        )
    cols = slice(up.stop, None)
    return _fit_states(dm, "alg2", F[dm.parts["y_past"], cols], F[dm.parts["x_past"], cols],
                       tol, "projected state snapshot (X U_po)")
