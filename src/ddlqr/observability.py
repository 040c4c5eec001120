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

Each estimator returns ``(matrix, {"obs_residual"})``. The matrix stacks the blocks
C, CA, ..., CA^(depth-1). ``obs_residual`` is the Frobenius norm of the misfit of the
matrix equation that defines it: y_past - s_hat u_past - O x_past for alg1, its
projection y_past P - O x_past P for alg2. Consumers read the shifted form
O+ = [CA; ...; CA^(depth-1)], which the gain takes, as the slice
``matrix[..., q:, :]`` that drops the first block row of q outputs.

With an internal model the fits are those of the plant plus controller: the
past outputs are lifted with the controller states and the states are
[x_past; z_past] (``DataMatrices.past_rows``), so the matrix has n + q*nc columns.

Batch axes of the factor carry over to the estimates, and a rank check that
fails for some entries marks them as in ``markov``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .markov import PINV_TOL, DataMatrices, _fail_entries, _rank
from .plant_sim import StateSpaceModel

ALGORITHMS = ("alg1", "alg2")


def true_observability(model: StateSpaceModel, depth: int) -> np.ndarray:
    """Model-based stack of C A^i for i = 0..depth-1; ``monte_carlo_obs`` scores against it."""
    rows = []
    power = np.eye(model.n_states)
    for _ in range(depth):
        rows.append(model.C @ power)
        power = power @ model.A
    return np.vstack(rows)


def _fit_states(lhs: np.ndarray, x: np.ndarray,
                what: str) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Least-squares O in lhs = O x for a wide x of full row rank by ``PINV_TOL``, with
    its residual ||lhs - O x||_F."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    _fail_entries(_rank(s, s[..., 0], PINV_TOL) < x.shape[-2], lambda i: (
        f"states not sufficiently excited: {what}: numerical row rank below {x.shape[-2]} "
        f"(smallest over largest singular value "
        f"{s[i][-1] / s[i][0] if s[i][0] else 0.0:.3e} < {PINV_TOL:g})"))
    obs = (lhs @ vt.swapaxes(-1, -2) / s[..., None, :]) @ u.swapaxes(-1, -2)
    # per entry, the residual is np.linalg.norm's dot product of the raveled misfit, taken
    # on it over 2^e > its largest magnitude: dnrm2's scaling, exact as a power of two
    misfit = (lhs - obs @ x).reshape(obs.shape[:-2] + (-1,))
    e = np.frexp(np.abs(misfit).max(axis=-1, keepdims=True))[1]
    misfit = np.ldexp(misfit, -e)
    return obs, {"obs_residual": np.ldexp(np.sqrt(np.vecdot(misfit, misfit)), e[..., 0])}


def estimate_obs_alg1(dm: DataMatrices,
                      s_hat: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Estimate the observability matrix by Toeplitz subtraction.

    Solves y_past = O x_past + s_hat u_past for O in least squares:
    O = (y_past - s_hat u_past) x_past^+, computed on the factor as
    O = (L_Yp - s_hat L_Up) L_X^+; L_Up is zero past its first p*depth columns.
    """
    pd = dm.n_inputs * dm.depth
    rhs, x = dm.past_rows()
    rhs = rhs.copy()
    rhs[..., :pd] -= s_hat @ dm.factor[..., dm.parts["u_past"], :pd]
    return _fit_states(rhs, x, "state snapshot")


def estimate_obs_alg2(dm: DataMatrices) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Estimate the observability matrix by projecting the inputs away.

    Applies the orthogonal-complement projector P of the past-input rows to
    both sides of y_past = O x_past + S u_past, annihilating the unknown
    Toeplitz term, then solves O = (y_past P) (x_past P)^+. On the factor the
    projection drops the u_past columns: O = L_Yp[:, pd:] (L_X[:, pd:])^+.
    That needs u_past to have full row rank, checked on L_Up,Up with ``PINV_TOL``.
    """
    up = dm.parts["u_past"]
    s = np.linalg.svd(dm.factor[..., up, up], compute_uv=False)
    _fail_entries(_rank(s, s[..., 0], PINV_TOL) < up.stop, lambda i: (
        f"insufficient excitation: past-input Hankel has numerical row rank below {up.stop}"))
    return _fit_states(*dm.past_rows(up.stop), "projected state snapshot (X U_po)")
