"""Reference implementations that the library no longer uses.

The library reads every estimate off one LQ factor of the stacked Hankel
data. These oracles compute the same quantities the direct way, from the
full Hankel matrices, with pseudo-inverses and full-width SVDs:

* ``orthogonal_projector`` forms the width x width projector explicitly;
* ``pinv_predictor``, ``pinv_obs_alg1`` and ``pinv_obs_alg2`` are the
  pseudo-inverse estimators that the factor route replaced.
"""

import warnings

import numpy as np

from ddlqr import pinv

PINV_TOL = 1e-12
RANK_TOL = 1e-8


def orthogonal_projector(u_past: np.ndarray, tol: float = PINV_TOL) -> np.ndarray:
    """Projector onto the orthogonal complement of the rows of u_past.

    Returns the width x width matrix I - u_past' (u_past u_past')^-1 u_past,
    falling back to the pseudo-inverse form when the Gram matrix is singular.
    """
    u_past = np.atleast_2d(np.asarray(u_past, dtype=float))
    L = u_past.shape[1]
    gram = u_past @ u_past.T
    s = np.linalg.svd(gram, compute_uv=False)
    if s.size and s[0] > 0 and s[-1] >= tol * s[0]:
        coeff = np.linalg.solve(gram, u_past)
    else:
        warnings.warn("input Hankel Gram matrix is singular; using pseudo-inverse projector",
                      stacklevel=2)
        coeff = pinv(gram, tol) @ u_past
    return np.eye(L) - u_past.T @ coeff


def numerical_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol * s[0]))


def pinv_predictor(dm, pinv_tol: float = PINV_TOL):
    """Min-norm least-squares predictor W = y_future [u_past; y_past; u_future]^+.

    Returns the future-input block of W, its sub-diagonal-averaged Markov
    blocks and the input rank of [u_past; u_future].
    """
    d, p, q = dm.depth, dm.n_inputs, dm.n_outputs
    W = dm.y_future @ pinv(dm.regressor, tol=pinv_tol)
    raw = W[:, -p * d:]
    blocks = [
        np.mean([raw[(i + k + 1) * q:(i + k + 2) * q, i * p:(i + 1) * p]
                 for i in range(d - 1 - k)], axis=0)
        for k in range(d - 1)
    ]
    return raw, blocks, numerical_rank(np.vstack([dm.u_past, dm.u_future]))


def pinv_obs_alg1(y_past, u_past, s_hat, x, tol: float = PINV_TOL) -> np.ndarray:
    """O = (y_past - s_hat u_past) x^+."""
    return (y_past - s_hat @ u_past) @ np.linalg.pinv(x, rcond=tol)


def pinv_obs_alg2(y_past, u_past, x, tol: float = PINV_TOL) -> np.ndarray:
    """O = (y_past P) (x P)^+ with P applied as M P = M - (M u_past^+) u_past."""
    u_pinv = pinv(u_past, tol)
    y_proj = y_past - (y_past @ u_pinv) @ u_past
    x_proj = x - (x @ u_pinv) @ u_past
    return y_proj @ np.linalg.pinv(x_proj, rcond=tol)
