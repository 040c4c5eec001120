"""Metamorphic properties: how the data-driven design moves when the data do.

A state coordinate change x' = T x leaves the inputs and outputs as they are.
The Markov parameters depend on those alone, and the x rows come last in the
stacked data, so the factor's earlier columns never see them: the Toeplitz
factor must come out bit for bit the same. The observability matrix and the
gain act on the state, so O' = O T^-1 and K' = K T^-1, for alg1 and for alg2.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddlqr import (
    Dataset,
    LqrWeights,
    StateSpaceModel,
    estimate,
    simulate,
    synthesize,
)
from ddlqr.observability import ALGORITHMS

RTOL = 1e-10
COND_MAX = 10.0


def _rel(got, expect) -> float:
    """Max-entry error relative to the largest entry of ``expect``."""
    return float(np.abs(got - expect).max() / max(np.abs(expect).max(), 1e-300))


@st.composite
def problems(draw):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    depth = draw(st.integers(2, 5))
    noisy = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    # T = U diag(s) V' with singular values spread over at most COND_MAX
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    T = (U * COND_MAX ** rng.uniform(-0.5, 0.5, size=n)) @ V.T
    width = max(3 * q, 2 * (p + q)) * depth + n + 40
    length = width + 2 * depth - 1
    v = 0.1 * rng.normal(size=(length, n)) if noisy else None
    data = simulate(model, rng.normal(size=(length, p)), v=v, noise_mode="measurement")
    return data, T, depth


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_state_coordinate_change(problem):
    data, T, depth = problem
    moved = Dataset(u=data.u, y=data.y, x=data.x @ T.T)
    T_inv = np.linalg.inv(T)
    weights = LqrWeights(Q=np.eye(data.n_outputs), R=np.eye(data.n_inputs))
    for algorithm in ALGORITHMS:
        est, est_moved = (estimate(d, depth, algorithm=algorithm) for d in (data, moved))
        assert np.array_equal(est_moved.markov.toeplitz, est.markov.toeplitz), algorithm
        O, O_moved = est.observability.matrix, est_moved.observability.matrix
        assert _rel(O_moved, O @ T_inv) < RTOL, algorithm
        K = synthesize(est, weights, depth).K
        K_moved = synthesize(est_moved, weights, depth).K
        assert _rel(K_moved, K @ T_inv) < RTOL, algorithm
