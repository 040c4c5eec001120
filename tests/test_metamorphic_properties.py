"""Metamorphic properties: how the data-driven design moves when the data do.

A state coordinate change x' = T x leaves the inputs and outputs as they are.
The Markov parameters depend on those alone, and the x rows come last in the
stacked data, so the factor's earlier columns never see them: the Toeplitz
factor must come out bit for bit the same. The observability matrix and the
gain act on the state, so O' = O T^-1 and K' = K T^-1, for alg1 and for alg2.

Output and input scalings y' = D y and u' = E u, with the weights moved to
Q' = D^-T Q D^-1 and R' = E^-T R E^-1, describe the same cost, so the gain
acts on the same state and returns inputs in the new units: K' = E K.

On noise-free data both observability estimators are exact, so alg1 and alg2
agree, also with more outputs than states, once the q*depth past outputs can
determine the n states. Below that the Toeplitz factor that alg1 subtracts
would be biased, and the estimate refuses the data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddlqr import (
    Dataset,
    InputError,
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


def _conditioned(rng, k: int) -> np.ndarray:
    """U diag(s) V', k x k, with singular values spread over at most COND_MAX."""
    U, _ = np.linalg.qr(rng.normal(size=(k, k)))
    V, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (U * COND_MAX ** rng.uniform(-0.5, 0.5, size=k)) @ V.T


def _biased(data: Dataset, depth: int) -> bool:
    """Whether q*depth < n, checking there that the estimate refuses the data, whose
    Markov parameters would be biased."""
    if data.n_outputs * depth >= data.n_states:
        return False
    for algorithm in ALGORITHMS:
        with pytest.raises(InputError, match="too few to determine"):
            estimate(data, depth, algorithm=algorithm)
    return True


@st.composite
def problems(draw, noisy=st.booleans(), q_max=3):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, q_max))
    depth = draw(st.integers(2, 5))
    noisy = draw(noisy)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    T = _conditioned(rng, n)
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
    if _biased(data, depth) and _biased(moved, depth):
        return
    for algorithm in ALGORITHMS:
        est, est_moved = (estimate(d, depth, algorithm=algorithm) for d in (data, moved))
        assert np.array_equal(est_moved.toeplitz, est.toeplitz), algorithm
        O, O_moved = est.observability, est_moved.observability
        assert _rel(O_moved, O @ T_inv) < RTOL, algorithm
        K = synthesize(est, weights, depth).K
        K_moved = synthesize(est_moved, weights, depth).K
        assert _rel(K_moved, K @ T_inv) < RTOL, algorithm


@st.composite
def scalings(draw):
    data, _, depth = draw(problems())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return data, depth, _conditioned(rng, data.n_outputs), _conditioned(rng, data.n_inputs)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(scalings())
def test_output_and_input_scaling(problem):
    data, depth, D, E = problem
    moved = Dataset(u=data.u @ E.T, y=data.y @ D.T, x=data.x)
    D_inv, E_inv = np.linalg.inv(D), np.linalg.inv(E)
    Q, R = np.eye(data.n_outputs), np.eye(data.n_inputs)
    Q_moved, R_moved = D_inv.T @ Q @ D_inv, E_inv.T @ R @ E_inv
    weights = LqrWeights(Q=Q, R=R)
    weights_moved = LqrWeights(Q=(Q_moved + Q_moved.T) / 2, R=(R_moved + R_moved.T) / 2)
    if _biased(data, depth) and _biased(moved, depth):
        return
    for algorithm in ALGORITHMS:
        K = synthesize(estimate(data, depth, algorithm=algorithm), weights, depth).K
        K_moved = synthesize(estimate(moved, depth, algorithm=algorithm), weights_moved, depth).K
        assert _rel(K_moved, E @ K) < RTOL, algorithm


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(problems(noisy=st.just(False), q_max=6))
def test_alg1_matches_alg2_noise_free(problem):
    data, _, depth = problem
    # below q*depth = n the past outputs cannot determine the state, so the Toeplitz
    # factor that alg1 subtracts would be biased; the estimate refuses the data
    if _biased(data, depth):
        return
    O1, O2 = (estimate(data, depth, algorithm=a).observability for a in ALGORITHMS)
    assert _rel(O1, O2) < RTOL
