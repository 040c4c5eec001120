"""Property tests: the Riccati doubling and the blockwise closed-form gain
against independent references.

``dare_solve`` is checked against ``scipy.linalg.solve_discrete_are`` (a QZ
method, used here only as an oracle) on random stabilizable and detectable
plants, open-loop unstable ones included, whose optimal closed loop has a
spectral radius up to 0.99. The oracle is trusted only where its own
solution meets the residual contract that ``dare_solve`` is held to: on
badly conditioned plants the QZ solution can be the less accurate of the two.

``dd_lqr_gain`` is checked against ``oracles.textbook_gain``, which forms
Q_N, R_N and Gamma densely and inverts Gamma as written, on random models,
weights and horizons, and on the tracking demo's augmented plant, where the
inner matrix has condition about 5e5.

The convergence claim holds as an identity: from P_0 = 0, the gain of order
m equals (R + B'P_mB)^-1 B'P_mA, with P_m the m-th iterate of the Riccati
difference equation (``oracles.riccati_iterate``). It is checked on exact
model inputs over random plants, stable and unstable, and on the regulation
demo's noise-free data through ``estimate`` and ``synthesize``: from its
record, and from a record of the demo made open-loop unstable, whose growing
states are barely excited but still above ``PINV_TOL``.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from conftest import prbs_dataset, two_output_model
from oracles import (
    ITERATE_FLOOR,
    ITERATE_PER_COND,
    exact_gain_inputs,
    riccati_iterate,
    textbook_gain,
)
from ddlqr import (
    LqrWeights,
    StateSpaceModel,
    augment_model,
    dare_solve,
    model_lqr_gain,
)
from ddlqr.config import RunConfig
from ddlqr.experiments import estimate, synthesize
from ddlqr.lqr import dd_lqr_gain

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DARE_RTOL = 1e-10
GAIN_RTOL = 1e-9
# On the regulation demo's noise-free data the gap was at most 7.1e-16.
DEMO_ITERATE_RTOL = 1e-14
# With a11 = 1.1 (rho(A) 1.03) over 800 samples it was 2.7e-8 to 3.9e-8 at horizons 10 to 50.
UNSTABLE_ITERATE_RTOL = 1e-6
SETTINGS = settings(max_examples=80,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _spd(rng, k: int, scale: float) -> np.ndarray:
    """Random symmetric positive-definite k x k matrix, not diagonal for k > 1."""
    L = rng.normal(size=(k, k))
    return scale * (L @ L.T + 0.5 * np.eye(k))


@st.composite
def plants(draw):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n))
    radius = draw(st.floats(0.2, 1.5) | st.floats(0.95, 0.995))  # and slow stable plants
    A *= radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)))
    weights = LqrWeights(Q=_spd(rng, q, 1.0), R=_spd(rng, p, 10.0 ** draw(st.floats(-2, 3))))
    return model, weights


def _residual(model, weights, P) -> float:
    """Relative residual of one fixed-point Riccati step at P."""
    A, B, C = model.A, model.B, model.C
    K = model_lqr_gain(model, P, weights.R)
    step = A.T @ P @ A - (A.T @ P @ B) @ K + C.T @ weights.Q @ C
    return float(np.linalg.norm(step - P) / np.linalg.norm(P))


def _rel(got, expect) -> float:
    return float(np.abs(got - expect).max() / np.abs(expect).max())


@SETTINGS
@given(plants())
def test_dare_matches_qz_solver(plant):
    model, weights = plant
    A, B, C = model.A, model.B, model.C
    P_qz = solve_discrete_are(A, B, C.T @ weights.Q @ C, weights.R)
    rho = float(np.abs(np.linalg.eigvals(A - B @ model_lqr_gain(model, P_qz, weights.R))).max())
    assume(rho <= 0.99 and _residual(model, weights, P_qz) < 1e-11)
    target(rho)
    P = dare_solve(model, weights)
    assert np.linalg.norm(P - P_qz) / np.linalg.norm(P_qz) < DARE_RTOL


@pytest.mark.parametrize("pole", [1.2, 1.0, -1.0])
def test_dare_without_stabilizing_solution_raises_fast(pole):
    # the first mode is uncontrollable: the doubling iterates overflow (1.2) or
    # double without end (on the unit circle)
    model = StateSpaceModel(A=np.diag([pole, 0.5]), B=[[0.0], [1.0]], C=np.eye(2))
    weights = LqrWeights(Q=np.eye(2), R=[[1.0]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no stabilizing solution"):
        dare_solve(model, weights)
    assert time.perf_counter() - start < 0.1


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
       st.integers(0, 2 ** 32 - 1))
def test_blockwise_gain_matches_textbook(n, p, q, N, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 1.3) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)))
    weights = LqrWeights(Q=_spd(rng, q, 1.0), R=_spd(rng, p, 10.0 ** rng.uniform(-2, 2)))
    inputs = exact_gain_inputs(model, N)
    got, _ = dd_lqr_gain(*inputs, weights)
    assert _rel(got, textbook_gain(*inputs, weights, N)) < GAIN_RTOL


def test_blockwise_gain_on_tracking_demo():
    cfg = RunConfig.load(str(CONFIGS / "ups_tracking_demo.ini"), [])
    model = cfg.model()
    aug = augment_model(model, cfg.imc(model.sample_time))
    weights, N = cfg.weights(), cfg.get("lqr", "horizon") - 1
    inputs = exact_gain_inputs(aug, N)
    K, diagnostics = dd_lqr_gain(*inputs, weights)
    assert 1e5 < diagnostics["cond_inner"] < 1e6
    assert _rel(K, textbook_gain(*inputs, weights, N)) < GAIN_RTOL


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
       st.floats(0.3, 1.6), st.integers(0, 2 ** 32 - 1))
def test_gain_is_riccati_gain_of_the_iterate(n, p, q, order, radius, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)))
    weights = LqrWeights(Q=_spd(rng, q, 1.0), R=_spd(rng, p, 10.0 ** rng.uniform(-2, 2)))
    K, diagnostics = dd_lqr_gain(*exact_gain_inputs(model, order), weights)
    iterate = model_lqr_gain(model, riccati_iterate(model, weights, order), weights.R)
    bound = ITERATE_FLOOR + ITERATE_PER_COND * diagnostics["cond_inner"]
    assert _rel(K, iterate) < bound


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_demo_gains_are_riccati_iterates(algorithm):
    model = two_output_model()
    weights = LqrWeights(Q=20.0 * np.eye(2), R=0.2 * np.eye(2))
    est = estimate(prbs_dataset(model), 51, algorithm=algorithm)
    for horizon in range(2, 21):
        iterate = riccati_iterate(model, weights, horizon - 1)
        K = synthesize(est, weights, horizon)[0]
        assert _rel(K, model_lqr_gain(model, iterate, weights.R)) < DEMO_ITERATE_RTOL, horizon


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_unstable_record_gains_are_riccati_iterates(algorithm):
    # the demo with rho(A) = 1.03: over 800 samples the states grow until the snapshot's
    # smallest singular value is 6.2e-10 times its largest, above PINV_TOL = 1e-12, so
    # the fit keeps every state direction and the gain is still the Riccati iterate's
    model = replace(two_output_model(), A=[[1.1, 0.15], [-0.2, 0.6]])
    weights = LqrWeights(Q=20.0 * np.eye(2), R=0.2 * np.eye(2))
    est = estimate(prbs_dataset(model, length=800), 51, algorithm=algorithm)
    for horizon in (10, 30, 50):
        iterate = riccati_iterate(model, weights, horizon - 1)
        K = synthesize(est, weights, horizon)[0]
        assert _rel(K, model_lqr_gain(model, iterate, weights.R)) < UNSTABLE_ITERATE_RTOL, horizon
