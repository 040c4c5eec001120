import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import prbs_dataset, tracking_run, two_output_model
from oracles import augment_dataset
from ddlqr import (
    Dataset,
    LqrWeights,
    StateSpaceModel,
    TrackingScenario,
    augment_model,
    dare_solve,
    estimate,
    evaluate_closed_loop,
    integrator_imc,
    model_lqr_gain,
    resonant_imc,
    simulate,
    synthesize,
)
from ddlqr.imc import append_imc_states, filter_imc_states


class TestRealizations:
    def test_integrator(self):
        imc = integrator_imc()
        np.testing.assert_array_equal(imc.A_c, [[1.0]])
        np.testing.assert_array_equal(imc.B_c, [[1.0]])

    def test_resonant_entries(self):
        imc = resonant_imc(120 * np.pi, 1.0 / 15000.0)
        assert imc.A_c[1, 1] == pytest.approx(2 * np.cos(0.0251327412), abs=1e-9)
        assert imc.A_c[1, 1] == pytest.approx(1.999368, abs=1e-6)
        np.testing.assert_array_equal(imc.B_c.ravel(), [0.0, 1.0])

    def test_resonant_quarter_period(self):
        imc = resonant_imc(np.pi / 2, 1.0)
        assert imc.A_c[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_resonant_poles_on_unit_circle(self):
        theta = 0.3
        imc = resonant_imc(theta, 1.0)
        eig = np.linalg.eigvals(imc.A_c)
        np.testing.assert_allclose(np.abs(eig), 1.0, rtol=1e-12)
        np.testing.assert_allclose(sorted(np.angle(eig)), [-theta, theta], atol=1e-12)

    def test_resonant_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            resonant_imc(np.pi, 1.0)

    @pytest.mark.parametrize("omega_n", [0.0, -5.0])
    def test_resonant_zero_or_negative_frequency_names_the_lower_side(self, omega_n):
        with pytest.raises(ValueError, match="the frequency is at or below zero$"):
            resonant_imc(omega_n, 1.0)


class TestFiltering:
    def test_zero_output(self):
        assert not filter_imc_states(np.zeros((5, 2)), integrator_imc()).any()

    def test_integrator_ramp(self):
        got = filter_imc_states(np.ones((3, 1)), integrator_imc())
        np.testing.assert_array_equal(got.ravel(), [0.0, -1.0, -2.0])

    def test_constant_output_ramps_linearly(self):
        got = filter_imc_states(np.ones((6, 1)), integrator_imc())
        np.testing.assert_array_equal(got.ravel(), -np.arange(6.0))

    def test_matches_augmented_simulation(self):
        # the library's filter and the oracle's augmented record are the plant plus
        # controller's simulation
        model = two_output_model()
        imc = integrator_imc()
        rng = np.random.default_rng(3)
        u = rng.normal(size=(80, 2))
        plain = simulate(model, u)
        aug_model = augment_model(model, imc)
        aug_sim = simulate(aug_model, u)
        xc = filter_imc_states(plain.y, imc)
        np.testing.assert_allclose(xc, aug_sim.x[:, 2:], atol=1e-10)
        np.testing.assert_allclose(augment_dataset(plain, imc).x, aug_sim.x, atol=1e-10)
        np.testing.assert_allclose(augment_dataset(plain, imc).y, aug_sim.y, atol=1e-10)
        np.testing.assert_array_equal(augment_dataset(plain, imc).x[:, 2:], xc)

    def test_start_state_and_batch_axes(self):
        # from a start state the filter adds the controller's free response, and a batch
        # of records filters each record bit for bit as alone
        imc = resonant_imc(0.4, 1.0)
        rng = np.random.default_rng(5)
        y, start = rng.normal(size=(3, 30, 2)), rng.normal(size=(3, 4))
        got = filter_imc_states(y, imc, start)
        free = np.zeros((30, 4))
        free[0] = start[1]
        for k in range(29):
            free[k + 1] = np.kron(np.eye(2), imc.A_c) @ free[k]
        np.testing.assert_allclose(got[1], filter_imc_states(y[1], imc) + free, atol=1e-12)
        for b in range(3):
            assert np.array_equal(got[b], filter_imc_states(y[b], imc, start[b]))

    def test_appended_rows_are_the_augmented_hankel_rows(self):
        # rows of depth blocks of y, with the filter's state at each column's start
        # sample, lift to the blocks [y; x_c] of the augmented record
        imc = resonant_imc(0.9, 1.0)
        y = np.random.default_rng(2).normal(size=(40, 2))
        aug = augment_dataset(Dataset(u=y[:, :1], y=y, x=y), imc).y
        depth, width = 6, 30
        rows = np.vstack([y[i:i + width].T for i in range(depth)])
        want = np.vstack([aug[i:i + width].T for i in range(depth)])
        got = append_imc_states(rows, 2, imc, aug[:width, 2:].T)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestAugmentDataset:
    # the test oracle the internal-model estimates are checked against
    def test_zero_dataset(self):
        ds = Dataset(u=np.zeros((4, 1)), y=np.zeros((4, 1)), x=np.zeros((4, 1)))
        out = augment_dataset(ds, integrator_imc())
        assert out.y.shape == (4, 2) and out.x.shape == (4, 2)
        assert not out.y.any() and not out.x.any()

    def test_integrator_dimensions(self):
        ds = prbs_dataset(two_output_model(), length=200)
        out = augment_dataset(ds, integrator_imc())
        assert out.n_outputs == 4 and out.n_states == 4

    def test_resonant_single_output_dimensions(self):
        model = StateSpaceModel(A=np.eye(2) * 0.5, B=[[1.0], [0.0]], C=[[0.0, 1.0]])
        ds = prbs_dataset(model, length=200)
        out = augment_dataset(ds, resonant_imc(1.0, 1.0))
        assert out.n_outputs == 3 and out.n_states == 4


class TestAugmentModel:
    def test_scalar_integrator(self):
        model = StateSpaceModel(A=[[0.5]], B=[[2.0]], C=[[3.0]])
        aug = augment_model(model, integrator_imc())
        np.testing.assert_array_equal(aug.A, [[0.5, 0.0], [-3.0, 1.0]])
        np.testing.assert_array_equal(aug.B, [[2.0], [0.0]])
        np.testing.assert_array_equal(aug.C, [[3.0, 0.0], [0.0, 1.0]])

    def test_two_output_integrator_block(self):
        model = two_output_model()
        aug = augment_model(model, integrator_imc())
        assert aug.A.shape == (4, 4)
        np.testing.assert_array_equal(aug.A[2:, :2], -model.C)
        np.testing.assert_array_equal(aug.A[2:, 2:], np.eye(2))

    def test_kronecker_block(self):
        model = two_output_model()
        imc = resonant_imc(0.7, 1.0)
        aug = augment_model(model, imc)
        np.testing.assert_array_equal(aug.A[2:, :2], -np.kron(model.C, imc.B_c))

    def test_block_triangular_spectrum(self):
        model = two_output_model()
        imc = resonant_imc(0.5, 1.0)
        aug = augment_model(model, imc)
        got = np.sort_complex(np.round(np.linalg.eigvals(aug.A), 8))
        expect = np.sort_complex(np.round(np.concatenate([
            np.linalg.eigvals(model.A),
            np.linalg.eigvals(np.kron(np.eye(2), imc.A_c)),
        ]), 8))
        np.testing.assert_allclose(got, expect, atol=1e-7)


class TestTracking:
    def test_zero_reference_stays_zero(self):
        model = two_output_model()
        imc = integrator_imc()
        weights = LqrWeights(Q=np.eye(4), R=np.eye(2))
        scenario = TrackingScenario(imc, amplitude=0.0)
        metrics = evaluate_closed_loop(model, np.zeros((2, 4)), weights, scenario, 30)
        assert metrics["cost"] == 0.0 and metrics["steady_state_error"] == 0.0
        x, u, _ = tracking_run(model, imc, np.zeros((2, 4)), np.zeros((30, 2)))
        assert not x.any() and not u.any()

    def test_integrator_tracks_constant_reference(self):
        model = two_output_model()
        imc = integrator_imc()
        aug = augment_model(model, imc)
        weights = LqrWeights(Q=np.eye(4), R=0.1 * np.eye(2))
        K_a = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        r = np.tile([1.0, -0.5], (400, 1))
        _, _, y = tracking_run(model, imc, K_a, r)
        assert np.abs(y[-1, :2] - r[-1]).max() < 1e-6

    def test_data_driven_augmented_design_tracks(self):
        model = two_output_model()
        imc = integrator_imc()
        data = prbs_dataset(model, length=800, seed=13)
        weights = LqrWeights(Q=np.eye(4), R=0.1 * np.eye(2))
        K, _ = synthesize(estimate(data, 41, imc=imc), weights, 40)
        r = np.tile([0.7, 0.3], (500, 1))
        _, _, y = tracking_run(model, imc, K, r)
        assert np.abs(y[-1, :2] - r[-1]).max() < 1e-6

    def test_resonant_tracking_on_converter_plant(self):
        from ddlqr import zoh_discretize

        Ts = 1.0 / 15000.0
        model = zoh_discretize(
            [[-50.0, -1000.0], [10000.0 / 3.0, -1 / 6 / 300e-6]],
            [[1000.0], [0.0]], [[0.0, 1.0]], Ts,
        )
        omega = 120 * np.pi
        imc = resonant_imc(omega, Ts)
        aug = augment_model(model, imc)
        weights = LqrWeights(Q=200 * np.eye(3), R=[[5000.0]])
        K_a = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        amp = 127 * np.sqrt(2)
        # 250 samples per period at the model's Ts: the amplitude is read over the last
        # 2500 of 7500
        scenario = TrackingScenario(imc, amp, omega)
        metrics = evaluate_closed_loop(model, K_a, weights, scenario, 7500)
        assert metrics["steady_state_error"] < 0.01


# The internal-model estimate factors the plant's rows and the controller's start state
# and lifts its fits through the controller's filter; the augmented record spans the
# same rows, so both estimate the same least-squares problem and differ by rounding.
EQUIVALENCE_RTOL = 1e-9


def _rel(got, want) -> float:
    """Max-entry error relative to the largest entry of ``want``."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def _outcome(fn):
    """``fn()``, or the ValueError it raises with its figures masked."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), re.sub(r"\d[\d.e+-]*", "#", str(exc))


@st.composite
def imc_problems(draw):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    imc = draw(st.one_of(st.just(integrator_imc()),
                         st.floats(0.2, 2.8).map(lambda theta: resonant_imc(theta, 1.0))))
    depth = draw(st.integers(2, 6))
    min_width = (2 * p + q * (1 + imc.order)) * depth
    width = draw(st.integers(min_width, min_width + 150))
    noisy, alg = draw(st.booleans()), draw(st.sampled_from(["alg1", "alg2"]))
    return n, p, q, imc, depth, width, noisy, alg, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(imc_problems())
def test_estimate_with_imc_matches_augmented_data(problem):
    n, p, q, imc, depth, width, noisy, alg, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    T = width + 2 * depth - 1
    v = 0.1 * rng.normal(size=(T, n)) if noisy else None
    data = simulate(model, rng.normal(size=(T, p)), v=v, noise_mode="measurement")
    got = _outcome(lambda: estimate(data, depth, width, alg, imc=imc))
    want = _outcome(lambda: estimate(augment_dataset(data, imc), depth, width, alg))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.toeplitz.shape == want.toeplitz.shape
    assert _rel(got.toeplitz, want.toeplitz) < EQUIVALENCE_RTOL
    assert _rel(got.observability, want.observability) < EQUIVALENCE_RTOL
    for name in ("input_rank", "regressor_rank"):
        assert got.diagnostics[name] == want.diagnostics[name], name
    weights = LqrWeights(Q=np.eye(q * (1 + imc.order)), R=np.eye(p))
    K_got = _outcome(lambda: synthesize(got, weights, depth)[0])
    K_want = _outcome(lambda: synthesize(want, weights, depth)[0])
    if isinstance(K_want, tuple):
        assert K_got == K_want
    else:
        assert _rel(K_got, K_want) < EQUIVALENCE_RTOL
