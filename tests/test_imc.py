import numpy as np
import pytest

from conftest import prbs_dataset, tracking_run, two_output_model
from ddlqr import (
    Dataset,
    LqrWeights,
    SignalSpec,
    StateSpaceModel,
    TrackingScenario,
    augment_dataset,
    augment_model,
    dare_solve,
    estimate,
    evaluate_closed_loop,
    filter_imc_states,
    integrator_imc,
    model_lqr_gain,
    resonant_imc,
    simulate,
    synthesize,
)


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


class TestAugmentDataset:
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
        scenario = TrackingScenario(imc=imc, reference=SignalSpec(kind="zero", length=1))
        metrics = evaluate_closed_loop(model, np.zeros((2, 4)), weights, scenario, 30)
        assert metrics.cost == 0.0 and metrics.steady_state_error == 0.0
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
        design = synthesize(estimate(data, 41, imc=imc), weights, 40)
        r = np.tile([0.7, 0.3], (500, 1))
        _, _, y = tracking_run(model, imc, design.K, r)
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
        ref = SignalSpec(kind="sinusoid", length=1, amplitude=amp, frequency=omega, sample_time=Ts)
        # 250 samples per period: the amplitude is fitted over the last 2500 of 7500
        scenario = TrackingScenario(imc=imc, reference=ref)
        metrics = evaluate_closed_loop(model, K_a, weights, scenario, 7500)
        assert metrics.steady_state_error < 0.01
