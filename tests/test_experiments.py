from pathlib import Path

import numpy as np
import pytest

import ddlqr.experiments
from conftest import prbs_dataset, random_stable_system, scalar_model, two_output_model
from ddlqr import (
    Dataset,
    LqrDesign,
    LqrWeights,
    PipelineConfig,
    RegulationScenario,
    SignalSpec,
    StateSpaceModel,
    TrackingScenario,
    build_data_matrices,
    closed_loop_simulate,
    convergence_sweep,
    cost_J,
    dare_solve,
    design_gain,
    estimate_predictor,
    evaluate_closed_loop,
    generate_signal,
    harmonic_distortion,
    integrator_imc,
    model_lqr_gain,
    monte_carlo_obs,
    simulate,
)
from ddlqr.config import RunConfig

GAIN_SHORT = np.array([[4.2314, 7.644], [1.127, -1.8959]])
GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_weights():
    return LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))


class TestDesignGain:
    def test_long_horizon_reproduction(self):
        data = prbs_dataset(two_output_model())
        config = PipelineConfig(weights=reference_weights(), horizon=50, depth=51)
        design = design_gain(data, config)
        np.testing.assert_allclose(design.K, GAIN_LONG, atol=1e-3)

    def test_short_horizon_reproduction(self):
        data = prbs_dataset(two_output_model())
        config = PipelineConfig(weights=reference_weights(), horizon=10, depth=51)
        design = design_gain(data, config)
        np.testing.assert_allclose(design.K, GAIN_SHORT, atol=1e-3)

    def test_zero_dynamics_zero_gain(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2))
        data = prbs_dataset(model, length=600)
        config = PipelineConfig(weights=LqrWeights(Q=np.eye(2), R=np.eye(2)),
                                horizon=6, depth=8)
        design = design_gain(data, config)
        np.testing.assert_allclose(design.K, 0.0, atol=1e-8)

    def test_algorithms_agree_noise_free(self):
        data = prbs_dataset(two_output_model())
        base = dict(weights=reference_weights(), horizon=12, depth=13)
        k1 = design_gain(data, PipelineConfig(algorithm="alg1", **base)).K
        k2 = design_gain(data, PipelineConfig(algorithm="alg2", **base)).K
        np.testing.assert_allclose(k1, k2, atol=1e-6)

    def test_depth_must_cover_horizon(self):
        with pytest.raises(ValueError, match="depth"):
            PipelineConfig(weights=reference_weights(), horizon=10, depth=5)

    def test_stage_errors_are_named(self):
        data = prbs_dataset(two_output_model(), length=40)
        config = PipelineConfig(weights=reference_weights(), horizon=20, depth=25)
        with pytest.raises(ValueError, match="data-matrices"):
            design_gain(data, config)
        longer = prbs_dataset(two_output_model(), length=60)
        with pytest.raises(ValueError, match="markov-estimation"):
            with pytest.warns(UserWarning):
                design_gain(longer, config)

    @pytest.mark.parametrize("name", ["regulation_demo", "ups_tracking_demo",
                                      "noisy_estimation_mc"])
    def test_bundled_configs_are_persistently_exciting(self, name):
        cfg = RunConfig.load(CONFIGS / f"{name}.ini")
        model = cfg.model()
        ts = model.sample_time
        data = simulate(model, generate_signal(
            cfg.signal(default_channels=model.n_inputs, default_ts=ts)))
        depth = cfg.get_int("estimation", "depth")
        width = cfg.get_int("estimation", "width")
        if cfg.has("lqr"):
            config = PipelineConfig(weights=cfg.weights(), horizon=cfg.get_int("lqr", "horizon"),
                                    depth=depth, width=width, imc=cfg.imc(default_ts=ts))
            margin = design_gain(data, config).diagnostics["input_rank_margin"]
        else:
            margin = estimate_predictor(build_data_matrices(data, depth, width)).input_rank_margin
        assert margin > 1.0

    def test_weight_dimension_checked_after_augmentation(self):
        data = prbs_dataset(two_output_model())
        config = PipelineConfig(weights=reference_weights(), horizon=10, depth=11,
                                imc=integrator_imc())
        with pytest.raises(ValueError, match="after augmentation"):
            design_gain(data, config)


class TestConvergenceSweep:
    def test_reference_plant_error_shrinks(self):
        model = two_output_model()
        data = prbs_dataset(model)
        config = PipelineConfig(weights=reference_weights(), horizon=10, depth=51)
        rows = convergence_sweep(model, data, config, [10, 50])
        errs = dict(rows)
        assert errs[50] < errs[10]

    def test_scalar_deadbeat_converges_immediately(self):
        model = scalar_model()
        data = prbs_dataset(model)
        weights = LqrWeights(Q=[[1.0]], R=[[1e-9]])
        config = PipelineConfig(weights=weights, horizon=3, depth=4)
        rows = convergence_sweep(model, data, config, [2, 3])
        errs = dict(rows)
        assert errs[3] < 1e-6

    def test_random_plant_bounded_and_converged(self):
        rng = np.random.default_rng(31)
        model = random_stable_system(rng, radius=(0.4, 0.7))
        data = prbs_dataset(model, length=700, seed=77)
        weights = LqrWeights(Q=np.eye(model.n_outputs), R=np.eye(model.n_inputs))
        rho = np.abs(np.linalg.eigvals(model.A)).max()
        far = max(int(np.ceil(-10.0 / np.log(rho))), 6)
        config = PipelineConfig(weights=weights, horizon=far, depth=far + 1)
        rows = convergence_sweep(model, data, config, [3, far])
        errs = [e for _, e in rows]
        assert all(np.isfinite(errs))
        assert errs[-1] < 1e-3


class TestMonteCarlo:
    def mc(self, runs=60, **kw):
        model = scalar_model(with_noise=True)
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        args = dict(depth=3, runs=runs, noise_variance=0.1, base_seed=0, width=420)
        args.update(kw)
        return monte_carlo_obs(model, spec, **args)

    def test_report_shapes_and_psd(self):
        rep1, rep2 = self.mc()
        for rep in (rep1, rep2):
            assert rep.mean.shape == (2, 1)
            assert rep.covariance.shape == (2, 2)
            assert rep.runs == 60 and rep.failures == 0
            assert np.linalg.eigvalsh(rep.covariance).min() >= -1e-12
            assert np.all(np.diff(rep.covariance_eigenvalues) >= 0)

    def test_moment_decompositions(self):
        rep1, _ = self.mc()
        bias = rep1.mean - rep1.truth
        np.testing.assert_allclose(rep1.mse, rep1.covariance + bias @ bias.T, atol=1e-10)
        np.testing.assert_allclose(
            rep1.second_moment, rep1.covariance + rep1.mean @ rep1.mean.T, atol=1e-10)

    def test_reproducibility(self):
        a = self.mc(runs=20)
        b = self.mc(runs=20)
        np.testing.assert_array_equal(a[0].mean, b[0].mean)
        np.testing.assert_array_equal(a[1].covariance, b[1].covariance)

    def test_fixed_input_changes_statistics(self):
        free = self.mc(runs=20)
        fixed = self.mc(runs=20, fixed_input=True)
        assert not np.array_equal(free[0].mean, fixed[0].mean)

    def test_unidentifiable_run_counts_as_failure(self, monkeypatch):
        # the first run's outputs repeat the input 3 steps ahead (y_t = u_{t+3}),
        # so its future inputs lie in the span of its past outputs
        calls = []

        def first_run_anticipates(model, u, **kw):
            data = simulate(model, u, **kw)
            calls.append(None)
            if len(calls) > 1:
                return data
            y = np.vstack([data.u[3:], data.u[:3]])
            return Dataset(u=data.u, y=y, x=data.x)

        monkeypatch.setattr(ddlqr.experiments, "simulate", first_run_anticipates)
        rep1, rep2 = self.mc(runs=20)
        assert (rep1.failures, rep1.runs) == (1, 19)
        assert (rep2.failures, rep2.runs) == (0, 20)

    def test_rejects_single_run(self):
        with pytest.raises(ValueError, match="at least 2 runs"):
            self.mc(runs=1)


class TestHarmonicDistortion:
    def test_pure_sinusoid(self):
        k = np.arange(2000)
        y = np.sin(2 * np.pi * k / 100)
        assert harmonic_distortion(y, samples_per_period=100) == pytest.approx(0.0, abs=1e-12)

    def test_equal_third_harmonic(self):
        k = np.arange(2000)
        y = np.sin(2 * np.pi * k / 100) + np.sin(6 * np.pi * k / 100)
        assert harmonic_distortion(y, samples_per_period=100) == pytest.approx(1.0, rel=1e-9)

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            harmonic_distortion(np.ones(50), samples_per_period=100)


class TestEvaluateClosedLoop:
    def test_regulation_metrics(self):
        model = two_output_model()
        weights = reference_weights()
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        design = LqrDesign(K=K, horizon=50, weights=weights)
        metrics = evaluate_closed_loop(model, design, RegulationScenario(x0=[1.0, 1.0]), 500)
        assert metrics.spectral_radius < 1.0
        assert metrics.steady_state_error < 1e-10
        expect = cost_J(closed_loop_simulate(model, K, [1.0, 1.0], 500), weights.Q, weights.R)
        assert metrics.cost == pytest.approx(expect)

    def test_unstable_loop_is_a_metric(self):
        model = StateSpaceModel(A=[[1.2]], B=[[1.0]], C=[[1.0]])
        weights = LqrWeights(Q=[[1.0]], R=[[1.0]])
        design = LqrDesign(K=np.zeros((1, 1)), horizon=1, weights=weights)
        metrics = evaluate_closed_loop(model, design, RegulationScenario(x0=[1.0]), 4000)
        assert metrics.spectral_radius >= 1.0
        assert metrics.cost == np.inf or np.isfinite(metrics.cost)

    def test_tracking_metrics_fields(self):
        model = two_output_model()
        imc = integrator_imc()
        from ddlqr import augment_model
        aug = augment_model(model, imc)
        weights = LqrWeights(Q=np.eye(4), R=0.1 * np.eye(2))
        K_a = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        design = LqrDesign(K=K_a, horizon=0, weights=weights)
        ref = SignalSpec(kind="constant", length=1, amplitude=1.0)
        metrics = evaluate_closed_loop(model, design, TrackingScenario(imc=imc, reference=ref), 400)
        assert metrics.spectral_radius < 1.0
        assert metrics.steady_state_error < 1e-6
        assert metrics.thd is None

    def test_local_optimality_sampling(self):
        model = two_output_model()
        weights = reference_weights()
        K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        x0 = [1.0, 1.0]
        J_star = cost_J(closed_loop_simulate(model, K_star, x0, 1000), weights.Q, weights.R)
        rng = np.random.default_rng(99)
        for _ in range(20):
            delta = rng.normal(size=(2, 2))
            delta *= 0.05 / np.linalg.norm(delta)
            K_pert = K_star @ (np.eye(2) + delta)
            J_pert = cost_J(closed_loop_simulate(model, K_pert, x0, 1000), weights.Q, weights.R)
            assert J_star <= J_pert + 1e-12
