from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ddlqr.experiments
from conftest import (
    UPS_SMALL_SETS,
    first_run_anticipates,
    prbs_dataset,
    random_stable_system,
    scalar_model,
    tracking_run,
    two_output_model,
)
from oracles import loop_closed_loop, loop_tracking_loop, per_run_monte_carlo
from ddlqr import (
    Dataset,
    InputError,
    LqrWeights,
    RegulationScenario,
    SignalSpec,
    StateSpaceModel,
    TrackingScenario,
    augment_model,
    convergence_sweep,
    dare_solve,
    estimate,
    evaluate_closed_loop,
    generate_signal,
    integrator_imc,
    model_lqr_gain,
    resonant_imc,
    monte_carlo_obs,
    simulate,
    synthesize,
)
from ddlqr.config import RunConfig
from ddlqr.markov import build_data_matrices, estimate_predictor
from ddlqr.observability import ALGORITHMS, estimate_obs_alg2

GAIN_SHORT = np.array([[4.2314, 7.644], [1.127, -1.8959]])
GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the design diagnostics that carry a batched estimate's run axis
BATCHED_FIGURES = {"input_rank", "input_rank_margin", "regressor_rank", "obs_residual",
                   "cond_inner", "cond_bracket"}


def reference_weights():
    return LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))


def _cost(run: Dataset, weights: LqrWeights) -> float:
    """sum_k y'Qy + u'Ru of a per-sample loop's run."""
    return float(np.einsum("ki,ij,kj->", run.y, weights.Q, run.y)
                 + np.einsum("ki,ij,kj->", run.u, weights.R, run.u))


def sweep_from_estimate(monkeypatch, model, est, weights, horizons):
    """Run a sweep with estimation switched off and return its rows.

    Also checks that each row is the max-entry gap of ``synthesize`` at that
    horizon to the Riccati gain, bit for bit.
    """
    for stage in ("build_data_matrices", "estimate_predictor"):
        monkeypatch.setattr(ddlqr.experiments, stage, None)
    rows = convergence_sweep(model, est, weights, horizons)
    monkeypatch.undo()
    K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
    assert rows == [(N, float(np.abs(synthesize(est, weights, N)[0] - K_star).max()))
                    for N in horizons]
    return rows


class TestDesignGain:
    def test_long_horizon_reproduction(self):
        est = estimate(prbs_dataset(two_output_model()), 51)
        K, _ = synthesize(est, reference_weights(), 50)
        np.testing.assert_allclose(K, GAIN_LONG, atol=1e-3)

    def test_short_horizon_reproduction(self):
        est = estimate(prbs_dataset(two_output_model()), 51)
        K, _ = synthesize(est, reference_weights(), 10)
        np.testing.assert_allclose(K, GAIN_SHORT, atol=1e-3)

    def test_zero_dynamics_zero_gain(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2))
        est = estimate(prbs_dataset(model, length=600), 8)
        K, _ = synthesize(est, LqrWeights(Q=np.eye(2), R=np.eye(2)), 6)
        np.testing.assert_allclose(K, 0.0, atol=1e-8)

    def test_algorithms_agree_noise_free(self):
        data = prbs_dataset(two_output_model())
        k1, k2 = (synthesize(estimate(data, 13, algorithm=alg), reference_weights(), 12)[0]
                  for alg in ("alg1", "alg2"))
        np.testing.assert_allclose(k1, k2, atol=1e-6)

    def test_depth_must_cover_horizon(self):
        est = estimate(prbs_dataset(two_output_model()), 5)
        with pytest.raises(InputError, match="horizon 10 must be <= depth 5"):
            synthesize(est, reference_weights(), 10)

    def test_unknown_algorithm_raises(self):
        # an unchecked name would fall through to alg1
        with pytest.raises(ValueError, match=r"algorithm must be one of \('alg1', 'alg2'\)"):
            estimate(prbs_dataset(two_output_model()), 5, algorithm="alg3")

    def test_stage_errors_are_named(self, monkeypatch):
        # records too short for the Hankel data are input errors, raised as they are
        data = prbs_dataset(two_output_model(), length=40)
        with pytest.raises(InputError, match="^depth 25 needs 2\\*depth = 50 samples"):
            estimate(data, 25)
        longer = prbs_dataset(two_output_model(), length=60)
        with pytest.raises(InputError, match="^width 11 must be >= \\(2p \\+ q\\) \\* depth"):
            estimate(longer, 25)
        # an input that excites nothing fails in its stage, which the error names
        model = two_output_model()
        idle = simulate(model, np.zeros((200, model.n_inputs)))
        with pytest.raises(ValueError, match="^markov-estimation: insufficient excitation"):
            estimate(idle, 5)
        # an input error from within a stage is about an argument, not the stage

        def refuse(dm):
            raise InputError("width", "is refused")

        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", refuse)
        with pytest.raises(InputError, match="^width is refused$"):
            estimate(prbs_dataset(two_output_model()), 5)

    @pytest.mark.parametrize("name", ["regulation_demo", "ups_tracking_demo",
                                      "noisy_estimation_mc"])
    def test_bundled_configs_are_persistently_exciting(self, name):
        cfg = RunConfig.load(CONFIGS / f"{name}.ini")
        model = cfg.model()
        data = simulate(model, generate_signal(cfg.signal(model)))
        depth = cfg.get("estimation", "depth")
        width = cfg.get("estimation", "width")
        if cfg.has("lqr"):
            est = estimate(data, depth, width, imc=cfg.imc(model.sample_time))
            _, diagnostics = synthesize(est, cfg.weights(), cfg.get("lqr", "horizon"))
            margin = diagnostics["input_rank_margin"]
            # the design reports plain Python numbers, as a JSON encoder needs them
            assert [type(diagnostics[k]) for k in ("input_rank", "regressor_rank",
                                                   "input_rank_margin", "obs_residual")] == \
                [int, int, float, float]
        else:
            _, figures = estimate_predictor(build_data_matrices(data, depth, width))
            margin = figures["input_rank_margin"]
        assert margin > 1.0

    def test_one_estimate_serves_weights_and_horizons(self):
        data = prbs_dataset(two_output_model())
        est = estimate(data, 13)
        other = LqrWeights(Q=np.diag([1.0, 3.0]), R=np.eye(2))
        for weights, horizon in ((reference_weights(), 12), (other, 12), (other, 5)):
            K_expect, expect = synthesize(estimate(data, 13), weights, horizon)
            K_got, got = synthesize(est, weights, horizon)
            assert np.array_equal(K_got, K_expect)
            assert got == expect
        with pytest.raises(InputError, match="horizon 14 must be <= depth 13"):
            synthesize(est, other, 14)
        with pytest.raises(ValueError, match="horizon must be >= 2"):
            synthesize(est, other, 1)

    def test_batched_records_design_as_each_alone(self):
        # a 2-run stack of the regulation record once raised a bare ValueError from a
        # scalar cast of the estimate's figures
        runs = [prbs_dataset(two_output_model(), seed=seed) for seed in (7, 8)]
        batch = Dataset(*(np.stack([getattr(r, k) for r in runs]) for k in "uyx"))
        for algorithm in ALGORITHMS:
            K, figures = synthesize(estimate(batch, 5, algorithm=algorithm),
                                    reference_weights(), 5)
            alone = [synthesize(estimate(r, 5, algorithm=algorithm), reference_weights(), 5)
                     for r in runs]
            assert K.shape == (2, 2, 2)
            for b, (K_solo, _) in enumerate(alone):
                assert np.array_equal(K[b], K_solo)
            # the stages' figures become lists over the runs; the settings stay scalars
            assert figures == {
                k: [a[k] for _, a in alone] if k in BATCHED_FIGURES else v
                for k, v in alone[0][1].items()}

    def test_weight_dimension_checked_after_augmentation(self):
        est = estimate(prbs_dataset(two_output_model()), 11, imc=integrator_imc())
        with pytest.raises(InputError, match="Q has dimension 2, expected 4 "
                           "\\(outputs, internal-model states included\\)"):
            synthesize(est, reference_weights(), 10)


class TestConvergenceSweep:
    def test_one_estimate_for_horizons_within_depth(self, monkeypatch):
        model = two_output_model()
        est = estimate(prbs_dataset(model), 51)
        sweep_from_estimate(monkeypatch, model, est, reference_weights(), [10, 20, 30, 40, 50])

    def test_reference_plant_error_shrinks(self):
        model = two_output_model()
        est = estimate(prbs_dataset(model), 51)
        errs = dict(convergence_sweep(model, est, reference_weights(), [10, 50]))
        assert errs[50] < errs[10]

    def test_scalar_deadbeat_converges_immediately(self):
        model = scalar_model()
        weights = LqrWeights(Q=[[1.0]], R=[[1e-9]])
        errs = dict(convergence_sweep(model, estimate(prbs_dataset(model), 4), weights, [2, 3]))
        assert errs[3] < 1e-6

    def test_random_plant_bounded_and_converged(self, monkeypatch):
        rng = np.random.default_rng(31)
        model = random_stable_system(rng, radius=(0.4, 0.7))
        data = prbs_dataset(model, length=700, seed=77)
        weights = LqrWeights(Q=np.eye(model.n_outputs), R=np.eye(model.n_inputs))
        rho = np.abs(np.linalg.eigvals(model.A)).max()
        far = max(int(np.ceil(-10.0 / np.log(rho))), 6)
        rows = sweep_from_estimate(monkeypatch, model, estimate(data, far + 1), weights, [3, far])
        errs = [e for _, e in rows]
        assert all(np.isfinite(errs))
        assert errs[-1] < 1e-3


    @pytest.mark.parametrize("case", ["ups-small", "integrator"])
    def test_tracking_rows_against_augmented_riccati_gain(self, case):
        # the sweep takes the plant and augments it with the estimate's internal model
        if case == "ups-small":
            cfg = RunConfig.load(CONFIGS / "ups_tracking_demo.ini", UPS_SMALL_SETS)
            model, weights = cfg.model(), cfg.weights()
            imc = cfg.imc(model.sample_time)
            spec = cfg.signal(model)
            est = estimate(simulate(model, generate_signal(spec)), 30, 400, imc=imc)
            horizons = [10, 30]
        else:
            model, imc = two_output_model(), integrator_imc()
            est = estimate(prbs_dataset(model, length=2000), 40, imc=imc)
            weights = LqrWeights(Q=20 * np.eye(4), R=0.2 * np.eye(2))
            horizons = [10, 40]
        aug = augment_model(model, imc)
        K_star = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        assert convergence_sweep(model, est, weights, horizons) == [
            (N, float(np.abs(synthesize(est, weights, N)[0] - K_star).max())) for N in horizons]
        # a plant augmented already would be augmented twice
        twice = augment_model(aug, imc).n_states
        with pytest.raises(InputError, match=f"^A has {twice} states, the estimate's "
                                             f"data {aug.n_states}$"):
            convergence_sweep(aug, est, weights, horizons)


class TestMonteCarlo:
    def mc(self, runs=60, signal=None, **kw):
        model = scalar_model(with_noise=True)
        spec = signal or SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        args = dict(depth=3, runs=runs, noise_variance=0.1, base_seed=0, width=420,
                    noise_mode="measurement")
        args.update(kw)
        return monte_carlo_obs(model, spec, **args)

    def test_report_shapes_and_psd(self):
        rep1, rep2 = self.mc()
        for rep in (rep1, rep2):
            assert rep.mean.shape == (2, 1)
            assert rep.covariance.shape == (2, 2)
            assert rep.runs == 60 and sum(rep.failure_reasons.values()) == 0
            assert np.linalg.eigvalsh(rep.covariance).min() >= -1e-12

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
        first_run_anticipates(monkeypatch)
        rep1, rep2 = self.mc(runs=20)
        assert (sum(rep1.failure_reasons.values()), rep1.runs) == (1, 19)
        assert (sum(rep2.failure_reasons.values()), rep2.runs) == (0, 20)
        assert rep1.failure_reasons == {"markov-estimation: future inputs not identifiable": 1}
        assert rep2.failure_reasons == {}

    def test_too_few_successes_name_the_reason(self):
        # an unexcited record fails every run in estimation
        with pytest.raises(ValueError, match=r"alg1: fewer than 2 successful runs \(3 failures, "
                           r"most often markov-estimation: insufficient excitation\)"):
            self.mc(runs=3, signal=SignalSpec(kind="prbs", length=1022, amplitude=0.0))

    def test_short_record_raises_before_any_run(self, monkeypatch):
        monkeypatch.setattr(ddlqr.experiments, "simulate",
                            lambda *args: pytest.fail("a run was simulated"))
        with pytest.raises(InputError, match=r"^width 420 at depth 3 needs 2\*depth \+ width - 1"
                           r" = 425 samples, the record has 6$"):
            self.mc(runs=3, signal=SignalSpec(kind="prbs", length=6))

    def test_noise_mode_defaults_to_process(self):
        # one default for one setting, as in simulate and [noise] mode: the noise drives
        # the state unless the study says it is measured
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        args = dict(depth=3, runs=20, noise_variance=0.1, width=420)
        model = scalar_model(with_noise=True)
        default = monte_carlo_obs(model, spec, **args)
        for mode, same in (("process", True), ("measurement", False)):
            reports = monte_carlo_obs(model, spec, **args, noise_mode=mode)
            for a, b in zip(default, reports):
                assert np.array_equal(a.mean, b.mean) == same, mode

    def test_misspelt_noise_mode_raises(self):
        # it was taken for process noise that never entered the record: a noise-free
        # study reported as a noisy one, covariance eigenvalues of 3e-32
        with pytest.raises(ValueError, match="^noise_mode must be 'process' or 'measurement', "
                                             "got 'measurment'$"):
            self.mc(runs=50, noise_mode="measurment")

    def test_rejects_negative_variance(self):
        with pytest.raises(InputError, match="variance must be >= 0") as exc:
            self.mc(noise_variance=-1.0)
        assert exc.value.param == "noise_variance"

    def test_chunks_match_per_run_loop(self, monkeypatch):
        # a 2-state plant with two noise channels, one simulation chunk and 3 runs more
        model = StateSpaceModel(A=[[0.5, 0.2], [-0.1, 0.3]], B=[[1.0], [0.4]],
                                C=[[1.0, 0.0]], E=[[1.0, 0.0], [0.0, 0.5]])
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        # stacks of 14 rows x 1017 columns, records of 1022 samples x 4 channels a run
        budget = ddlqr.experiments.MC_BATCH_ENTRIES
        chunk = budget // (14 * 1017)
        sim_chunk = chunk * (budget // (chunk * 1022 * 4))
        runs = sim_chunk + 3
        kernel_calls, signal_calls, predictor_calls = [], [], []

        def counted(*args, **kw):
            kernel_calls.append(None)
            return lti_run(*args, **kw)

        def counted_signal(spec, seeds):
            signal_calls.append(len(seeds))
            return generate_signal(spec, seeds)

        def counted_predictor(dm):
            predictor_calls.append(dm.factor.shape[0])
            return estimate_predictor(dm)

        lti_run, estimate_predictor = ddlqr.plant_sim._lti_run, ddlqr.experiments.estimate_predictor
        monkeypatch.setattr(ddlqr.plant_sim, "_lti_run", counted)
        monkeypatch.setattr(ddlqr.experiments, "generate_signal", counted_signal)
        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", counted_predictor)
        for mode in ("measurement", "process"):
            for calls in (kernel_calls, signal_calls, predictor_calls):
                calls.clear()
            # a base seed of two words, which the bulk seeding hashes as numpy does
            args = dict(depth=3, runs=runs, noise_variance=0.1, base_seed=2 ** 32 + 4,
                        noise_mode=mode)
            reports = monte_carlo_obs(model, spec, **args)
            # one kernel call and one generate_signal call (a register product) per simulation chunk
            assert len(kernel_calls) == -(-runs // sim_chunk) == 2
            assert signal_calls == [sim_chunk, 3]
            # the runs' factors, kept across simulation chunks, are estimated as one batch
            assert predictor_calls == [runs] and sim_chunk == 3 * chunk
            samples, failures = per_run_monte_carlo(model, spec, **args)
            for rep in reports:
                stack = np.stack(samples[rep.algorithm])
                assert (rep.runs, sum(rep.failure_reasons.values())) == (
                    len(stack), failures[rep.algorithm])
                np.testing.assert_allclose(rep.mean, stack.mean(axis=0), rtol=1e-12, atol=0)
                dev = stack - stack.mean(axis=0)
                cov = sum(d @ d.T for d in dev) / len(stack)
                np.testing.assert_allclose(rep.covariance, cov, rtol=1e-12,
                                           atol=1e-12 * np.abs(cov).max())

    def test_width_cut_matches_whole_record(self):
        # width 420 at depth 3 reads samples 0..424 of the 1022-sample record; the
        # oracle draws and simulates all 1022 of every run
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        for mode in ("measurement", "process"):
            args = dict(depth=3, runs=40, noise_variance=0.1, base_seed=2, width=420,
                        noise_mode=mode)
            reports = self.mc(signal=spec, **args)
            samples, failures = per_run_monte_carlo(scalar_model(with_noise=True), spec, **args)
            for rep in reports:
                stack = np.stack(samples[rep.algorithm])
                assert (rep.runs, sum(rep.failure_reasons.values())) == (
                    len(stack), failures[rep.algorithm]) == (40, 0)
                np.testing.assert_allclose(rep.mean, stack.mean(axis=0), rtol=1e-12, atol=0)
                dev = stack - stack.mean(axis=0)
                cov = sum(d @ d.T for d in dev) / len(stack)
                np.testing.assert_allclose(rep.covariance, cov, rtol=1e-12,
                                           atol=1e-12 * np.abs(cov).max())

    def test_simulates_only_the_samples_read(self, monkeypatch):
        # 2*3 + 420 - 1 = 425 samples a run; a kernel call holds 4 estimation chunks of 32
        steps, records, draws, predictor_calls = [], [], [], []

        def counted(A, x0, *drives, **kw):
            steps.append(drives[0].shape[-2])
            return lti_run(A, x0, *drives, **kw)

        def counted_signal(spec, seeds):
            u = generate_signal(spec, seeds)
            records.append(u.shape[1])
            return u

        def counted_predictor(dm):
            predictor_calls.append(dm.factor.shape[0])
            return estimate_predictor(dm)

        class Counted(np.random.Generator):
            def normal(self, *args, size=None, **kw):
                draws.append(size[0])
                return super().normal(*args, size=size, **kw)

        lti_run, estimate_predictor = ddlqr.plant_sim._lti_run, ddlqr.experiments.estimate_predictor
        monkeypatch.setattr(ddlqr.plant_sim, "_lti_run", counted)
        monkeypatch.setattr(ddlqr.experiments, "generate_signal", counted_signal)
        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", counted_predictor)
        # the runs' draws come from one scratch generator, re-seeded run by run
        monkeypatch.setattr(np.random, "Generator", Counted)
        rep1, rep2 = self.mc(runs=500)
        assert rep1.runs == rep2.runs == 500
        assert steps == [425] * 4
        assert records == [425] * 4
        assert draws == [425] * 500
        assert predictor_calls == [500]

    def test_passes_span_simulation_chunks(self, monkeypatch):
        # factoring chunks of 2 runs, simulation chunks of 8 and passes of 6 (width 40 over
        # the 13 factor columns is 3 chunks): 20 runs are 4 passes over 3 simulation chunks,
        # and the first three passes end inside a simulation chunk
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        # 1100 entries hold 2 stacks of 13 x 40 and 8 records of 45 samples x 3 channels
        monkeypatch.setattr(ddlqr.experiments, "MC_BATCH_ENTRIES", 1100)
        kernel_calls, predictor_calls = [], []

        def counted(A, x0, *drives, **kw):
            kernel_calls.append(drives[0].shape[0])
            return lti_run(A, x0, *drives, **kw)

        def counted_predictor(dm):
            predictor_calls.append(dm.factor.shape[0])
            return estimate_predictor(dm)

        lti_run, estimate_predictor = ddlqr.plant_sim._lti_run, ddlqr.experiments.estimate_predictor
        monkeypatch.setattr(ddlqr.plant_sim, "_lti_run", counted)
        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", counted_predictor)
        for mode in ("measurement", "process"):
            kernel_calls.clear()
            predictor_calls.clear()
            args = dict(depth=3, runs=20, noise_variance=0.1, base_seed=6, width=40,
                        noise_mode=mode)
            reports = self.mc(signal=spec, **args)
            assert kernel_calls == [8, 8, 4]
            assert predictor_calls == [6, 6, 6, 2]
            samples, failures = per_run_monte_carlo(scalar_model(with_noise=True), spec, **args)
            for rep in reports:
                stack = np.stack(samples[rep.algorithm])
                assert (rep.runs, sum(rep.failure_reasons.values())) == (
                    len(stack), failures[rep.algorithm]) == (20, 0)
                np.testing.assert_allclose(rep.mean, stack.mean(axis=0), rtol=1e-12, atol=0)
                dev = stack - stack.mean(axis=0)
                cov = sum(d @ d.T for d in dev) / len(stack)
                np.testing.assert_allclose(rep.covariance, cov, rtol=1e-12,
                                           atol=1e-12 * np.abs(cov).max())

    @pytest.mark.parametrize("width, runs, calls", [(10, 5, 3), (40, 7, 2), (420, 65, 2)])
    def test_pass_factors_fit_in_one_chunk_stack(self, monkeypatch, width, runs, calls):
        # in factoring chunks of 2 runs, a pass holds 2 * (width // 13) factors of 13 x 13
        # numbers (2 factors of 13 x width below 13 columns), one chunk's stack 2 of 13 x width
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        monkeypatch.setattr(ddlqr.experiments, "MC_BATCH_ENTRIES", 2 * 13 * width)
        factor_bytes = []

        def counted_predictor(dm):
            factor_bytes.append(dm.factor.nbytes)
            return estimate_predictor(dm)

        estimate_predictor = ddlqr.experiments.estimate_predictor
        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", counted_predictor)
        self.mc(runs=runs, signal=spec, width=width)
        chunk_stack = 2 * 13 * width * np.dtype(float).itemsize
        assert len(factor_bytes) == calls
        assert max(factor_bytes) <= chunk_stack
        assert factor_bytes[0] > 0.9 * chunk_stack  # the first pass is full

    def test_batches_do_not_follow_the_record_length(self, monkeypatch):
        # width 420 at depth 3 reads 425 samples of a record of any length, in the same
        # batches: chunks sized by the record length would be 1 run at 20000 samples

        def counted_build(*args, **kw):
            dm = build_data_matrices(*args, **kw)
            factored.append(dm.factor.shape[0])
            return dm

        def counted_predictor(dm):
            predictor_calls.append(dm.factor.shape[0])
            return estimate_predictor(dm)

        build_data_matrices, estimate_predictor = (ddlqr.experiments.build_data_matrices,
                                                   ddlqr.experiments.estimate_predictor)
        monkeypatch.setattr(ddlqr.experiments, "build_data_matrices", counted_build)
        monkeypatch.setattr(ddlqr.experiments, "estimate_predictor", counted_predictor)
        calls = []
        for length in (1022, 20000):
            factored, predictor_calls = [], []
            self.mc(runs=70, signal=SignalSpec(kind="prbs", length=length, amplitude=1.0,
                                               hold=3))
            calls.append((factored, predictor_calls))
        assert calls[0] == calls[1] == ([32, 32, 6], [70])

    def test_stacks_fit_the_entry_budget(self, monkeypatch):
        # depth 40 and width 400 stack 161 x 400 entries a run: 2 runs to a chunk
        stacks = []

        def counted(*args, **kw):
            stack = hankel_stack(*args, **kw)
            stacks.append(stack.shape)
            return stack

        hankel_stack = ddlqr.markov.hankel_stack
        monkeypatch.setattr(ddlqr.markov, "hankel_stack", counted)
        self.mc(runs=5, depth=40, width=400)
        assert stacks == [(2, 161, 400), (2, 161, 400), (1, 161, 400)]
        budget = ddlqr.experiments.MC_BATCH_ENTRIES
        assert all(np.prod(shape) <= budget or shape[0] == 1 for shape in stacks)

    @pytest.mark.parametrize("anticipates", [False, True])
    def test_reports_do_not_depend_on_the_budget(self, monkeypatch, anticipates):
        # a budget of 1 entry factors and simulates one run at a time
        reports = []
        for budget in (ddlqr.experiments.MC_BATCH_ENTRIES, 1):
            monkeypatch.setattr(ddlqr.experiments, "MC_BATCH_ENTRIES", budget)
            if anticipates:
                first_run_anticipates(monkeypatch)
            reports.append(self.mc(runs=40))
        assert sum(reports[0][0].failure_reasons.values()) == int(anticipates)
        for a, b in zip(*reports):
            assert (a.runs, a.failure_reasons) == (b.runs, b.failure_reasons)
            for name in ("mean", "covariance", "mse", "second_moment"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True)

    def test_rejects_single_run(self):
        with pytest.raises(InputError, match="^runs must be >= 2, got 1$") as exc:
            self.mc(runs=1)
        assert exc.value.param == "runs"

    def test_rejects_nonpositive_width(self):
        for width in (0, -3):
            with pytest.raises(ValueError, match=f"width must be >= 1, got {width}"):
                self.mc(width=width)

    def test_rejects_short_depth_and_negative_seed(self):
        for depth in (1, 0, -2):
            with pytest.raises(InputError, match="depth must be >= 2") as exc:
                self.mc(depth=depth)
            assert exc.value.param == "depth"
        with pytest.raises(InputError, match="^base_seed must be >= 0, got -1$") as exc:
            self.mc(base_seed=-1)
        assert exc.value.param == "base_seed"

    def test_mixed_batch_drops_failed_runs(self):
        # six runs: run 1 anticipates its input (y_t = u_(t+3)), runs 3 and 5
        # have none; each must fail as it does alone, and the others must not move
        rng = np.random.default_rng(5)
        T, depth, width = 300, 3, 200
        u = rng.choice([-1.0, 1.0], size=(6, T, 1))
        u[[3, 5]] = 0.0
        x = rng.normal(size=(6, T, 1))
        y = x.copy()
        y[1] = np.roll(u[1], -3, axis=0)
        runs = [Dataset(u=u[r], y=y[r], x=x[r]) for r in range(6)]
        dm = build_data_matrices(Dataset(u=u, y=y, x=x), depth, width)

        with pytest.raises(ValueError, match="stacked input Hankel has numerical rank 0,") as exc:
            estimate_predictor(dm)
        np.testing.assert_array_equal(exc.value.failed, [False, False, False, True, False, True])
        for alg in ALGORITHMS:
            reasons, expect = Counter(), Counter()
            got = ddlqr.experiments._observe_runs(dm, alg, reasons)
            alone = []
            for data in runs:
                solo = build_data_matrices(data, depth, width)
                try:  # alg2 runs no predictor
                    alone.append((ddlqr.experiments._estimate(solo, alg)[1] if alg == "alg1" else
                                  ddlqr.experiments._stage("observability", estimate_obs_alg2,
                                                           solo)[0])[1:])
                except ValueError as err:
                    expect[ddlqr.experiments._reason(err)] += 1
            assert reasons == expect
            assert sum(expect.values()) == (3 if alg == "alg1" else 2)
            assert len(got) == len(alone) == 6 - sum(expect.values())
            for a, b in zip(got, alone):
                np.testing.assert_array_equal(a, b)


class TestHarmonicDistortion:
    """The THD that ``evaluate_closed_loop`` reports, and the rules it checks first."""

    def test_pure_sinusoid(self):
        k = np.arange(2000)
        y = np.sin(2 * np.pi * k / 100)
        assert ddlqr.experiments._tone(y[-1000:], 10)[1] == pytest.approx(0.0, abs=1e-12)

    def test_equal_third_harmonic(self):
        k = np.arange(2000)
        y = np.sin(2 * np.pi * k / 100) + np.sin(6 * np.pi * k / 100)
        assert ddlqr.experiments._tone(y[-1000:], 10)[1] == pytest.approx(1.0, rel=1e-9)

    @staticmethod
    def track(frequency: float, horizon: int):
        """A zero-gain sinusoid tracking run of the scalar plant at ``frequency`` rad/sample."""
        return evaluate_closed_loop(scalar_model(), np.zeros((1, 2)),
                                    LqrWeights(Q=np.eye(2), R=[[1.0]]),
                                    TrackingScenario(integrator_imc(), 1.0, frequency), horizon)

    def test_window_too_short(self):
        # 100 samples a period: the THD window is 1000 samples
        with pytest.raises(InputError, match="^horizon must be >= 1000, got 999$") as exc:
            self.track(2 * np.pi / 100, 999)
        assert exc.value.param == "horizon"
        assert "thd" in self.track(2 * np.pi / 100, 1000)

    def test_below_two_samples_per_period(self):
        # one sample per period leaves the window no fundamental bin: the frequency rule
        # (0, pi) refuses it, and a frequency of 0 or below, before the run
        for frequency in (2 * np.pi, np.pi, 0.0, -1.0):
            with pytest.raises(InputError, match=r"^frequency \* ts = .* must lie inside "
                                                 r"\(0, pi\)$") as exc:
                self.track(frequency, 1000)
            assert exc.value.param == "frequency"
        assert np.isfinite(ddlqr.experiments._tone(np.cos(np.pi * np.arange(50)), 25)[1])

    @pytest.mark.parametrize("ts, frequency", [(1 / 15000, 2 * np.pi * 15000 / 250.4),
                                               (1e-4, 120 * np.pi)], ids=["250.4", "166.67"])
    def test_perfect_tracking_reads_no_error(self, ts, frequency):
        # the tracking demo's loop, its resonance at the reference, with its Riccati gain
        # tracks exactly. 250.4 and 166 2/3 samples a period: windows of 10 periods of 2504
        # and 12 periods of 2000 samples hold whole periods, where 10 periods of 250 and 167
        # samples read a THD of 2.9e-3 and 3.8e-3 from leakage alone
        cfg = RunConfig.load(CONFIGS / "ups_tracking_demo.ini", [
            f"model.ts={ts!r}", f"imc.omega_n={frequency!r}", f"reference.frequency={frequency!r}"])
        model, weights = cfg.model(), cfg.weights()
        imc = cfg.imc(model.sample_time)
        loop = augment_model(model, imc)
        K = model_lqr_gain(loop, dare_solve(loop, weights), weights.R)
        scenario = TrackingScenario(imc, cfg.get("reference", "amplitude"), frequency)
        metrics = evaluate_closed_loop(model, K, weights, scenario, cfg.get("eval", "horizon"))
        assert metrics["thd"] < 1e-12 and metrics["steady_state_error"] < 1e-12


class TestEvaluateClosedLoop:
    def test_regulation_metrics(self):
        model = two_output_model()
        weights = reference_weights()
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        metrics = evaluate_closed_loop(model, K, weights, RegulationScenario(x0=[1.0, 1.0]), 500)
        assert metrics["spectral_radius"] < 1.0
        assert metrics["steady_state_error"] < 1e-10
        assert metrics["cost"] == pytest.approx(
            _cost(loop_closed_loop(model, K, [1.0, 1.0], 500), weights))

    def test_wrong_start_state_dimension_raises(self):
        model = two_output_model()
        weights = reference_weights()
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        with pytest.raises(InputError, match="x0 has 1 entries, expected 2 states"):
            evaluate_closed_loop(model, K, weights, RegulationScenario(x0=[1.0]), 500)

    def test_wrong_gain_shape_raises(self):
        # a 1 x 1 gain broadcasts against the 2-state, 1-input A - BK, so it must be
        # refused before the spectral radius, not reported as an unstable run
        model = StateSpaceModel(A=[[0.9, 0.1], [0.0, 0.8]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        weights = LqrWeights(Q=[[1.0]], R=[[1.0]])
        with pytest.raises(InputError, match=r"K has shape \(1, 1\), expected \(1, 2\)"):
            evaluate_closed_loop(model, np.zeros((1, 1)), weights,
                                 RegulationScenario(x0=[1.0, 0.0]), 50)
        scenario = TrackingScenario(integrator_imc())
        for K in (np.zeros((1, 1)), np.zeros((1, 2))):  # plant states only: no IMC state
            with pytest.raises(ValueError, match=r"expected \(1, 3\)"):
                evaluate_closed_loop(model, K, weights, scenario, 50)

    def test_weights_that_do_not_fit_raise(self):
        # refused before simulating, not reported as an infinite cost
        model = two_output_model()
        K = np.zeros((2, 2))
        for weights, message in ((LqrWeights(Q=[[1.0]], R=np.eye(2)), "Q has dimension 1, "
                                  "expected 2 \\(outputs, internal-model states included\\)"),
                                 (LqrWeights(Q=np.eye(2), R=[[1.0]]), "R has dimension 1, "
                                  "expected 2 \\(inputs\\)")):
            with pytest.raises(InputError, match=message):
                evaluate_closed_loop(model, K, weights, RegulationScenario(x0=[1.0, 1.0]), 50)
        model = StateSpaceModel(A=[[0.9, 0.1], [0.0, 0.8]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        scenario = TrackingScenario(integrator_imc())
        with pytest.raises(InputError, match=r"Q has dimension 1, expected 2 "
                           r"\(outputs, internal-model states included\)"):
            evaluate_closed_loop(model, np.zeros((1, 3)), LqrWeights(Q=[[1.0]], R=[[1.0]]),
                                 scenario, 50)

    def test_tracking_cost_matches_per_sample_loop(self):
        # pins the reference drive G r and the cost of the tracking branch
        model = two_output_model()
        imc = integrator_imc()
        weights = LqrWeights(Q=np.eye(4), R=0.1 * np.eye(2))
        K_a = 0.1 * np.arange(8.0).reshape(2, 4) - 0.3
        metrics = evaluate_closed_loop(model, K_a, weights, TrackingScenario(imc, 0.8), 60)
        expect = loop_tracking_loop(model, imc, K_a, np.full((60, 2), 0.8))
        assert metrics["cost"] == pytest.approx(_cost(expect, weights), rel=1e-12)
        assert metrics["steady_state_error"] == pytest.approx(
            np.abs(expect.y[-1, :2] - 0.8).max(), rel=1e-12)

    def test_empty_horizon_raises(self):
        # a run of no samples is an argument error, not an unstable run
        model = two_output_model()
        weights = reference_weights()
        with pytest.raises(InputError, match="^horizon must be >= 1, got 0$"):
            evaluate_closed_loop(model, np.zeros((2, 2)), weights,
                                 RegulationScenario(x0=[1.0, 1.0]), 0)

    def test_unstable_loop_is_a_metric(self):
        model = StateSpaceModel(A=[[1.2]], B=[[1.0]], C=[[1.0]])
        weights = LqrWeights(Q=[[1.0]], R=[[1.0]])
        metrics = evaluate_closed_loop(model, np.zeros((1, 1)), weights,
                                       RegulationScenario(x0=[1.0]), 4000)
        assert metrics["spectral_radius"] >= 1.0
        assert metrics["cost"] == np.inf and metrics["steady_state_error"] == np.inf
        # one sample: x = y = 1e100 and |y| are finite, but u = -1e300 x overflows
        metrics = evaluate_closed_loop(model, [[1e300]], weights, RegulationScenario(x0=[1e100]), 1)
        assert metrics["cost"] == np.inf and metrics["steady_state_error"] == np.inf
        # tracking: u = x_c drives the unstable plant away from rest
        metrics = evaluate_closed_loop(model, [[0.0, -1.0]], LqrWeights(Q=np.eye(2), R=[[1.0]]),
                                       TrackingScenario(integrator_imc()), 4000)
        assert metrics["spectral_radius"] >= 1.0
        assert metrics["cost"] == np.inf and metrics["steady_state_error"] == np.inf

    def test_tracking_metrics_fields(self):
        model = two_output_model()
        imc = integrator_imc()
        aug = augment_model(model, imc)
        weights = LqrWeights(Q=np.eye(4), R=0.1 * np.eye(2))
        K_a = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        metrics = evaluate_closed_loop(model, K_a, weights, TrackingScenario(imc), 400)
        assert metrics["spectral_radius"] < 1.0
        assert metrics["steady_state_error"] < 1e-6
        assert "thd" not in metrics

    def test_sinusoid_tracking_needs_thd_window(self):
        # 20 samples per reference period, so the amplitude and THD read the last 200
        model = two_output_model()
        imc = resonant_imc(2 * np.pi / 20, 1.0)
        aug = augment_model(model, imc)
        weights = LqrWeights(Q=np.eye(6), R=0.1 * np.eye(2))
        K_a = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)
        scenario = TrackingScenario(imc, 1.0, 2 * np.pi / 20)
        with pytest.raises(InputError, match="horizon must be >= 200, got 199"):
            evaluate_closed_loop(model, K_a, weights, scenario, 199)
        metrics = evaluate_closed_loop(model, K_a, weights, scenario, 200)
        assert metrics["spectral_radius"] < 1.0
        assert np.isfinite(metrics["cost"]) and np.isfinite(metrics["thd"])
        # every output is read, and the worst one reported: output 1's amplitude error
        # (0.048) is over four times output 0's (0.010)
        r = np.tile(np.sin(2 * np.pi / 20 * np.arange(200))[:, None], (1, 2))
        _, _, y = tracking_run(model, imc, K_a, r)
        amp, thd = zip(*(ddlqr.experiments._tone(y[:, i], 10) for i in range(2)))
        error = np.abs(np.array(amp) - 1.0)
        assert error[1] > 4 * error[0]
        assert metrics["steady_state_error"] == error.max()
        assert metrics["thd"] == max(thd)

    def test_metric_names_in_order(self):
        # eval.csv writes these rows as they come; only a finite sinusoid run has a thd
        names = ["cost", "spectral_radius", "steady_state_error"]
        step = TrackingScenario(integrator_imc())
        sine = TrackingScenario(integrator_imc(), 1.0, 2 * np.pi / 100)
        # the last run is unstable: u = x_c drives the plant away from rest
        for a, K, scenario, expect in (
                (0.5, [[0.0]], RegulationScenario(x0=[1.0]), names),
                (0.5, [[0.0, 0.0]], step, names),
                (0.5, [[0.0, 0.0]], sine, names + ["thd"]),
                (1.2, [[0.0, -1.0]], sine, names)):
            model = StateSpaceModel(A=[[a]], B=[[1.0]], C=[[1.0]])
            weights = LqrWeights(Q=np.eye(len(K[0])), R=[[1.0]])  # output, plus x_c if tracking
            assert list(evaluate_closed_loop(model, K, weights, scenario, 4000)) == expect

    def test_local_optimality_sampling(self):
        model = two_output_model()
        weights = reference_weights()
        K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        scenario = RegulationScenario(x0=[1.0, 1.0])
        J_star = evaluate_closed_loop(model, K_star, weights, scenario, 1000)["cost"]
        rng = np.random.default_rng(99)
        for _ in range(20):
            delta = rng.normal(size=(2, 2))
            delta *= 0.05 / np.linalg.norm(delta)
            K_pert = K_star @ (np.eye(2) + delta)
            J_pert = evaluate_closed_loop(model, K_pert, weights, scenario, 1000)["cost"]
            assert J_star <= J_pert + 1e-12
