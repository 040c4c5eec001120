import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import regulation_run, scalar_model, two_output_model
from oracles import loop_closed_loop
from ddlqr import (
    Dataset,
    InputError,
    RegulationScenario,
    SignalSpec,
    StateSpaceModel,
    dare_solve,
    evaluate_closed_loop,
    generate_signal,
    LqrWeights,
    model_lqr_gain,
    simulate,
    zoh_discretize,
)
from ddlqr.config import RunConfig
from ddlqr.plant_sim import _expm, _lfsr_jump, _lfsr_map

GAIN_LONG_HORIZON = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])


class TestSimulate:
    def test_scalar_hand_recursion(self):
        ds = simulate(scalar_model(), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(ds.x.ravel(), [0.0, 1.72, 0.2408], atol=1e-15)
        np.testing.assert_allclose(ds.y.ravel(), [0.0, 1.72, 0.2408], atol=1e-15)

    def test_zero_input_zero_dataset(self):
        ds = simulate(two_output_model(), np.zeros((10, 2)))
        assert not ds.u.any() and not ds.y.any() and not ds.x.any()

    def test_impulse_reads_markov_columns(self):
        model = two_output_model()
        u = np.zeros((3, 2))
        u[0, 0] = 1.0
        ds = simulate(model, u)
        CB = model.C @ model.B
        CAB = model.C @ model.A @ model.B
        np.testing.assert_allclose(ds.y[1], CB[:, 0], atol=1e-15)
        np.testing.assert_allclose(ds.y[2], CAB[:, 0], atol=1e-15)
        np.testing.assert_allclose(CAB, [[0.051, -0.0075], [0.004, -0.008]], atol=1e-15)

    def test_linearity(self):
        # in the input from rest, and in the start state through the zero-gain regulation loop
        model = two_output_model()
        rng = np.random.default_rng(0)
        u = rng.normal(size=(50, 2))
        x0 = rng.normal(size=2)
        a = 3.7
        base = simulate(model, u)
        scaled = simulate(model, a * u)
        np.testing.assert_allclose(scaled.x, a * base.x, rtol=1e-12)
        free = regulation_run(model, np.zeros((2, 2)), x0, 50)[0]
        np.testing.assert_allclose(regulation_run(model, np.zeros((2, 2)), a * x0, 50)[0],
                                   a * free, rtol=1e-12)

    def test_superposition(self):
        model = two_output_model()
        rng = np.random.default_rng(1)
        u1, u2 = rng.normal(size=(60, 2)), rng.normal(size=(60, 2))
        y1 = simulate(model, u1).y
        y2 = simulate(model, u2).y
        y12 = simulate(model, u1 + u2).y
        np.testing.assert_allclose(y12, y1 + y2, rtol=1e-12, atol=1e-12)

    def test_noise_modes(self):
        model = scalar_model(with_noise=True)
        rng = np.random.default_rng(2)
        u = rng.normal(size=10)
        v = rng.normal(size=10)
        proc = simulate(model, u, v=v, noise_mode="process")
        meas = simulate(model, u, v=v, noise_mode="measurement")
        clean = simulate(model, u)
        # measurement mode: white noise sits directly on the recorded state
        np.testing.assert_allclose(meas.x, clean.x + v[:, None], atol=1e-15)
        # process mode: noise accumulates through the recursion
        expect = clean.x.copy()
        for k in range(9):
            expect[k + 1] = 0.14 * expect[k] + 1.72 * u[k] + v[k]
        np.testing.assert_allclose(proc.x, expect, atol=1e-12)

    def test_dimension_errors(self):
        model = two_output_model()
        with pytest.raises(InputError, match="^u has 3 channels, expected 2 to match B$") as exc:
            simulate(model, np.zeros((5, 3)))
        assert exc.value.param == "u"
        with pytest.raises(InputError, match="^u has 1 channels, expected 2") as exc:
            simulate(model, np.zeros((4, 5, 1)))
        with pytest.raises(InputError, match="^E must be set: the state noise enters") as exc:
            simulate(model, np.zeros((5, 2)), v=np.zeros(5))
        assert exc.value.param == "E"
        noisy = scalar_model(with_noise=True)
        with pytest.raises(ValueError, match=r"v has shape \(4, 1\), expected \(5, 1\)"):
            simulate(noisy, np.zeros(5), v=np.zeros(4))
        with pytest.raises(ValueError, match=r"v has shape \(2, 5, 1\), expected \(3, 5, 1\)"):
            simulate(noisy, np.zeros((3, 5, 1)), v=np.zeros((2, 5, 1)))

    def test_scalar_series_are_refused(self):
        # 1-D series are one channel and arrays of more dimensions batch records, but a
        # scalar is no series
        with pytest.raises(ValueError, match="^signal must be a series, got a scalar$"):
            simulate(scalar_model(), 1.0)
        with pytest.raises(ValueError, match="^signal must be a series, got a scalar$"):
            Dataset(u=np.zeros(5), y=0.0, x=np.zeros(5))

    @pytest.mark.parametrize("name", ["u", "y", "x"])
    def test_series_without_channels_are_refused(self, name):
        # a dataset needs an input, an output and a state channel; the estimators would
        # otherwise index into an empty series
        series = {k: np.zeros((5, 0 if k == name else 1)) for k in "uyx"}
        with pytest.raises(ValueError, match=f"^series {name} has no channels$"):
            Dataset(**series)

    def test_misspelt_noise_mode_raises(self):
        # a misspelt mode would otherwise leave the noise out of the record
        model = scalar_model(with_noise=True)
        with pytest.raises(ValueError, match="^noise_mode must be 'process' or 'measurement', "
                                             "got 'measurment'$"):
            simulate(model, np.zeros(5), v=np.ones(5), noise_mode="measurment")

    @pytest.mark.parametrize("mode", ["process", "measurement"])
    def test_overflowing_record_is_a_simulation_error(self, mode):
        # 40^192 > 1.8e308; the numpy warnings of the overflow are errors in this suite
        model = StateSpaceModel(A=[[40.0]], B=[[1.0]], C=[[1.0]], E=[[1.0]])
        simulate(model, np.ones(192), v=np.zeros(192), noise_mode=mode)
        with pytest.raises(ValueError,
                           match=r"^simulation: the open-loop record overflows in 250 samples$"):
            simulate(model, np.ones(250), v=np.zeros(250), noise_mode=mode)

    @pytest.mark.parametrize("mode", ["process", "measurement"])
    def test_non_finite_input_is_named_not_called_an_overflow(self, mode):
        # a plain ValueError: the InputError on u names [signal] channels in the CLI
        model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], E=[[1.0]])
        for name, bad in (("u", np.nan), ("u", np.inf), ("v", np.nan), ("v", np.inf)):
            series = {"u": np.ones(10), "v": np.zeros(10)}
            series[name][3] = bad
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$") as exc:
                simulate(model, series["u"], v=series["v"], noise_mode=mode)
            assert not isinstance(exc.value, InputError)


class TestClosedLoop:
    def test_zero_gain_matches_open_loop(self):
        # the per-sample regulation loop under a zero gain is the open loop from x0
        model = two_output_model()
        x0 = np.array([1.0, -2.0])
        x, u, y = regulation_run(model, np.zeros((2, 2)), x0, 20)
        ol = loop_closed_loop(model, np.zeros((2, 2)), x0, 20)
        np.testing.assert_allclose(x, ol.x, atol=1e-15)
        np.testing.assert_allclose(y, ol.y, atol=1e-15)
        assert not u.any() and not ol.u.any()

    def test_scalar_deadbeat(self):
        model = scalar_model()
        K = np.array([[0.14 / 1.72]])
        x, _, _ = regulation_run(model, K, [1.0], 5)
        np.testing.assert_allclose(x.ravel(), [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_reference_gain_stabilizes(self):
        model = two_output_model()
        A_cl = model.A - model.B @ GAIN_LONG_HORIZON
        assert np.abs(np.linalg.eigvals(A_cl)).max() < 1.0
        x, _, _ = regulation_run(model, GAIN_LONG_HORIZON, [1.0, 1.0], 300)
        assert np.abs(x[-1]).max() < 1e-8


class TestGenerateSignal:
    def test_prbs_levels_and_autocorrelation(self):
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, seed=5)
        sig = generate_signal(spec)[:, 0]
        assert set(np.unique(sig)) == {-1.0, 1.0}
        # over a full register period the autocorrelation is flat off lag 0
        full = generate_signal(SignalSpec(kind="prbs", length=1023, amplitude=1.0, seed=5))[:, 0]
        corr = np.correlate(np.tile(full, 2), full, mode="valid")[:-1] / full.size
        assert corr[0] == pytest.approx(1.0)
        assert np.abs(corr[1:]).max() < 2.0 / 1023

    def test_white_noise_variance_band(self):
        spec = SignalSpec(kind="white-noise", length=1022, variance=0.1, seed=1)
        sig = generate_signal(spec)
        assert 0.08 <= sig.var() <= 0.12

    def test_sinusoid_formula(self):
        spec = SignalSpec(kind="sinusoid", length=100, amplitude=127 * np.sqrt(2),
                          frequency=120 * np.pi, sample_time=1 / 15000)
        sig = generate_signal(spec)[:, 0]
        k = np.arange(100)
        np.testing.assert_allclose(
            sig, 127 * np.sqrt(2) * np.sin(120 * np.pi * k / 15000), atol=1e-12)

    @pytest.mark.parametrize("kind", ["white-noise", "sinusoid", "constant", "zero"])
    def test_every_kind_batches_one_run_per_seed(self, kind):
        spec = SignalSpec(kind=kind, length=30, amplitude=0.7, variance=0.5, frequency=0.3,
                          channels=2)
        seeds = [4, 0, 4, 2 ** 31 - 1]
        batch = generate_signal(spec, seeds)
        assert batch.shape == (4, 30, 2)
        for seed, run in zip(seeds, batch):
            assert np.array_equal(run, generate_signal(replace(spec, seed=seed)))
        assert (kind == "white-noise") == (not np.array_equal(batch[0], batch[1]))

    def test_determinism(self):
        spec = SignalSpec(kind="prbs", length=500, seed=9, channels=2)
        np.testing.assert_array_equal(generate_signal(spec), generate_signal(spec))
        noise = SignalSpec(kind="white-noise", length=500, variance=1.0, seed=9)
        np.testing.assert_array_equal(generate_signal(noise), generate_signal(noise))

    def test_hold_stretches_chips(self):
        spec = SignalSpec(kind="prbs", length=20, seed=3, hold=4)
        sig = generate_signal(spec)[:, 0]
        for start in range(0, 20, 4):
            assert len(set(sig[start:start + 4])) == 1

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="unsupported signal kind"):
            SignalSpec(kind="sawtooth", length=10)

    def test_rejects_register_order_and_seed_out_of_range(self):
        for order in (1, 33, 40):
            with pytest.raises(ValueError, match="register_order must be between 2 and 32"):
                SignalSpec(kind="prbs", length=10, register_order=order)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SignalSpec(kind="prbs", length=10, seed=-1)

    def test_prbs_leaves_scipy_signal_unimported(self, tmp_path):
        # Every command runs on numpy alone: scipy costs import time and wakes a second
        # OpenBLAS thread pool, and numpy.ma costs import time (np.unique loads it).
        root = Path(__file__).resolve().parent.parent
        tracking = ["--set", "signal.length=800", "--set", "estimation.depth=30",
                    "--set", "estimation.width=400", "--set", "lqr.horizon=30",
                    "--set", "eval.horizon=2500", "--set", f"io.gain={tmp_path}/gain.csv"]
        commands = [[command, str(root / "configs" / config), "--output-dir", str(tmp_path)] + extra
                    for command, config, extra in (
                        ("design", "ups_tracking_demo.ini", tracking),
                        ("eval", "ups_tracking_demo.ini", tracking),
                        ("sweep", "regulation_demo.ini", []),
                        ("montecarlo", "noisy_estimation_mc.ini", ["--set", "montecarlo.runs=20"]))]
        code = ("import sys, ddlqr.cli\n"
                "from ddlqr import SignalSpec, generate_signal\n"
                "generate_signal(SignalSpec(kind='prbs', length=100, channels=2))\n"
                "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
                f"for argv in {commands!r}:\n"
                "    assert ddlqr.cli.main(argv) == 0, argv\n"
                "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
                "          or m == 'numpy.ma' or m.startswith('numpy.ma.')]\n"
                "assert not loaded, f'imported {loaded}'\n")
        src = str(root / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestMaxLenSeq:
    """The in-house register against ``scipy.signal.max_len_seq`` as the oracle."""

    def test_every_order_matches_scipy(self):
        from scipy.signal import max_len_seq

        rng = np.random.default_rng(17)
        for order in range(2, 33):
            period = 2 ** order - 1
            lengths = [0, 1, order, 341, 1000] + ([period, period + 1, 3 * period + 2]
                                                   if order <= 10 else [])
            for length in lengths:
                state = rng.integers(0, 2, size=order)
                state[rng.integers(order)] = 1
                out = _lfsr_map(order, length) @ state & 1
                bits, final = out[:length], out[length:]
                want_bits, want_final = max_len_seq(order, state=state, length=length)
                np.testing.assert_array_equal(bits, want_bits)
                np.testing.assert_array_equal(final, want_final)
                np.testing.assert_array_equal(_lfsr_jump(order, length) @ state & 1, want_final)

    def test_long_register_channels_jump_without_the_sequence(self):
        # channel 2 starts 2^31 - 1 steps on; the jump is 31 squarings of a 32 x 32 map
        spec = SignalSpec(kind="prbs", length=50, seed=4, register_order=32, channels=2)
        sig = generate_signal(spec)
        one = generate_signal(replace(spec, channels=1))
        np.testing.assert_array_equal(sig[:, :1], one)
        state = (sig[:32, 1] > 0).astype(int)
        np.testing.assert_array_equal(_lfsr_jump(32, 2 ** 32 - 1) @ state & 1, state)

    def test_full_period_from_ones(self):
        from scipy.signal import max_len_seq

        for order in (2, 5, 12):
            out = _lfsr_map(order, 2 ** order - 1) @ np.ones(order, dtype=int) & 1
            bits, final = out[:-order], out[-order:]
            np.testing.assert_array_equal(bits, max_len_seq(order)[0])
            np.testing.assert_array_equal(final, np.ones(order))


    @pytest.mark.parametrize("order", [2, 10, 32])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("hold", [1, 3])
    def test_batched_runs_match_each_seed_alone(self, order, channels, hold):
        # 100 samples: 34 chips of 3, the last one cut short
        spec = SignalSpec(kind="prbs", length=100, amplitude=0.7, register_order=order,
                          channels=channels, hold=hold)
        seeds = [0, 1, 5, 2 ** 31 - 1, 12345, 5]
        batch = generate_signal(spec, seeds)
        assert batch.shape == (len(seeds), 100, channels)
        for seed, run in zip(seeds, batch):
            assert np.array_equal(run, generate_signal(replace(spec, seed=seed)))


class TestZohDiscretize:
    def test_zero_dynamics(self):
        model = zoh_discretize(np.zeros((2, 2)), np.eye(2), np.eye(2), 0.5)
        np.testing.assert_allclose(model.A, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(model.B, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar_closed_form(self):
        model = zoh_discretize([[-1.0]], [[1.0]], [[1.0]], 1.0)
        np.testing.assert_allclose(model.A, [[np.exp(-1)]], rtol=1e-12)
        np.testing.assert_allclose(model.B, [[1 - np.exp(-1)]], rtol=1e-12)

    def test_diagonalizable_exactness(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            V = rng.normal(size=(n, n)) + np.eye(n)
            lam = rng.uniform(-3.0, -0.1, size=n)
            Ac = V @ np.diag(lam) @ np.linalg.inv(V)
            Ts = float(rng.uniform(0.05, 0.5))
            model = zoh_discretize(Ac, rng.normal(size=(n, 1)), np.eye(n), Ts)
            A_expect = V @ np.diag(np.exp(lam * Ts)) @ np.linalg.inv(V)
            np.testing.assert_allclose(model.A, A_expect, rtol=1e-10, atol=1e-12)

    def test_surrogate_converter_plant_is_stable(self):
        # demo parameters: 1 mH / 0.05 ohm filter inductor, 300 uF capacitor,
        # unity modulator gain, 1/6 S linear load
        Ac = [[-50.0, -1000.0], [10000.0 / 3.0, -1 / 6 / 300e-6]]
        Bc = [[1000.0], [0.0]]
        model = zoh_discretize(Ac, Bc, [[0.0, 1.0]], 1.0 / 15000.0)
        assert np.abs(np.linalg.eigvals(model.A)).max() < 1.0


class TestExpm:
    """The scaling-and-squaring exponential against ``scipy.linalg.expm`` as the oracle."""

    def test_tracking_demo_block_matches_scipy(self):
        from scipy.linalg import expm

        cfg = RunConfig.load(Path(__file__).resolve().parent.parent / "configs" / "ups_tracking_demo.ini")
        Ac, Bc = cfg.get("model", "a"), cfg.get("model", "b")
        M = np.block([[Ac, Bc], [np.zeros((1, 3))]]) * cfg.get("model", "ts")
        want = expm(M)
        assert np.abs(_expm(M) - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=150)
    @given(st.integers(1, 5).flatmap(lambda n: arrays(np.float64, (n, n), elements=st.floats(-1, 1))),
           st.floats(0, 20))
    def test_small_matrices_match_scipy(self, M, norm):
        from scipy.linalg import expm

        size = np.abs(M).sum(axis=0).max()
        M = M / size * norm if size > 0 else M  # entries of M / size stay within [-1, 1]
        want = expm(M)
        assert np.abs(_expm(M) - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_and_nilpotent_are_exact(self):
        for n in (1, 2, 5):
            np.testing.assert_array_equal(_expm(np.zeros((n, n))), np.eye(n))
        # N^3 = 0, so exp(N) = I + N + N^2 / 2; scaling by 2^-5 and squaring stay dyadic
        N = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(_expm(N), [[1.0, 1.0, 3.5], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])


class TestCost:
    """The cost sum_k y'Qy + u'Ru that ``evaluate_closed_loop`` reports."""

    def test_zero_dataset(self):
        # from x0 = 0 the run stays at zero, whatever the gain
        weights = LqrWeights(Q=[[1.0]], R=[[1.0]])
        metrics = evaluate_closed_loop(scalar_model(), [[0.5]], weights,
                                       RegulationScenario(x0=[0.0]), 5)
        assert metrics.cost == 0.0

    def test_single_step(self):
        # one sample: y = x0 = 1 and u = -K x0 = 1
        weights = LqrWeights(Q=[[20.0]], R=[[0.2]])
        metrics = evaluate_closed_loop(scalar_model(), [[-1.0]], weights,
                                       RegulationScenario(x0=[1.0]), 1)
        assert metrics.cost == pytest.approx(20.2)

    def test_optimal_gain_beats_scaled_gain(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        scenario = RegulationScenario(x0=[1.0, 1.0])
        J_opt = evaluate_closed_loop(model, K, weights, scenario, 500).cost
        J_scaled = evaluate_closed_loop(model, 1.1 * K, weights, scenario, 500).cost
        assert J_opt <= J_scaled

    def test_dimension_checks(self):
        # two inputs, one output: a Q sized for the inputs does not fit
        model = StateSpaceModel(A=[[0.5]], B=[[1.0, 1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match=r"Q has dimension 2, expected 1 "
                           r"\(outputs, internal-model states included\)"):
            evaluate_closed_loop(model, np.zeros((2, 1)), LqrWeights(Q=np.eye(2), R=np.eye(2)),
                                 RegulationScenario(x0=[1.0]), 5)
