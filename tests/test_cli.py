import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import UPS_SMALL_SETS, first_run_anticipates
import ddlqr.cli
import ddlqr.experiments
import ddlqr.markov
from ddlqr import (
    Dataset,
    InputError,
    RegulationScenario,
    SignalSpec,
    StateSpaceModel,
    TrackingScenario,
    convergence_sweep,
    dare_solve,
    estimate,
    evaluate_closed_loop,
    generate_signal,
    model_lqr_gain,
    monte_carlo_obs,
    simulate,
    synthesize,
)
from ddlqr.cli import INPUT_KEYS, main
from ddlqr.config import RunConfig
from ddlqr.storage import read_dataset, read_matrix, write_dataset, write_matrix

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REGULATION = str(CONFIGS / "regulation_demo.ini")
UPS = str(CONFIGS / "ups_tracking_demo.ini")
MC = str(CONFIGS / "noisy_estimation_mc.ini")

GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])
UPS_SMALL = [arg for item in UPS_SMALL_SETS for arg in ("--set", item)]

# a three-state, one-output plant on the regulation demo's signal, at depth 2
THREE_STATES = ["model.a=[[0.5,0.1,0],[0,0.4,0.2],[0.1,0,0.3]]", "model.b=[[1],[0.5],[0.2]]",
                "model.c=[[1,0.3,0.2]]", "lqr.q=[[20]]", "lqr.r=[[0.2]]", "estimation.depth=2",
                "lqr.horizon=2", "sweep.horizons=[2]"]

# the regulation demo evaluated from a start state
REGULATION_EVAL = ["eval.x0=[1,1]", "eval.horizon=100"]

# the diagnostics that design.txt reports, in its sorted order
DIAGNOSTIC_KEYS = ["algorithm", "cond_bracket", "cond_inner", "input_rank", "input_rank_margin",
                   "obs_residual", "regressor_rank"]

# the Monte Carlo study on the same three-state plant at depth 2
THREE_STATES_MC = THREE_STATES[:3] + ["model.e=[[1],[0],[0]]", "estimation.depth=2",
                                      "montecarlo.runs=5"]


def run(*argv):
    return main(list(argv))


def three_state_record() -> Dataset:
    """A record of a three-state plant with the regulation demo's two inputs and two
    outputs, under the demo's signal."""
    plant = StateSpaceModel(A=np.diag([0.5, 0.4, 0.3]), B=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                            C=[[1.0, 0.0, 0.5], [0.0, 1.0, 0.2]])
    spec = SignalSpec(kind="prbs", length=1022, seed=7, channels=2)
    return simulate(plant, generate_signal(spec))


def regulation_record() -> Dataset:
    """The regulation demo's own simulated record."""
    cfg = RunConfig.load(REGULATION)
    model = cfg.model()
    return simulate(model, generate_signal(cfg.signal(model)))


def never_factored(monkeypatch):
    """Fail the test if any Hankel data are stacked to be factored, that is, once
    estimation starts."""
    monkeypatch.setattr(ddlqr.markov, "hankel_stack", lambda *args: pytest.fail("factored"))


class TestSimulate:
    def test_writes_dataset(self, tmp_path):
        assert run("simulate", REGULATION, "--output-dir", str(tmp_path)) == 0
        text = (tmp_path / "dataset.csv").read_text().splitlines()
        assert text[0] == "k,u1,u2,y1,y2,x1,x2"
        assert len(text) == 1 + 1022
        assert (tmp_path / "config_echo.ini").exists()

    def test_deterministic_bytes(self, tmp_path):
        run("simulate", REGULATION, "--output-dir", str(tmp_path / "a"))
        run("simulate", REGULATION, "--output-dir", str(tmp_path / "b"))
        assert (tmp_path / "a/dataset.csv").read_bytes() == (tmp_path / "b/dataset.csv").read_bytes()

    def test_ragged_matrix_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[model]\na = [[1.0, 0.15], [-0.2]]\nb = [[1.0], [0.0]]\nc = [[1.0, 0.0]]\n"
            "[signal]\nkind = prbs\nlength = 100\n"
        )
        assert run("simulate", str(bad), "--output-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == "config error: [model] a has ragged rows of lengths [1, 2]\n"

    def test_round_trip_identity(self, tmp_path):
        run("simulate", REGULATION, "--output-dir", str(tmp_path))
        ds = read_dataset(tmp_path / "dataset.csv")
        write_dataset(tmp_path / "copy.csv", ds)
        assert (tmp_path / "copy.csv").read_bytes() == (tmp_path / "dataset.csv").read_bytes()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("DDLQR_OUTPUT_DIR", str(target))
        assert run("simulate", REGULATION) == 0
        assert (target / "dataset.csv").exists()

    def test_echo_reproduces_run(self, tmp_path):
        run("simulate", REGULATION, "--output-dir", str(tmp_path / "a"),
            "--set", f"io.dataset={tmp_path}/a/dataset.csv")
        run("simulate", str(tmp_path / "a" / "config_echo.ini"),
            "--output-dir", str(tmp_path / "b"),
            "--set", f"io.dataset={tmp_path}/b/dataset.csv")
        assert (tmp_path / "a/dataset.csv").read_bytes() == (tmp_path / "b/dataset.csv").read_bytes()

    def test_white_noise_has_std_amplitude(self, tmp_path):
        # the demo's amplitude = 1.0 is the white noise's standard deviation: a record of
        # zeros would excite nothing
        assert run("simulate", REGULATION, "--output-dir", str(tmp_path),
                   "--set", "signal.kind=white-noise") == 0
        data = read_dataset(tmp_path / "dataset.csv")
        assert data.n_samples == 1022 and data.x.any(axis=0).all()
        np.testing.assert_allclose(data.u.std(axis=0), [1.0, 1.0], atol=0.1)

    def test_existing_dataset_is_simulated_anew(self, tmp_path):
        # simulate writes [io] dataset: a file already there is replaced, never read
        target = f"io.dataset={tmp_path}/d.csv"
        assert run("simulate", REGULATION, "--output-dir", str(tmp_path / "a"),
                   "--set", target) == 0
        first = (tmp_path / "d.csv").read_bytes()
        assert run("simulate", REGULATION, "--output-dir", str(tmp_path / "b"),
                   "--set", target, "--set", "signal.seed=99") == 0
        second = (tmp_path / "d.csv").read_bytes()
        assert second != first
        assert run("simulate", str(tmp_path / "b" / "config_echo.ini"), "--output-dir",
                   str(tmp_path / "c"), "--set", f"io.dataset={tmp_path}/c.csv") == 0
        assert (tmp_path / "c.csv").read_bytes() == second


class TestDesign:
    def test_end_to_end_gain(self, tmp_path):
        assert run("design", REGULATION, "--output-dir", str(tmp_path)) == 0
        K = read_matrix(tmp_path / "gain.csv")
        np.testing.assert_allclose(K, GAIN_LONG, atol=1e-3)
        report = (tmp_path / "design.txt").read_text()
        assert "algorithm" in report
        margin = [l for l in report.splitlines() if l.startswith("input_rank_margin: ")]
        assert len(margin) == 1 and float(margin[0].split(": ")[1]) > 1.0

    @pytest.mark.parametrize("config, sets", [
        (REGULATION, ["--set", "estimation.algorithm=alg1"]),
        (REGULATION, ["--set", "estimation.algorithm=alg2"]), (UPS, UPS_SMALL),
    ], ids=["alg1", "alg2", "tracking"])
    def test_report_has_the_diagnostic_keys(self, tmp_path, monkeypatch, config, sets):
        designs = []
        monkeypatch.setattr(ddlqr.cli, "synthesize",
                            lambda *args: designs.append(synthesize(*args)) or designs[-1])
        assert run("design", config, "--output-dir", str(tmp_path), *sets) == 0
        report = (tmp_path / "design.txt").read_text().split("\n\n")[0].splitlines()
        assert [line.split(": ")[0] for line in report[1:]] == DIAGNOSTIC_KEYS
        assert sorted(designs[0][1]) == DIAGNOSTIC_KEYS
        # plain Python scalars, as a JSON encoder needs them
        assert {type(v) for v in designs[0][1].values()} <= {int, float, str}

    def test_short_record_exits_2(self, tmp_path, capsys, monkeypatch):
        # 2*depth + width - 1 samples and (2p + q) * depth = 306 columns at depth 51
        never_factored(monkeypatch)
        for sets, message in (
            (["signal.length=80"], "[estimation] depth 51 needs 2*depth = 102 samples for one"
             " column, the record has 80"),
            (["estimation.width=2000"], "[estimation] width 2000 at depth 51 needs"
             " 2*depth + width - 1 = 2101 samples, the record has 1022"),
            (["estimation.width=305"], "[estimation] width 305 must be >= (2p + q) * depth = 306"),
        ):
            code = run("design", REGULATION, "--output-dir", str(tmp_path / "out"),
                       *(arg for item in sets for arg in ("--set", item)))
            assert code == 2, sets
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_imc_states_count_toward_the_width(self, tmp_path, capsys, monkeypatch):
        # one output and two resonant states: (2*1 + 3) * 30 = 150 columns
        never_factored(monkeypatch)
        code = run("design", UPS, "--output-dir", str(tmp_path / "out"), *UPS_SMALL,
                   "--set", "estimation.width=140")
        assert code == 2
        assert ("config error: [estimation] width 140 must be >= (2p + q) * depth = 150 at "
                "depth 30 (p = 1 inputs, q = 3 outputs)") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_depth_below_state_count_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # q*depth = 2 past outputs cannot determine 3 states: the gain would be biased
        never_factored(monkeypatch)
        code = run(command, REGULATION, "--output-dir", str(tmp_path / "out"),
                   *(arg for item in THREE_STATES for arg in ("--set", item)))
        assert code == 2
        assert ("config error: [estimation] depth 2 gives q*depth = 2 past outputs, too few to "
                "determine the 3 states (q = 1 outputs)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_depth_counts_imc_states_as_outputs_and_states(self, tmp_path):
        # the integrator adds one output and one state: 2*2 rows for 4 states
        sets = THREE_STATES + ["imc.kind=integrator", "lqr.q=[[20,0],[0,20]]"]
        assert run("design", REGULATION, "--output-dir", str(tmp_path / "out"),
                   *(arg for item in sets for arg in ("--set", item))) == 0
        assert read_matrix(tmp_path / "out" / "gain.csv").shape == (1, 4)

    def test_algorithm_flag_agreement(self, tmp_path):
        run("design", REGULATION, "--output-dir", str(tmp_path / "a1"),
            "--set", "estimation.algorithm=alg1")
        run("design", REGULATION, "--output-dir", str(tmp_path / "a2"),
            "--set", "estimation.algorithm=alg2")
        k1 = read_matrix(tmp_path / "a1/gain.csv")
        k2 = read_matrix(tmp_path / "a2/gain.csv")
        np.testing.assert_allclose(k1, k2, atol=1e-6)

    def test_unidentifiable_dataset_exits_1(self, tmp_path, capsys):
        # y_t = u_{t+4}: the past outputs repeat the future inputs at depth 4
        u = np.random.default_rng(0).normal(size=(204, 1))
        write_dataset(tmp_path / "data.csv", Dataset(u=u[:200], y=u[4:], x=u[1:201]))
        cfg = tmp_path / "anticipating.ini"
        cfg.write_text(
            "[model]\na = 0.5\nb = 1.0\nc = 1.0\n"
            "[estimation]\ndepth = 4\n"
            "[lqr]\nq = 1.0\nr = 1.0\nhorizon = 4\n"
            f"[io]\ndataset = {tmp_path}/data.csv\n"
        )
        assert run("design", str(cfg), "--output-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "markov-estimation: future inputs not identifiable: they lie" in err
        assert "Traceback" not in err

    def test_bogus_noise_mode_exits_2(self, tmp_path, capsys):
        code = run("design", REGULATION, "--output-dir", str(tmp_path),
                   "--set", "noise.mode=bogus")
        assert code == 2
        assert "[noise] mode" in capsys.readouterr().err

    def test_removed_structure_key_exits_2(self, tmp_path, capsys):
        for command, config in (("design", REGULATION), ("sweep", REGULATION),
                                ("montecarlo", MC)):
            code = run(command, config, "--output-dir", str(tmp_path),
                       "--set", "estimation.structure=first-column",
                       "--set", "montecarlo.runs=2")
            assert code == 2
            assert "[estimation] structure" in capsys.readouterr().err

    def test_removed_output_noise_key_exits_2(self, tmp_path, capsys):
        for command, config, f in (("design", REGULATION, "[[1.0], [0.0]]"),
                                   ("montecarlo", MC, "1.0")):
            code = run(command, config, "--output-dir", str(tmp_path),
                       "--set", f"model.f={f}", "--set", "montecarlo.runs=2")
            assert code == 2, command
            assert "[model] f is no longer supported" in capsys.readouterr().err
            assert not list(tmp_path.iterdir()), command

    def test_negative_noise_variance_exits_2(self, tmp_path, capsys):
        for command, config in (("design", REGULATION), ("simulate", MC)):
            code = run(command, config, "--output-dir", str(tmp_path),
                       "--set", "noise.variance=-1", "--set", f"io.dataset={tmp_path}/d.csv")
            assert code == 2
            assert "[noise] variance must be >= 0" in capsys.readouterr().err

    def test_bad_signal_register_order_and_seed_exit_2(self, tmp_path, capsys):
        for setting, key in (("signal.register_order=40", "register_order"),
                             ("signal.register_order=33", "register_order"),
                             ("signal.register_order=1", "register_order"),
                             ("signal.seed=-1", "seed")):
            code = run("design", REGULATION, "--output-dir", str(tmp_path), "--set", setting)
            assert code == 2, setting
            err = capsys.readouterr().err
            assert err.startswith(f"config error: [signal] {key} must be"), err

    @pytest.mark.parametrize("text, message", [
        ("k,u1,y1,x1\n0,1,2\n", "expected 4 fields, got 3"),
        ("k,u1,y1,x1\n0,1,2,x\n", "could not convert string to float: 'x'"),
        ("k,u1,y1,x1\n0,1,nan,2\n1,1,1,1\n", "y contains non-finite entries"),
        ("u1,y1\n1,2\n", "expected a dataset CSV header"),
        ("k,u1,u2,y1,y2\n0,1,2,3,4\n", "x has no channels"),
        # the columns are read by position, so any other names or order would misread them
        ("k,y1,y2,u1,u2,x1,x2\n0,1,2,3,4,5,6\n",
         "expected k,u1..up,y1..yq,x1..xn: k,u1,u2,y1,y2,x1,x2"),
        ("k,u1,y1,x1,x_extra\n0,1,2,3,4\n", "expected k,u1..up,y1..yq,x1..xn: k,u1,y1,x1,x2"),
    ], ids=["ragged", "non-numeric", "nan", "header", "no-states", "reordered", "misnamed-state"])
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "data.csv").write_text(text)
        code = run("design", REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", f"io.dataset={tmp_path}/data.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [io] dataset") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_missing_dataset_file_exits_2(self, tmp_path, capsys, command):
        # only simulate writes [io] dataset; the others must not simulate in its place
        code = run(command, REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", f"io.dataset={tmp_path}/no_such.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [io] dataset") and "no_such.csv" in err, err
        assert not (tmp_path / "out").exists()

    def test_horizon_above_depth_exits_2(self, tmp_path, capsys):
        code = run("design", REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", "lqr.horizon=60")
        assert code == 2
        assert ("config error: [lqr] horizon 60 must be <= depth 51"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_weight_size_exits_2_before_estimation(self, tmp_path, capsys, monkeypatch):
        # the integrator adds one state per output; the file's Q fits the resonant pair
        monkeypatch.setattr(ddlqr.cli, "estimate", None)
        config = tmp_path / "ups_integrator.ini"  # an integrator refuses omega_n
        config.write_text("".join(line for line in Path(UPS).read_text().splitlines(True)
                                  if not line.startswith("omega_n")))
        code = run("design", str(config), "--output-dir", str(tmp_path / "out"),
                   "--set", "imc.kind=integrator")
        assert code == 2
        assert ("config error: [lqr] q has dimension 3, expected 2 "
                "(outputs, internal-model states included)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integrator_with_omega_n_exits_2(self, tmp_path, capsys, monkeypatch):
        # an integrator has no frequency, so a stale omega_n would look as if it took effect
        monkeypatch.setattr(ddlqr.cli, "estimate", None)
        write_matrix(tmp_path / "gain.csv", np.zeros((1, 3)))
        sets = ["imc.kind=integrator", "lqr.q=[[200,0],[0,200]]", "sweep.horizons=[50]",
                f"io.gain={tmp_path}/gain.csv"]
        for command in ("design", "sweep", "eval"):
            code = run(command, UPS, "--output-dir", str(tmp_path / "out"),
                       *(arg for item in sets for arg in ("--set", item)))
            assert code == 2, command
            assert capsys.readouterr().err == ("config error: [imc] omega_n is not read by "
                                               "kind = integrator; remove the key\n"), command
            assert not (tmp_path / "out").exists(), command

    def test_design_from_dataset_file(self, tmp_path):
        run("simulate", REGULATION, "--output-dir", str(tmp_path),
            "--set", f"io.dataset={tmp_path}/dataset.csv")
        code = run("design", REGULATION, "--output-dir", str(tmp_path / "d"),
                   "--set", f"io.dataset={tmp_path}/dataset.csv")
        assert code == 0
        np.testing.assert_allclose(read_matrix(tmp_path / "d/gain.csv"), GAIN_LONG, atol=1e-3)


class TestSweep:
    def test_sweep_table(self, tmp_path):
        assert run("sweep", REGULATION, "--output-dir", str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "horizon,gain_error"
        rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert rows[50] < rows[10]

    def test_malformed_horizons_exit_2(self, tmp_path, capsys):
        for horizons in ("[1,10]", "[]", "[10,true]", "[10,20.5]", "10"):
            code = run("sweep", REGULATION, "--output-dir", str(tmp_path),
                       "--set", f"sweep.horizons={horizons}")
            assert code == 2, horizons
            assert "[sweep] horizons" in capsys.readouterr().err

    def test_unexcited_states_report_their_singular_value_ratio(self, tmp_path, capsys):
        # rho(A) = 1.03: over the open-loop record the states grow so far that the
        # snapshot's smallest singular value falls below PINV_TOL times its largest
        code = run("sweep", REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", "model.a=[[1.1,0.15],[-0.2,0.6]]")
        assert code == 1
        err = capsys.readouterr().err
        found = re.search(r"^error: observability: states not sufficiently excited: state "
                          r"snapshot: numerical row rank below 2 \(smallest over largest "
                          r"singular value (\S+) < 1e-12\)$", err, re.M)
        assert found and 0.0 < float(found.group(1)) < 1e-12, err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_horizon_above_depth_exits_2(self, tmp_path, capsys):
        # every row comes from the one estimate at [estimation] depth 51
        code = run("sweep", REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", "sweep.horizons=[10,52]")
        assert code == 2
        assert ("config error: [sweep] horizons 52 must be <= depth 51"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_short_record_exits_2(self, tmp_path, capsys, monkeypatch):
        never_factored(monkeypatch)
        code = run("sweep", REGULATION, "--output-dir", str(tmp_path / "out"),
                   "--set", "estimation.width=2000")
        assert code == 2
        assert ("config error: [estimation] width 2000 at depth 51 needs 2*depth + width - 1 = "
                "2101 samples, the record has 1022") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reads_no_lqr_horizon(self, tmp_path):
        assert run("sweep", REGULATION, "--output-dir", str(tmp_path / "a")) == 0
        assert run("sweep", REGULATION, "--output-dir", str(tmp_path / "b"),
                   "--set", "lqr.horizon=60") == 0
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()

    def test_rows_match_design_at_each_horizon(self, tmp_path):
        assert run("sweep", REGULATION, "--output-dir", str(tmp_path)) == 0
        cfg = RunConfig.load(REGULATION)
        model, weights = cfg.model(), cfg.weights()
        K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]:
            horizon, error = line.split(",")
            out = tmp_path / f"design-{horizon}"
            assert run("design", REGULATION, "--output-dir", str(out),
                       "--set", f"lqr.horizon={horizon}") == 0
            assert float(error) == np.abs(read_matrix(out / "gain.csv") - K_star).max()

    def test_tracking_sweep_against_augmented_riccati_gain(self, tmp_path):
        # the Riccati reference has the plant's 2 and the resonant controller's 2 states
        assert run("sweep", UPS, "--output-dir", str(tmp_path),
                   "--set", "sweep.horizons=[50,150]") == 0
        rows = dict(l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[1:])
        assert 1e-3 < float(rows["50"]) < 1e-2
        assert float(rows["150"]) < 1e-9


class TestMonteCarlo:
    def test_smoke_report(self, tmp_path):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "montecarlo.runs=50")
        assert code == 0
        for alg in ("alg1", "alg2"):
            assert read_matrix(tmp_path / f"mc_{alg}_mean.csv").shape == (2, 1)
            assert read_matrix(tmp_path / f"mc_{alg}_covariance.csv").shape == (2, 2)
        eig = (tmp_path / "mc_eigenvalues.csv").read_text().splitlines()
        assert eig[0] == "algorithm,quantity,value1,value2"
        assert len(eig) == 1 + 6  # three quantities per algorithm

    def test_bogus_noise_mode_exits_2(self, tmp_path, capsys):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "noise.mode=bogus", "--set", "montecarlo.runs=2")
        assert code == 2
        assert "[noise] mode" in capsys.readouterr().err

    def test_negative_variance_exits_2(self, tmp_path, capsys):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "noise.variance=-1", "--set", "montecarlo.runs=5")
        assert code == 2
        err = capsys.readouterr().err
        assert "[noise] variance must be >= 0" in err and "non-finite" not in err

    def test_noise_mode_reaches_the_runs(self, tmp_path):
        # the bundled study measures its noise; [noise] mode = process drives the state
        # with it. Neither mode may fall to the library's default unread
        cfg = RunConfig.load(MC)
        model = cfg.model()
        for mode in ("measurement", "process"):
            assert run("montecarlo", MC, "--output-dir", str(tmp_path / mode),
                       "--set", "montecarlo.runs=20", "--set", f"noise.mode={mode}") == 0
            reports = monte_carlo_obs(model, cfg.signal(model), cfg.get("estimation", "depth"),
                                      20, cfg.get("noise", "variance"), noise_mode=mode,
                                      width=cfg.get("estimation", "width"))
            write_matrix(tmp_path / "expect.csv", reports[0].mean)
            assert (tmp_path / mode / "mc_alg1_mean.csv").read_bytes() == \
                (tmp_path / "expect.csv").read_bytes()

    def test_failure_reasons_listed(self, tmp_path, monkeypatch):
        first_run_anticipates(monkeypatch)
        assert run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "montecarlo.runs=5") == 0
        report = (tmp_path / "montecarlo.txt").read_text().splitlines()
        assert report[:2] == [
            "alg1: runs 4, failures 1",
            "  failure reason      markov-estimation: future inputs not identifiable (1 runs)",
        ]
        assert "alg2: runs 5, failures 0" in report
        assert sum("failure reason" in line for line in report) == 1

    def test_too_few_successes_name_the_reason(self, tmp_path, capsys):
        # an unexcited record fills the Hankel matrices, so every run fails in estimation
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "signal.amplitude=0", "--set", "montecarlo.runs=5")
        assert code == 1
        assert ("alg1: fewer than 2 successful runs (5 failures, most often markov-estimation: "
                "insufficient excitation)") in capsys.readouterr().err

    def test_short_record_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        # depth 3 of one input and one output: 2*3 + width - 1 samples, width >= 9
        monkeypatch.setattr(ddlqr.experiments, "simulate",
                            lambda *args: pytest.fail("a run was simulated"))
        for sets, message in (
            (["estimation.width=2000"], "[estimation] width 2000 at depth 3 needs"
             " 2*depth + width - 1 = 2005 samples, the record has 1022"),
            (["signal.length=6"], "[estimation] width 420 at depth 3 needs"
             " 2*depth + width - 1 = 425 samples, the record has 6"),
            (["estimation.width=8"], "[estimation] width 8 must be >= (2p + q) * depth = 9 at"
             " depth 3 (p = 1 inputs, q = 1 outputs)"),
        ):
            code = run("montecarlo", MC, "--output-dir", str(tmp_path / "out"),
                       *(arg for item in sets for arg in ("--set", item)))
            assert code == 2, sets
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_depth_below_state_count_exits_2_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch):
        # the reports would be biased, as a design on the same plant would be
        monkeypatch.setattr(ddlqr.experiments, "simulate",
                            lambda *args: pytest.fail("a run was simulated"))
        code = run("montecarlo", MC, "--output-dir", str(tmp_path / "out"),
                   *(arg for item in THREE_STATES_MC for arg in ("--set", item)))
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: [estimation] depth 2 gives q*depth = 2 past outputs, too few to "
            "determine the 3 states (q = 1 outputs)\n")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "montecarlo.seed=-1", "--set", "montecarlo.runs=5")
        assert code == 2
        assert "[montecarlo] seed must be >= 0" in capsys.readouterr().err

    def test_short_depth_exits_2(self, tmp_path, capsys):
        for depth in (0, -2, 1):
            code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                       "--set", f"estimation.depth={depth}", "--set", "montecarlo.runs=5")
            assert code == 2, depth
            assert "[estimation] depth must be >= 2" in capsys.readouterr().err

    def test_single_run_rejected(self, tmp_path, capsys):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "montecarlo.runs=1")
        assert code == 2
        assert "[montecarlo] runs must be >= 2" in capsys.readouterr().err


class TestEval:
    def test_regulation_stable_design(self, tmp_path):
        run("design", REGULATION, "--output-dir", str(tmp_path))
        cfg = tmp_path / "eval.ini"
        cfg.write_text(
            Path(REGULATION).read_text()
            + f"\n[eval]\nx0 = [1.0, 1.0]\nhorizon = 500\n"
            + f"[io]\ngain = {tmp_path}/gain.csv\n"
        )
        assert run("eval", str(cfg), "--output-dir", str(tmp_path)) == 0
        rows = dict(
            line.split(",") for line in (tmp_path / "eval.csv").read_text().splitlines()[1:]
        )
        assert float(rows["spectral_radius"]) < 1.0
        assert float(rows["steady_state_error"]) < 1e-8

    def test_zero_gain_on_unstable_plant_is_reported(self, tmp_path):
        from ddlqr.storage import write_matrix

        write_matrix(tmp_path / "zero.csv", np.zeros((1, 1)))
        cfg = tmp_path / "unstable.ini"
        cfg.write_text(
            "[model]\na = 1.2\nb = 1.0\nc = 1.0\n"
            "[lqr]\nq = 1.0\nr = 1.0\nhorizon = 2\n"
            "[eval]\nx0 = [1.0]\nhorizon = 200\n"
            f"[io]\ngain = {tmp_path}/zero.csv\n"
        )
        assert run("eval", str(cfg), "--output-dir", str(tmp_path)) == 0
        rows = dict(
            line.split(",") for line in (tmp_path / "eval.csv").read_text().splitlines()[1:]
        )
        assert float(rows["spectral_radius"]) >= 1.0

    def test_nonpositive_horizon_exits_2(self, tmp_path, capsys):
        run("design", REGULATION, "--output-dir", str(tmp_path))
        for horizon in (0, -3):
            code = run("eval", REGULATION, "--output-dir", str(tmp_path),
                       "--set", "eval.x0=[1.0,-1.0]", "--set", f"eval.horizon={horizon}",
                       "--set", f"io.gain={tmp_path}/gain.csv")
            assert code == 2, horizon
            assert f"[eval] horizon must be >= 1, got {horizon}" in capsys.readouterr().err

    def test_tracking_horizon_shorter_than_thd_window_exits_2(self, tmp_path, capsys):
        # the 60 Hz reference at 15 kHz has 250 samples per period; the metrics read 10 periods
        assert run("design", UPS, "--output-dir", str(tmp_path / "d"), *UPS_SMALL) == 0
        gain = ["--set", f"io.gain={tmp_path}/d/gain.csv"]
        code = run("eval", UPS, "--output-dir", str(tmp_path / "short"), *UPS_SMALL, *gain,
                   "--set", "eval.horizon=300")
        assert code == 2
        assert "[eval] horizon must be >= 2500, got 300" in capsys.readouterr().err
        assert not (tmp_path / "short" / "eval.csv").exists()
        assert run("eval", UPS, "--output-dir", str(tmp_path / "full"), *UPS_SMALL, *gain,
                   "--set", "eval.horizon=2500") == 0
        metrics = dict(r.split(",") for r in
                       (tmp_path / "full" / "eval.csv").read_text().splitlines()[1:])
        assert float(metrics["spectral_radius"]) < 1.0
        assert np.isfinite(float(metrics["cost"])) and np.isfinite(float(metrics["thd"]))

    def test_negative_amplitude_reads_as_its_magnitude(self, tmp_path):
        # a reference of the other sign runs the loop exactly negated: the amplitude read
        # from the DFT is a magnitude, so the error is the same, not 2 (200%)
        assert run("design", UPS, "--output-dir", str(tmp_path / "d"), *UPS_SMALL) == 0
        tables = []
        for amplitude in ("179.60512242138307", "-179.60512242138307"):
            assert run("eval", UPS, "--output-dir", str(tmp_path / amplitude), *UPS_SMALL,
                       "--set", f"io.gain={tmp_path}/d/gain.csv", "--set", "eval.horizon=2500",
                       "--set", f"reference.amplitude={amplitude}") == 0
            tables.append((tmp_path / amplitude / "eval.csv").read_text())
        assert tables[0] == tables[1]
        assert float(tables[0].split("steady_state_error,")[1].split()[0]) < 0.02

    def test_zero_gain_tracking_writes_metrics(self, tmp_path):
        # the plant output stays zero: no fundamental, so THD is 0/0, but the
        # cost, the spectral radius and the 100% amplitude error are defined
        write_matrix(tmp_path / "zero.csv", np.zeros((1, 4)))
        assert run("eval", UPS, "--output-dir", str(tmp_path / "e"),
                   "--set", f"io.gain={tmp_path}/zero.csv", "--set", "eval.horizon=2500") == 0
        header, *rows = (tmp_path / "e" / "eval.csv").read_text().splitlines()
        metrics = dict(r.split(",") for r in rows)
        assert list(metrics) == ["cost", "spectral_radius", "steady_state_error", "thd"]
        assert np.isfinite(float(metrics["cost"])) and float(metrics["steady_state_error"]) == 1.0
        assert float(metrics["spectral_radius"]) == pytest.approx(1.0)
        assert metrics["thd"] == "nan"

    def test_tracking_metrics_schema(self, tmp_path):
        assert run("design", UPS, "--output-dir", str(tmp_path)) == 0
        assert run("eval", UPS, "--output-dir", str(tmp_path),
                   "--set", f"io.gain={tmp_path}/gain.csv") == 0
        header, *rows = (tmp_path / "eval.csv").read_text().splitlines()
        metrics = dict(r.split(",") for r in rows)
        assert {"cost", "spectral_radius", "steady_state_error", "thd"} <= set(metrics)
        assert float(metrics["spectral_radius"]) < 1.0

    def test_wrong_start_state_dimension_exits_2(self, tmp_path, capsys):
        run("design", REGULATION, "--output-dir", str(tmp_path))
        code = run("eval", REGULATION, "--output-dir", str(tmp_path / "eval"),
                   "--set", "eval.horizon=500", "--set", "eval.x0=[1.0]",
                   "--set", f"io.gain={tmp_path}/gain.csv")
        assert code == 2
        assert "[eval] x0 has 1 entries, expected 2 states" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "eval.csv").exists()

    def test_wrong_gain_shape_exits_2(self, tmp_path, capsys):
        # a 1 x 1 gain on a 2-state, 1-input plant broadcasts against A - BK
        from ddlqr.storage import write_matrix

        write_matrix(tmp_path / "small.csv", np.zeros((1, 1)))
        cfg = tmp_path / "two_state.ini"
        cfg.write_text(
            "[model]\na = [[0.9, 0.1], [0.0, 0.8]]\nb = [[0.0], [1.0]]\nc = [[1.0, 0.0]]\n"
            "[lqr]\nq = 1.0\nr = 1.0\nhorizon = 2\n"
            "[eval]\nx0 = [1.0, 0.0]\nhorizon = 200\n"
            f"[io]\ngain = {tmp_path}/small.csv\n"
        )
        assert run("eval", str(cfg), "--output-dir", str(tmp_path / "e")) == 2
        err = capsys.readouterr().err
        assert "[io] gain" in err and "has shape (1, 1), expected (1, 2)" in err
        assert not (tmp_path / "e" / "eval.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3\n", "ragged rows of lengths [2, 1]"),
        ("1,nan\n", "contains non-finite entries"),
        ("1,x\n", "could not convert string to float: 'x'"),
        (None, "No such file or directory"),
    ], ids=["ragged", "nan", "non-numeric", "missing"])
    def test_malformed_gain_file_exits_2(self, tmp_path, capsys, text, message):
        # a 2-state, 1-input plant: the gain is 1 x 2
        if text is not None:
            (tmp_path / "gain.csv").write_text(text)
        cfg = tmp_path / "two_state.ini"
        cfg.write_text(
            "[model]\na = [[0.9, 0.1], [0.0, 0.8]]\nb = [[0.0], [1.0]]\nc = [[1.0, 0.0]]\n"
            "[lqr]\nq = 1.0\nr = 1.0\nhorizon = 2\n"
            "[eval]\nx0 = [1.0, 0.0]\nhorizon = 200\n"
            f"[io]\ngain = {tmp_path}/gain.csv\n"
        )
        assert run("eval", str(cfg), "--output-dir", str(tmp_path / "e")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [io] gain") and message in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "e" / "eval.csv").exists()

    def test_wrong_tracking_gain_shape_exits_2(self, tmp_path, capsys):
        # the tracking loop feeds back the 2 plant and 2 resonant-controller states
        from ddlqr.storage import write_matrix

        for shape in ((1, 1), (1, 2)):
            write_matrix(tmp_path / "plant_only.csv", np.ones(shape))
            code = run("eval", UPS, "--output-dir", str(tmp_path / "e"),
                       "--set", f"io.gain={tmp_path}/plant_only.csv")
            assert code == 2, shape
            err = capsys.readouterr().err
            assert "[io] gain" in err and f"has shape {shape}, expected (1, 4)" in err
            assert not (tmp_path / "e" / "eval.csv").exists()

    @pytest.mark.parametrize("config, gain, sets, message", [
        (REGULATION, (2, 2), REGULATION_EVAL + ["lqr.q=[[1]]"],
         "[lqr] q has dimension 1, expected 2 (outputs, internal-model states included)"),
        (REGULATION, (2, 2), REGULATION_EVAL + ["lqr.r=[[1]]"],
         "[lqr] r has dimension 1, expected 2 (inputs)"),
        (UPS, (1, 4), ["lqr.q=[[1]]"],
         "[lqr] q has dimension 1, expected 3 (outputs, internal-model states included)"),
        (UPS, (1, 4), ["lqr.r=[[1,0],[0,1]]"], "[lqr] r has dimension 2, expected 1 (inputs)"),
    ], ids=["regulation-q", "regulation-r", "tracking-q", "tracking-r"])
    def test_weights_that_do_not_fit_exit_2(self, tmp_path, capsys, monkeypatch,
                                            config, gain, sets, message):
        # refused before simulating, not reported as an infinite cost
        from ddlqr.storage import write_matrix

        monkeypatch.setattr(ddlqr.experiments, "_loop_run",
                            lambda *args, **kwargs: pytest.fail("the loop was run"))
        write_matrix(tmp_path / "gain.csv", np.zeros(gain))
        code = run("eval", config, "--output-dir", str(tmp_path / "e"),
                   "--set", f"io.gain={tmp_path}/gain.csv",
                   *(arg for item in sets for arg in ("--set", item)))
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_reference_at_or_above_nyquist_exits_2(self, tmp_path, capsys):
        # 94000 rad/s at 15 kHz is 6.27 rad per sample: about 1 sample per period
        assert run("design", UPS, "--output-dir", str(tmp_path / "d"), *UPS_SMALL) == 0
        for frequency in (94000, 47123.9, 0):
            code = run("eval", UPS, "--output-dir", str(tmp_path / "e"), *UPS_SMALL,
                       "--set", f"io.gain={tmp_path}/d/gain.csv",
                       "--set", f"reference.frequency={frequency}")
            assert code == 2, frequency
            assert "[reference] frequency * ts" in capsys.readouterr().err
            assert not (tmp_path / "e" / "eval.csv").exists()

    def test_reference_without_a_whole_sample_window_exits_2(self, tmp_path, capsys,
                                                             monkeypatch):
        # 377 rad/s at 15 kHz has 249.994 samples a period, and no 10 to 999 whole periods
        # of it span whole samples: no window reads its fundamental without leakage
        monkeypatch.setattr(ddlqr.experiments, "_loop_run",
                            lambda *args, **kwargs: pytest.fail("the loop was run"))
        write_matrix(tmp_path / "gain.csv", np.zeros((1, 4)))
        assert run("eval", UPS, "--output-dir", str(tmp_path / "e"),
                   "--set", f"io.gain={tmp_path}/gain.csv",
                   "--set", "reference.frequency=377") == 2
        assert capsys.readouterr().err == (
            "config error: [reference] frequency * ts = 0.0251333 gives a period of 249.994 "
            "samples, and no 10 to 999 whole periods of it span a whole number of samples\n")
        assert not (tmp_path / "e").exists()

    def test_window_is_the_fewest_whole_sample_periods(self, tmp_path, capsys):
        # 88.5 Hz at 15 kHz has 10000/59 samples a period: 59 periods span 10000 samples
        write_matrix(tmp_path / "gain.csv", np.zeros((1, 4)))
        sets = ["--set", f"io.gain={tmp_path}/gain.csv",
                "--set", f"reference.frequency={2 * np.pi * 88.5!r}"]
        assert run("eval", UPS, "--output-dir", str(tmp_path / "short"), *sets) == 2
        assert "config error: [eval] horizon must be >= 10000, got 7500" in \
            capsys.readouterr().err
        assert not (tmp_path / "short").exists()
        assert run("eval", UPS, "--output-dir", str(tmp_path / "full"), *sets,
                   "--set", "eval.horizon=10000") == 0

    # eval tracks exactly when the file has an [imc] section; the plant fixes the signals'
    # channels and every sample time, and the horizon the reference's length; a reference is
    # a constant or a sinusoid, an excitation a PRBS or white noise, and Monte Carlo takes
    # its noise from [noise]
    @pytest.mark.parametrize("override", [
        "eval.scenario=tracking", "signal.channels=1", "signal.ts=6.666666666666667e-05",
        "reference.ts=6.666666666666667e-05", "imc.ts=6.666666666666667e-05",
        "reference.length=7500", "io.output_dir=out", "montecarlo.variance=0.1",
        "montecarlo.noise_mode=process", "reference.variance=1", "reference.seed=3",
        "reference.register_order=10", "reference.hold=2", "reference.channels=1",
        "signal.frequency=0.3", "signal.variance=1"])
    def test_removed_key_exits_2(self, tmp_path, capsys, override):
        assert run("eval", UPS, "--output-dir", str(tmp_path / "e"), "--set", override) == 2
        section, key = override.split("=")[0].split(".")
        assert capsys.readouterr().err.startswith(
            f"config error: [{section}] {key} is no longer supported: ")
        assert not (tmp_path / "e").exists()

    # eval never reads these, so an echo that held them would not describe the run
    @pytest.mark.parametrize("config, gain, sets, message", [
        (UPS, (1, 4), ["reference.kind=constant"],
         "[reference] frequency is not read by kind = constant; remove the key"),
        (REGULATION, (2, 2), REGULATION_EVAL + ["reference.kind=constant"],
         "[reference] is not read without an [imc] section; remove the section"),
        (UPS, (1, 4), ["eval.x0=[0,0]"], "[eval] x0 is not read beside an [imc] section, "
         "whose tracking run starts at rest; remove the key"),
    ], ids=["constant-frequency", "regulation-reference", "tracking-x0"])
    def test_unread_key_exits_2(self, tmp_path, capsys, config, gain, sets, message):
        write_matrix(tmp_path / "gain.csv", np.zeros(gain))
        code = run("eval", config, "--output-dir", str(tmp_path / "e"),
                   "--set", f"io.gain={tmp_path}/gain.csv",
                   *(arg for item in sets for arg in ("--set", item)))
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "e").exists()


# An input error of each kind that is raised after the config file loads, with
# the command and overrides that raise it and the start of its message.
INPUT_ERRORS = {
    "signal-spec": ("design", REGULATION, ["signal.register_order=40"],
                    "[signal] register_order must be between 2 and 32"),
    "lqr-weights": ("design", REGULATION, ["lqr.r=0"], "[lqr] r must be positive definite"),
    "resonant-imc": ("design", UPS, ["imc.omega_n=1e9"], "[imc] omega_n "),
    "resonant-imc-zero": ("design", UPS, ["imc.omega_n=0"], "[imc] omega_n * Ts = 0 must lie "
                          "strictly inside (0, pi); the frequency is at or below zero\n"),
    "resonant-imc-negative": ("design", UPS, ["imc.omega_n=-5"], "[imc] omega_n * Ts = "
                              "-0.000333333 must lie strictly inside (0, pi); the frequency is "
                              "at or below zero\n"),
    "missing-key": ("sweep", MC, [], "missing required key [sweep] horizons"),
    "io-file": ("design", REGULATION, ["io.dataset={tmp}/bad.csv"], "[io] dataset"),
}


@pytest.mark.parametrize("kind", list(INPUT_ERRORS))
def test_input_errors_leave_no_output_dir(tmp_path, capsys, kind):
    command, config, sets, message = INPUT_ERRORS[kind]
    (tmp_path / "bad.csv").write_text("u1,y1\n1,2\n")
    argv = [command, config, "--output-dir", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item.format(tmp=tmp_path)]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


# an [io] file that cannot be read: the key, then the reader's own message
@pytest.mark.parametrize("command, key, sets", [
    ("design", "dataset", []), ("eval", "gain", REGULATION_EVAL)], ids=["dataset", "gain"])
def test_unreadable_io_file_exits_2_after_its_key(tmp_path, capsys, command, key, sets):
    missing = tmp_path / "missing.csv"
    argv = [command, REGULATION, "--output-dir", str(tmp_path / "out"),
            "--set", f"io.{key}={missing}"]
    assert run(*argv, *(arg for item in sets for arg in ("--set", item))) == 2
    assert capsys.readouterr().err == (f"config error: [io] {key} cannot be read: [Errno 2] "
                                       f"No such file or directory: '{missing}'\n")
    assert not (tmp_path / "out").exists()


# an empty E is no noise channel, so a noisy run would come out noise-free; an empty B is
# the model's fault, not the signal's, nor A's in a continuous model
@pytest.mark.parametrize("command, config, sets, message", [
    ("montecarlo", MC, ["montecarlo.runs=20", "model.e=[]"], "[model] e has no columns"),
    ("simulate", MC, ["model.e=[]", "noise.variance=0.5"], "[model] e has no columns"),
    ("montecarlo", MC, ["montecarlo.runs=20", "model.b=[]"], "[model] b has no columns"),
    ("design", UPS, ["model.b=[]"], "[model] b has no columns"),
], ids=["montecarlo-e", "simulate-e", "montecarlo-b", "continuous-b"])
def test_empty_model_matrix_exits_2(tmp_path, capsys, command, config, sets, message):
    argv = [command, config, "--output-dir", str(tmp_path / "out")]
    assert run(*argv, *(arg for item in sets for arg in ("--set", item))) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# One fault that a config value brings to each rule of a library constructor, and the one
# line it prints: the config key, then the constructor's detail (a continuous model's empty
# B is test_empty_model_matrix_exits_2's). Eval reads a gain of nans. A numpy warning would
# fail the run, since the suite turns a RuntimeWarning into an error.
CONSTRUCTOR_FAULTS = {
    "model-square": ("design", REGULATION, ["model.a=[[1,2]]"],
                     "[model] a must be square, got (1, 2)"),
    "model-e-rows": ("design", REGULATION, ["model.e=[[1,2,3]]"],
                     "[model] e has 1 rows, expected 2 to match A"),
    "continuous-overflow": ("design", UPS, ["model.a=[[1e300,0],[0,1]]"],
                            "[model] a overflows in exp(A * Ts) at Ts = 6.66667e-05"),
    "signal-length": ("design", REGULATION, ["signal.length=0"],
                      "[signal] length must be >= 1, got 0"),
    "signal-hold": ("design", REGULATION, ["signal.hold=0"], "[signal] hold must be >= 1"),
    "signal-seed": ("design", REGULATION, ["signal.seed=-1"],
                    "[signal] seed must be >= 0, got -1"),
    "signal-register-order": ("design", REGULATION, ["signal.register_order=40"],
                              "[signal] register_order must be between 2 and 32, got 40"),
    "lqr-q-symmetric": ("design", REGULATION, ["lqr.q=[[1,2],[3,4]]"],
                        "[lqr] q must be symmetric within 1e-12"),
    "lqr-r-definite": ("design", REGULATION, ["lqr.r=0"],
                       "[lqr] r must be positive definite. R must be symmetric positive "
                       "definite; for a dead-beat design use a small ridge such as 1e-9 * I "
                       "instead of R = 0"),
    "imc-omega-n": ("design", UPS, ["imc.omega_n=1e9"], "[imc] omega_n * Ts = 66666.7 must lie "
                    "strictly inside (0, pi); the frequency is at or above Nyquist"),
    "gain-finite": ("eval", REGULATION, REGULATION_EVAL + ["io.gain={tmp}/nan.csv"],
                    "[io] gain contains non-finite entries"),
}


@pytest.mark.parametrize("fault", list(CONSTRUCTOR_FAULTS))
def test_constructor_faults_exit_2_with_their_key(tmp_path, capsys, fault):
    command, config, sets, line = CONSTRUCTOR_FAULTS[fault]
    write_matrix(tmp_path / "nan.csv", np.full((2, 2), np.nan))
    argv = [command, config, "--output-dir", str(tmp_path / "out")]
    assert run(*argv, *(arg for item in sets for arg in ("--set", item.format(tmp=tmp_path)))) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, sets", [
    ("sweep", REGULATION, ["model.a=[[2.1,0.15],[-0.2,0.6]]"]),
    ("montecarlo", MC, ["model.a=40.0", "montecarlo.runs=5"]),
], ids=["sweep", "montecarlo"])
def test_overflowing_record_exits_1_in_simulation(tmp_path, capsys, command, config, sets):
    # the open loop overflows: a tagged error, no numpy warning and no output
    argv = [command, config, "--output-dir", str(tmp_path / "out")]
    assert run(*argv, *(arg for item in sets for arg in ("--set", item))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simulation: the open-loop record overflows in ")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


# One input that breaks each input rule of the library: the command, config and
# overrides, the config key the CLI names and the parameter the library's InputError
# names. Eval reads a zero gain of the given shape.
INPUT_RULES = {
    "q-fits": ("design", REGULATION, ["lqr.q=[[1]]"], "[lqr] q", "Q"),
    "r-fits": ("design", REGULATION, ["lqr.r=[[1]]"], "[lqr] r", "R"),
    "record-holds-width": ("design", REGULATION, ["estimation.width=2000"],
                           "[estimation] width", "width"),
    "record-holds-depth": ("sweep", REGULATION, ["signal.length=80"], "[estimation] depth",
                           "depth"),
    "width-holds-regressor": ("montecarlo", MC, ["estimation.width=8", "montecarlo.runs=5"],
                              "[estimation] width", "width"),
    "depth-determines-states": ("montecarlo", MC, THREE_STATES_MC, "[estimation] depth", "depth"),
    # state noise on a model without E: in Monte Carlo and in a simulated record
    "noise-channel": ("montecarlo", REGULATION, ["montecarlo.runs=5", "noise.variance=0.1"],
                      "[model] e", "E"),
    "noise-channel-simulate": ("simulate", REGULATION, ["noise.variance=0.1"], "[model] e", "E"),
    # the key schema refuses these three first, in the library's words
    "covariance-runs": ("montecarlo", MC, ["montecarlo.runs=1"], "[montecarlo] runs", "runs"),
    "seed-nonnegative": ("montecarlo", MC, ["montecarlo.seed=-1", "montecarlo.runs=5"],
                         "[montecarlo] seed", "base_seed"),
    "variance-nonnegative": ("montecarlo", MC, ["noise.variance=-1", "montecarlo.runs=5"],
                             "[noise] variance", "noise_variance"),
    "horizon-within-depth": ("design", REGULATION, ["lqr.horizon=60"], "[lqr] horizon",
                             "horizon"),
    "horizons-within-depth": ("sweep", REGULATION, ["sweep.horizons=[10,52]"],
                              "[sweep] horizons", "horizon"),
    # the sweep's Riccati reference is the plant behind the data: here 2 states, the data 3,
    # then the demo's own record with one output, then with one input
    "sweep-plant-states": ("sweep", REGULATION, ["io.dataset={tmp}/three_states.csv"],
                           "[model] a", "A"),
    "sweep-plant-outputs": ("sweep", REGULATION, ["io.dataset={tmp}/regulation.csv",
                                                  "model.c=[[1.0,2.0]]"], "[model] c", "C"),
    "sweep-plant-inputs": ("sweep", REGULATION, ["io.dataset={tmp}/regulation.csv",
                                                 "model.b=[[0.04],[0.02]]"], "[model] b", "B"),
    "gain-shape": ("eval", REGULATION, REGULATION_EVAL + ["io.gain={tmp}/1x1.csv"], "[io] gain",
                   "K"),
    "x0-size": ("eval", REGULATION, REGULATION_EVAL + ["eval.x0=[1]", "io.gain={tmp}/2x2.csv"],
                "[eval] x0", "x0"),
    "thd-window": ("eval", UPS, ["eval.horizon=300", "io.gain={tmp}/1x4.csv"], "[eval] horizon",
                   "horizon"),
    "reference-below-nyquist": ("eval", UPS, ["reference.frequency=94000",
                                              "io.gain={tmp}/1x4.csv"],
                                "[reference] frequency", "frequency"),
    "sinusoid-amplitude": ("eval", UPS, ["reference.amplitude=0", "io.gain={tmp}/1x4.csv"],
                           "[reference] amplitude", "amplitude"),
    # the constructors' rules that a config value reaches past the key schema
    "resonance-below-nyquist": ("design", UPS, ["imc.omega_n=1e9"], "[imc] omega_n", "omega_n"),
    "signal-length": ("design", REGULATION, ["signal.length=0"], "[signal] length", "length"),
    "signal-seed": ("sweep", REGULATION, ["signal.seed=-1"], "[signal] seed", "seed"),
    "signal-register-order": ("montecarlo", MC, ["signal.register_order=1"],
                              "[signal] register_order", "register_order"),
    "signal-hold": ("design", REGULATION, ["signal.hold=0"], "[signal] hold", "hold"),
}


def _library_run(command: str, config: str, sets):
    """The library calls behind ``command``, on the config's values and with no CLI check;
    the ``montecarlo.`` and ``noise.`` overrides reach ``monte_carlo_obs`` past the key schema."""
    past = dict(item.split("=", 1) for item in sets if item.startswith(("montecarlo.", "noise.")))
    cfg = RunConfig.load(config, [item for item in sets if item.split("=")[0] not in past])
    model = cfg.model()
    spec = cfg.signal(model)
    if command == "simulate":
        return simulate(model, generate_signal(spec), v=np.zeros(spec.length))
    depth, width = cfg.get("estimation", "depth"), cfg.get("estimation", "width")
    if command == "montecarlo":
        return monte_carlo_obs(model, spec, depth, int(past.get("montecarlo.runs", 2)),
                               float(past.get("noise.variance", 0.1)),
                               int(past.get("montecarlo.seed", 0)), width=width)
    imc = cfg.imc(model.sample_time)
    if command == "eval":
        horizon = cfg.get("eval", "horizon")
        if imc is None:
            scenario = RegulationScenario(x0=cfg.get("eval", "x0"))
        else:
            scenario = TrackingScenario(imc, cfg.get("reference", "amplitude"),
                                        cfg.get("reference", "frequency"))
        return evaluate_closed_loop(model, read_matrix(cfg.get("io", "gain")), cfg.weights(),
                                    scenario, horizon)
    dataset = cfg.get("io", "dataset")
    data = simulate(model, generate_signal(spec)) if dataset is None else read_dataset(dataset)
    est = estimate(data, depth, width, imc=imc)
    if command == "sweep":
        return convergence_sweep(model, est, cfg.weights(), cfg.get("sweep", "horizons"))
    return synthesize(est, cfg.weights(), cfg.get("lqr", "horizon"))


@pytest.mark.parametrize("rule", list(INPUT_RULES) + ["parameter-not-in-table"])
def test_input_rules_exit_2_naming_their_key(tmp_path, capsys, monkeypatch, rule):
    keys = {key for k in INPUT_KEYS.values()
            for key in (k.values() if isinstance(k, dict) else [k])}
    assert {case[3] for case in INPUT_RULES.values()} == keys  # every table entry is hit
    if rule == "parameter-not-in-table":
        def refuse(*args, **kwargs):
            raise InputError("lag", "must be >= 0, got -1")

        monkeypatch.setattr(ddlqr.cli, "estimate", refuse)
        command, config, sets, key, param = "design", REGULATION, [], "lag", "lag"
    else:
        command, config, sets, key, param = INPUT_RULES[rule]
    for shape in ((1, 1), (2, 2), (1, 4)):
        write_matrix(tmp_path / f"{shape[0]}x{shape[1]}.csv", np.zeros(shape))
    write_dataset(tmp_path / "three_states.csv", three_state_record())
    write_dataset(tmp_path / "regulation.csv", regulation_record())
    sets = [item.format(tmp=tmp_path) for item in sets]
    assert run(command, config, "--output-dir", str(tmp_path / "out"),
               *(arg for item in sets for arg in ("--set", item))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()
    if rule != "parameter-not-in-table":
        with pytest.raises(InputError) as raised:
            _library_run(command, config, sets)
        assert raised.value.param == param
        assert err == f"config error: {key} {raised.value.detail}\n"


# Each command with the overrides of a small run; eval reads a shrunk tracking design.
ECHO_RUNS = {
    "design": (REGULATION, []),
    "sweep": (REGULATION, ["--set", "sweep.horizons=[10,30,50]"]),
    "montecarlo": (MC, ["--set", "montecarlo.runs=20"]),
    "eval": (UPS, UPS_SMALL + ["--set", "eval.horizon=2500"]),
}


@pytest.mark.parametrize("command", list(ECHO_RUNS))
def test_echo_reproduces_run(tmp_path, command):
    config, sets = ECHO_RUNS[command]
    if command == "eval":
        assert run("design", UPS, "--output-dir", str(tmp_path / "design"), *UPS_SMALL) == 0
        sets = sets + ["--set", f"io.gain={tmp_path}/design/gain.csv"]
    assert run(command, config, "--output-dir", str(tmp_path / "a"), *sets) == 0
    assert run(command, str(tmp_path / "a" / "config_echo.ini"),
               "--output-dir", str(tmp_path / "b")) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# The ups-track benchmark's small tracking design, whose wide QR OpenBLAS splits over
# threads: run on the caller's thread count, its gain.csv and design.txt differ between
# 1 and 2 threads with scipy-openblas 0.3.31.
THREAD_SETS = ["signal.length=880", "estimation.depth=80", "estimation.width=720",
               "lqr.horizon=80"]
OPENBLAS = ddlqr.cli._numpy_openblas()
needs_blas_setter = pytest.mark.skipif(
    not hasattr(OPENBLAS, "openblas_set_num_threads_local"),
    reason="numpy's BLAS has no openblas_set_num_threads_local")


@needs_blas_setter
def test_design_agrees_across_blas_thread_counts(tmp_path):
    procs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "ddlqr.cli", "design", UPS,
                "--output-dir", str(tmp_path / threads)]
        procs[threads] = subprocess.Popen(
            argv + [arg for item in THREAD_SETS for arg in ("--set", item)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert names == ["config_echo.ini", "design.txt", "gain.csv"]
    assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@needs_blas_setter
def test_main_runs_on_one_blas_thread_and_restores_the_callers(tmp_path, monkeypatch):
    import scipy.linalg  # noqa: F401  maps scipy's OpenBLAS, which exports the same setter

    ddlqr.cli._numpy_openblas.cache_clear()
    path = Path(ddlqr.cli._numpy_openblas()._name).resolve()
    numpy_dir, scipy_dir = (Path(m.__file__).resolve().parent for m in (np, scipy))
    assert path.parent in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs"), path
    assert scipy_dir.parent / "scipy.libs" != path.parent and scipy_dir not in path.parents
    setter = ddlqr.cli._numpy_openblas().openblas_set_num_threads_local
    seen = []

    def probe(cfg, outdir):  # the count a command runs on, read by setting the same count
        seen.append(setter(1))
        raise RuntimeError("not a ValueError: no exit code")

    out = ["--output-dir", str(tmp_path / "out")]
    runs = [(0, "design", []), (2, "design", ["--set", "lqr.horizon=1.5"]),
            (1, "sweep", ["--set", "model.a=[[2.1,0.15],[-0.2,0.6]]"])]
    caller = setter(2)
    try:
        for code, command, sets in runs:
            assert run(command, REGULATION, *out, *sets) == code
            assert setter(2) == 2, code
        monkeypatch.setitem(ddlqr.cli.COMMANDS, "design", probe)
        with pytest.raises(RuntimeError):
            run("design", REGULATION, *out)
        assert setter(2) == 2 and seen == [1]
    finally:
        setter(caller)
