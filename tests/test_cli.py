from pathlib import Path

import numpy as np

from ddlqr import Dataset
from ddlqr.cli import main
from ddlqr.storage import read_dataset, read_matrix, write_dataset

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REGULATION = str(CONFIGS / "regulation_demo.ini")
UPS = str(CONFIGS / "ups_tracking_demo.ini")
MC = str(CONFIGS / "noisy_estimation_mc.ini")

GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])


def run(*argv):
    return main(list(argv))


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
        assert "[model] a" in err and "ragged" in err

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


class TestDesign:
    def test_end_to_end_gain(self, tmp_path):
        assert run("design", REGULATION, "--output-dir", str(tmp_path)) == 0
        K = read_matrix(tmp_path / "gain.csv")
        np.testing.assert_allclose(K, GAIN_LONG, atol=1e-3)
        report = (tmp_path / "design.txt").read_text()
        assert "algorithm" in report
        margin = [l for l in report.splitlines() if l.startswith("input_rank_margin: ")]
        assert len(margin) == 1 and float(margin[0].split(": ")[1]) > 1.0

    def test_insufficient_data_exits_1(self, tmp_path, capsys):
        code = run("design", REGULATION, "--output-dir", str(tmp_path),
                   "--set", "signal.length=80")
        assert code == 1
        assert "depth" in capsys.readouterr().err

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
        assert "markov-estimation: insufficient excitation: future inputs" in err
        assert "Traceback" not in err

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

    def test_single_run_rejected(self, tmp_path, capsys):
        code = run("montecarlo", MC, "--output-dir", str(tmp_path),
                   "--set", "montecarlo.runs=1")
        assert code == 1
        assert "at least 2 runs" in capsys.readouterr().err


class TestEval:
    def test_regulation_stable_design(self, tmp_path):
        run("design", REGULATION, "--output-dir", str(tmp_path))
        cfg = tmp_path / "eval.ini"
        cfg.write_text(
            Path(REGULATION).read_text()
            + f"\n[eval]\nscenario = regulation\nx0 = [1.0, 1.0]\nhorizon = 500\n"
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
            "[eval]\nscenario = regulation\nx0 = [1.0]\nhorizon = 200\n"
            f"[io]\ngain = {tmp_path}/zero.csv\n"
        )
        assert run("eval", str(cfg), "--output-dir", str(tmp_path)) == 0
        rows = dict(
            line.split(",") for line in (tmp_path / "eval.csv").read_text().splitlines()[1:]
        )
        assert float(rows["spectral_radius"]) >= 1.0

    def test_tracking_metrics_schema(self, tmp_path):
        assert run("design", UPS, "--output-dir", str(tmp_path)) == 0
        assert run("eval", UPS, "--output-dir", str(tmp_path),
                   "--set", f"io.gain={tmp_path}/gain.csv") == 0
        header, *rows = (tmp_path / "eval.csv").read_text().splitlines()
        metrics = dict(r.split(",") for r in rows)
        assert {"cost", "spectral_radius", "steady_state_error", "thd"} <= set(metrics)
        assert float(metrics["spectral_radius"]) < 1.0
