"""Benchmark workloads: the CLI commands of one cycle and their output checks.

A workload is a fixed cycle of ``ddlqr`` commands that the benchmark repeats.
Every command's outputs are checked against an oracle computed once, before
any timing, from the model in the workload's config file.

The workload seed reaches the program only through a generated
``--set signal.seed=`` or ``--set montecarlo.seed=`` override.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from ddlqr import augment_model, dare_solve, model_lqr_gain
from ddlqr.config import RunConfig

# Relative-error limit on the final gain, as in acceptance criterion 1.
GAIN_RTOL = 1e-4
# Tracking limits of acceptance criterion 7.
MAX_SPECTRAL_RADIUS = 1.0
MAX_STEADY_STATE_ERROR = 0.02
# Exactness of the error-moment decomposition, as in acceptance criterion 4.
MSE_ATOL = 1e-10


@dataclass
class Command:
    """One CLI invocation: ``kind`` names its timing series."""

    kind: str
    argv: List[str]
    outdir: Path


def _read_matrix(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def _read_table(path: Path) -> Dict[str, str]:
    """Two-column CSV with a header row, as ``{first: second}``."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return {row[0]: row[1] for row in rows[1:]}


class Workload:
    """Base: subclasses set the config, the cycle and ``check``."""

    name = ""
    config = ""
    bundled_seed = 0
    seed_key = "signal.seed"
    # Kind of the reference kernel that cycle times are divided by.
    reference = "blas"
    # --set overrides of the benchmark, and the smaller ones of the self-test.
    full: List[str] = []
    tiny: List[str] = []

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.work = work
        self.sets = [f"{self.seed_key}={seed}"] + (self.tiny if tiny else self.full)
        self.cfg = RunConfig.load(self.config, self.sets)
        self.cycle: List[Command] = []

    def command(self, kind: str, outdir: str, extra: Tuple[str, ...] = ()) -> Command:
        out = self.work / outdir
        argv = [kind, self.config, "--output-dir", str(out)]
        for item in self.sets + list(extra):
            argv += ["--set", item]
        return Command(kind, argv, out)

    def check(self, cmd: Command) -> Tuple[List[str], Dict[str, float]]:
        """Failure messages and quality figures for one command's outputs."""
        raise NotImplementedError


class UpsTrack(Workload):
    """Design then eval on the tracking demo: one depth-150 estimation on a
    750x1600 regressor, then a 7500-step closed-loop simulation."""

    name = "ups-track"
    config = "configs/ups_tracking_demo.ini"
    bundled_seed = 11
    tiny = ["signal.length=880", "estimation.depth=80", "estimation.width=720",
            "lqr.horizon=80", "eval.horizon=3000"]

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        super().__init__(seed, work, tiny)
        design = self.command("design", "design")
        gain = design.outdir / "gain.csv"
        self.cycle = [design, self.command("eval", "eval", (f"io.gain={gain}",))]
        model = self.cfg.model()
        aug = augment_model(model, self.cfg.imc(default_ts=model.sample_time))
        weights = self.cfg.weights()
        self.k_riccati = model_lqr_gain(aug, dare_solve(aug, weights), weights.R)

    def check(self, cmd):
        if cmd.kind == "design":
            K = _read_matrix(cmd.outdir / "gain.csv")
            if K.shape != self.k_riccati.shape:
                return [f"gain.csv has shape {K.shape}, expected {self.k_riccati.shape}"], {}
            err = float(np.abs(K - self.k_riccati).max() / np.abs(self.k_riccati).max())
            bad = [] if err < GAIN_RTOL else [f"gain error {err:.3e} vs Riccati >= {GAIN_RTOL}"]
            return bad, {"gain_err": err}
        table = _read_table(cmd.outdir / "eval.csv")
        rho = float(table["spectral_radius"])
        sse = float(table["steady_state_error"])
        bad = []
        if not rho < MAX_SPECTRAL_RADIUS:
            bad.append(f"spectral_radius {rho!r} >= {MAX_SPECTRAL_RADIUS}")
        if not sse < MAX_STEADY_STATE_ERROR:
            bad.append(f"steady_state_error {sse!r} >= {MAX_STEADY_STATE_ERROR}")
        return bad, {}


class RegSweep(Workload):
    """Two sweeps over horizons 10..50, one per observability algorithm; each
    sweep redoes the same depth-51 estimation for every horizon."""

    name = "reg-sweep"
    config = "configs/regulation_demo.ini"
    bundled_seed = 7
    full = ["sweep.horizons=[10,20,30,40,50]"]
    tiny = ["signal.length=500", "sweep.horizons=[10,50]"]

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        super().__init__(seed, work, tiny)
        self.horizons = self.cfg.get("sweep", "horizons")
        self.cycle = [
            self.command("sweep", f"sweep-{alg}", (f"estimation.algorithm={alg}",))
            for alg in ("alg1", "alg2")
        ]
        model = self.cfg.model()
        weights = self.cfg.weights()
        self.k_riccati = model_lqr_gain(model, dare_solve(model, weights), weights.R)

    def check(self, cmd):
        table = _read_table(cmd.outdir / "sweep.csv")
        horizons = [int(h) for h in table]
        if horizons != self.horizons:
            return [f"sweep.csv horizons {horizons}, expected {self.horizons}"], {}
        errors = [float(e) for e in table.values()]
        if not all(np.isfinite(errors)):
            return [f"non-finite gain errors {errors}"], {}
        err = errors[-1] / float(np.abs(self.k_riccati).max())
        bad = [] if err < GAIN_RTOL else [
            f"final gain error {err:.3e} vs Riccati >= {GAIN_RTOL}"]
        return bad, {"gain_err": err}


class McNoisy(Workload):
    """A 500-run Monte Carlo of both observability estimators: thousands of
    tiny problems, dominated by simulation and PRBS generation."""

    name = "mc-noisy"
    config = "configs/noisy_estimation_mc.ini"
    bundled_seed = 0
    seed_key = "montecarlo.seed"
    reference = "interpreter"
    full = ["montecarlo.runs=500"]
    tiny = ["montecarlo.runs=20"]

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        super().__init__(seed, work, tiny)
        self.cycle = [self.command("montecarlo", "mc")]
        self.n_runs = self.cfg.get_int("montecarlo", "runs")
        model = self.cfg.model()
        depth = self.cfg.get_int("estimation", "depth")
        # Shifted observability stack C A, ..., C A^(depth-1).
        self.truth = np.vstack([model.C @ np.linalg.matrix_power(model.A, i)
                                for i in range(1, depth)])

    def check(self, cmd):
        bad: List[str] = []
        mean_err = 0.0
        failures = 0
        summary = (cmd.outdir / "montecarlo.txt").read_text()
        for alg in ("alg1", "alg2"):
            found = re.search(rf"^{alg}: runs (\d+), failures (\d+)$", summary, re.M)
            if not found:
                bad.append(f"montecarlo.txt has no run count for {alg}")
                continue
            failures += int(found.group(2))
            mean = _read_matrix(cmd.outdir / f"mc_{alg}_mean.csv")
            cov = _read_matrix(cmd.outdir / f"mc_{alg}_covariance.csv")
            mse = _read_matrix(cmd.outdir / f"mc_{alg}_mse.csv")
            bias = mean - self.truth
            gap = float(np.abs(mse - (cov + bias @ bias.T)).max())
            if not gap <= MSE_ATOL:
                bad.append(f"{alg}: mse differs from covariance + bias bias' by {gap:.3e}")
            mean_err = max(mean_err, float(np.linalg.norm(bias) / np.linalg.norm(self.truth)))
        if failures:
            bad.append(f"{failures} failed Monte Carlo runs")
        quality = {"obs_mean_err": mean_err,
                   "mc_failed_frac": failures / (2 * self.n_runs)}
        return bad, quality


WORKLOADS = {cls.name: cls for cls in (UpsTrack, RegSweep, McNoisy)}
