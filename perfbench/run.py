"""ddlqr benchmark: times the public CLI entry point in one long-lived process.

Usage, from the repository root:

    python3 perfbench/run.py --workload ups-track --seed 11 --seconds 25 --trace 0

A run builds the workload's commands from the seed, runs the first command
cold in fresh interpreters (set-up), runs one warm-up cycle, then repeats the
cycle for ``--seconds``, timing a fixed reference kernel between cycles.
Every command's exit code and outputs are checked, and repeated identical
commands must write byte-identical outputs. See README.md for the metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced cycles and reports per-layer metrics from the traced ones, each
per cycle, plus the tracing overhead. The second-to-last line of standard
output is a full report (metrics with sample counts, environment, failures);
the last line is the result object. Scratch outputs go to ``.perfbench/``.
The exit code is 0 only if every command succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = Path(".perfbench")
COLD_REPEATS = 3
COLD_TIMEOUT_S = 40

# Metrics of the result line, by mode.
END_TO_END = {"setup_s": "s", "cycle_rel.p50": "ratio", "peak_rss_mb": "MB"}
COMMAND_TIMINGS = {"design": "design_s", "eval": "eval_s", "sweep": "sweep_s",
                   "montecarlo": "montecarlo_s"}


# Per-layer metrics besides the ``.calls`` and ``.self_s`` of every span.
LAYER_EXTRAS = {
    "linalg.svd.flops_computed": "flop",
    "experiments.mc_failed_frac": "ratio",
    "setup.import_s": "s",
    "setup.first_command_s": "s",
    "trace.overhead_s": "s",
}


def span_names() -> list:
    from tracer import LINALG, TRACED

    return ([f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
            + [f"linalg.{fn}" for fn in LINALG])


def per_layer_units() -> dict:
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    return {**units, **LAYER_EXTRAS}


# Reference kernels: fixed code, timed between cycles. Each cycle's time is
# divided by the mean time of its workload's kernel just before and just after
# it (see README.md). A kernel's time is the median of several short chunks,
# so that a hiccup of a few milliseconds does not stand for the whole cycle.
REF_CHUNKS = 11
_A = np.array([[1.0, 0.15], [-0.2, 0.6]])
_U = np.ones((5000, 2))
_M = np.random.default_rng(0).standard_normal((200, 400))


def _interpreter_chunk():
    """A Python loop of 2x2 numpy products, as in the simulators."""
    x = np.zeros(2)
    for u in _U:
        x = _A @ x + _A @ u


def _blas_chunk():
    np.linalg.svd(_M, compute_uv=False)


def median_chunk_time(chunk) -> float:
    times = []
    for _ in range(REF_CHUNKS):
        start = perf_counter()
        chunk()
        times.append(perf_counter() - start)
    return statistics.median(times)


REFERENCES = {"interpreter": _interpreter_chunk, "blas": _blas_chunk}


def load_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "ddlqr" / "__init__.py"
    if not package.is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: no ddlqr sources under {ROOT}; nothing to measure")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("ddlqr.cli")
    if Path(sys.modules["ddlqr"].__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported ddlqr from {sys.modules['ddlqr'].__file__}")
    return cli


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timing(metrics: dict, base: str, samples: list) -> None:
    """Median, plus p90/p99 only when at least ten samples lie beyond them."""
    n = len(samples)
    metrics[f"{base}.p50"] = {"value": statistics.median(samples), "unit": "s", "n": n}
    cuts = statistics.quantiles(samples, n=100) if n >= 2 else []
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            metrics[f"{base}.p{q}"] = {"value": cuts[q - 1], "unit": "s", "n": n}


class Bench:
    """Runs one workload's commands in-process and keeps the failure tally."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.quality = {}
        self._digests = {}

    def run(self, cmd, tracer=None) -> float:
        """Wall time of one ``ddlqr.cli.main`` call; outputs checked afterwards."""
        sink = io.StringIO()
        rc = None
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(cmd.argv)
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            sink.write(traceback.format_exc(limit=4))
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        self.verify(cmd, rc, sink.getvalue())
        return elapsed

    def verify(self, cmd, rc, output: str = "") -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {output.strip()[-400:]}"]
        else:
            try:
                problems, quality = self.workload.check(cmd)
                problems += self._compare_bytes(cmd)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, quality = [f"unreadable outputs: {exc!r}"], {}
            for name, value in quality.items():
                self.quality[name] = max(value, self.quality.get(name, value))
        if problems:
            self.failures.append({"command": cmd.kind, "problems": problems})

    def _compare_bytes(self, cmd) -> list:
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in cmd.outdir.iterdir() if p.is_file()}
        first = self._digests.setdefault(tuple(cmd.argv), digests)
        changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
        return [f"outputs differ from an identical earlier command: {changed}"] if changed else []

    def cold_start(self) -> dict | None:
        """The cycle's first command in a fresh interpreter; None if it crashed."""
        cmd = self.workload.cycle[0]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "coldstart.py"), *cmd.argv],
                env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                timeout=COLD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.verify(cmd, None, f"cold start exceeded {COLD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self.verify(cmd, None, proc.stderr)
            return None
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        self.verify(cmd, probe["rc"], proc.stderr)
        return probe

    def cycle(self, tracer=None) -> list:
        """[(command kind, wall seconds)] of one pass over the workload's cycle."""
        return [(cmd.kind, self.run(cmd, tracer)) for cmd in self.workload.cycle]


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            cold_repeats: int = COLD_REPEATS):
    """One benchmark run; returns (report, result)."""
    cli = load_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    work = STATE / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(cli, WORKLOADS[name](seed, work, tiny))
        cold = [p for p in (bench.cold_start() for _ in range(cold_repeats)) if p]
        bench.cycle()  # warm-up: lazy imports and first-touch allocations
        reference = REFERENCES[bench.workload.reference]
        median_chunk_time(reference)
        tracer = Tracer() if trace else None
        series = defaultdict(list)
        series["ref"].append(median_chunk_time(reference))
        start = perf_counter()
        while True:
            traced = trace and len(series["traced"]) <= len(series["plain"])
            times = bench.cycle(tracer if traced else None)
            series["ref"].append(median_chunk_time(reference))
            total = sum(t for _, t in times)
            series["traced" if traced else "plain"].append(total)
            if not traced:
                series["rel"].append(total / statistics.fmean(series["ref"][-2:]))
            for kind, elapsed in times:
                series[kind].append(elapsed)
            if series["plain"] and perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def cold_median(*keys):
        return statistics.median(sum(p[k] for k in keys) for p in cold) if cold else None

    metrics = {}
    if trace:
        cycles = len(series["traced"])
        for span in span_names():
            metrics[f"{span}.calls"] = {
                "value": tracer.calls[span] / cycles, "unit": "count", "n": cycles}
            metrics[f"{span}.self_s"] = {
                "value": tracer.self_s[span] / cycles, "unit": "s", "n": cycles}
        metrics["linalg.svd.flops_computed"] = {
            "value": tracer.flops["linalg.svd"] / cycles, "unit": "flop", "n": cycles}
        metrics["experiments.mc_failed_frac"] = {
            "value": bench.quality.get("mc_failed_frac", 0.0), "unit": "ratio",
            "n": bench.attempted}
        metrics["setup.import_s"] = {"value": cold_median("import_s"), "unit": "s", "n": len(cold)}
        metrics["setup.first_command_s"] = {
            "value": cold_median("first_command_s"), "unit": "s", "n": len(cold)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(series["traced"]) - statistics.median(series["plain"]),
            "unit": "s", "n": cycles + len(series["plain"])}
        contract = per_layer_units()
    else:
        metrics["setup_s"] = {"value": cold_median("import_s", "first_command_s"),
                              "unit": "s", "n": len(cold)}
        metrics["cycle_rel.p50"] = {"value": statistics.median(series["rel"]),
                                     "unit": "ratio", "n": len(series["rel"])}
        timing(metrics, "cycle_s", series["plain"])
        timing(metrics, "ref_s", series["ref"])
        for kind, base in COMMAND_TIMINGS.items():
            if series[kind]:
                timing(metrics, base, series[kind])
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB", "n": 1}
        metrics["failed_frac"] = {"value": len(bench.failures) / bench.attempted,
                                  "unit": "ratio", "n": bench.attempted}
        for quality in ("gain_err", "obs_mean_err"):
            if quality in bench.quality:
                metrics[quality] = {"value": bench.quality[quality], "unit": "ratio",
                                    "n": bench.attempted}
        contract = END_TO_END

    report = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "tiny": tiny, "environment": environment(), "metrics": metrics,
        "failures": bench.failures[:10], "untraced": tracer.missing if trace else [],
        "samples_s": {k: v for k, v in series.items() if k in ("plain", "traced", "ref")},
    }
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": u} for k, u in contract.items()},
    }
    STATE.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (STATE / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if trace:
        (STATE / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="ups-track | reg-sweep | mc-noisy")
    parser.add_argument("--seed", type=int, help="workload seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seed = WORKLOADS[args.workload].bundled_seed if args.seed is None else args.seed
    report, result = measure(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
