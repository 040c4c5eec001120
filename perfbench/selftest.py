"""Smoke self-test of the benchmark at tiny input sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload emits every metric with a unit in both modes,
that BENCHMARK.json names exactly those workloads and metrics, that a
corrupted ``gain.csv`` fails the ups-track check, and that the benchmark exits
nonzero without a result where there is no program to measure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import run

# Metrics of the report line: in every workload, and per workload.
REPORTED = {"setup_s", "cycle_s.p50", "peak_rss_mb", "failed_frac"}
REPORTED_BY_WORKLOAD = {
    "ups-track": {"design_s.p50", "eval_s.p50", "gain_err"},
    "reg-sweep": {"sweep_s.p50", "gain_err"},
    "mc-noisy": {"montecarlo_s.p50", "obs_mean_err"},
}


def check_metrics(metrics: dict, names) -> None:
    missing = set(names) - metrics.keys()
    assert not missing, f"metrics not emitted: {sorted(missing)}"
    for name, metric in metrics.items():
        assert isinstance(metric["unit"], str) and metric["unit"], f"{name} has no unit"
        assert math.isfinite(metric["value"]), f"{name} = {metric['value']!r}"


def check_benchmark_json(workloads) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def corrupted_gain_is_caught(cls) -> None:
    work = run.STATE / "selftest-gain"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = cls(cls.bundled_seed, work, tiny=True)
        bench = run.Bench(run.load_program(), workload)
        design, evaluate = workload.cycle
        bench.run(design)
        assert not bench.failures, bench.failures
        gain = design.outdir / "gain.csv"
        K = np.loadtxt(gain, delimiter=",", ndmin=2)
        np.savetxt(gain, 1.5 * K, delimiter=",", fmt="%.17g")
        problems, _ = workload.check(design)
        assert any("gain error" in p for p in problems), problems
        bench.run(evaluate)
        bench.verify(design, 0)
        assert any(f["command"] == "design" for f in bench.failures), bench.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bare_checkout_fails() -> None:
    bare = run.STATE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ups-track", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    os.chdir(run.ROOT)
    run.load_program()
    from workloads import WORKLOADS

    check_benchmark_json(WORKLOADS)
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            report, result = run.measure(name, cls.bundled_seed, 0.5, trace,
                                         tiny=True, cold_repeats=1)
            assert result["correct"], report["failures"]
            expected = run.per_layer_units() if trace else run.END_TO_END
            assert result["metrics"].keys() == expected.keys()
            check_metrics(result["metrics"], expected)
            if not trace:
                check_metrics(report["metrics"], REPORTED | REPORTED_BY_WORKLOAD[name])
            print(f"ok  {name} trace={int(trace)}: {len(result['metrics'])} metrics")
    corrupted_gain_is_caught(WORKLOADS["ups-track"])
    print("ok  corrupted gain.csv fails the ups-track check")
    bare_checkout_fails()
    print("ok  no program to measure: nonzero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
