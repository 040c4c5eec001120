"""Command-line interface.

Subcommands: simulate | design | sweep | montecarlo | eval. Each takes an INI
config file (see config.py), writes its outputs atomically into the output
directory, and drops a ``config_echo.ini`` with every resolved value so the
run can be reproduced exactly from the echo.

Exit codes: 0 success, 1 numerical-stage failure, 2 input/parse failure, the
library's InputErrors included, named by the config key in ``INPUT_KEYS``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import storage
from .config import ConfigError, RunConfig
from .experiments import (
    RegulationScenario,
    TrackingScenario,
    check_synthesis,
    convergence_sweep,
    estimate,
    evaluate_closed_loop,
    monte_carlo_obs,
    synthesize,
)
from .plant_sim import InputError, generate_signal, simulate
from .storage import FLOAT_FMT

OUTPUT_DIR_ENV = "DDLQR_OUTPUT_DIR"
# The config key that sets each parameter an InputError names, by command where it differs.
INPUT_KEYS = {"Q": "[lqr] q", "R": "[lqr] r", "A": "[model] a", "B": "[model] b",
              "C": "[model] c", "E": "[model] e", "K": "[io] gain", "x0": "[eval] x0",
              "depth": "[estimation] depth", "width": "[estimation] width",
              "runs": "[montecarlo] runs", "base_seed": "[montecarlo] seed",
              "noise_variance": "[montecarlo] variance", "frequency": "[reference] frequency",
              "channels": "[reference] channels",
              "horizon": {"design": "[lqr] horizon", "sweep": "[sweep] horizons",
                          "eval": "[eval] horizon"}}


def _output_dir(args, cfg: RunConfig) -> Path:
    """The output directory; the first file written into it creates it."""
    return Path(args.output_dir or cfg.get("io", "output_dir", os.environ.get(OUTPUT_DIR_ENV, ".")))


def _write_report(cfg: RunConfig, path: Path, lines) -> None:
    """Write ``config_echo.ini`` beside ``path``, then ``path``: the report ``lines``
    followed by the same echo."""
    echo = cfg.echo()
    storage.write_text(path.parent / "config_echo.ini", echo)
    storage.write_text(path, "\n".join(lines) + "\n\n# resolved configuration\n" + echo)


def _read_input(read, key: str, path: str):
    """Read the ``[io] key`` file; an unreadable or malformed file is a config error."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[io] {key}: {exc}") from exc


def _simulate_dataset(cfg: RunConfig):
    """The [model] plant and its record simulated under [signal] and [noise]."""
    model = cfg.model()
    spec = cfg.signal(model)
    v, variance = None, cfg.get("noise", "variance", 0.0)
    if variance > 0:  # one noise column per column of E; simulate refuses v without E
        rng = np.random.default_rng(cfg.get("noise", "seed", 0))
        v = rng.normal(0.0, np.sqrt(variance), size=(spec.length,) + np.shape(model.E)[1:])
    return model, simulate(model, generate_signal(spec), v=v,
                           noise_mode=cfg.get("noise", "mode", "process"))


def _load_or_simulate_dataset(cfg: RunConfig):
    """Dataset from the [io] dataset file, or simulated from [model]+[signal] if unset."""
    dataset = cfg.get("io", "dataset")
    if dataset is None:
        return _simulate_dataset(cfg)
    return cfg.model(), _read_input(storage.read_dataset, "dataset", dataset)


def _estimate(cfg: RunConfig, model, data, horizons):
    """The one estimate that every horizon is synthesized from, with the weights it was
    made for. ``synthesize``'s rules are checked for the longest horizon before
    estimating, with q counting the internal-model states."""
    depth = cfg.get("estimation", "depth", required=True)
    weights = cfg.weights()
    imc = cfg.imc(default_ts=model.sample_time)
    q = data.n_outputs * (1 + (imc.order if imc is not None else 0))
    check_synthesis(weights, max(horizons), depth, q, data.n_inputs)
    est = estimate(data, depth, cfg.get("estimation", "width"),
                   cfg.get("estimation", "algorithm", "alg1"), imc)
    return est, weights


def cmd_simulate(cfg: RunConfig, outdir: Path) -> int:
    # simulate writes [io] dataset: whatever is there is replaced, never read
    _, data = _simulate_dataset(cfg)
    target = cfg.get("io", "dataset", str(outdir / "dataset.csv"))
    storage.write_dataset(target, data)
    cfg.set_resolved("io", "dataset", target)
    storage.write_text(outdir / "config_echo.ini", cfg.echo())
    print(f"wrote {data.n_samples} samples to {target}")
    return 0


def cmd_design(cfg: RunConfig, outdir: Path) -> int:
    model, data = _load_or_simulate_dataset(cfg)
    horizon = cfg.get("lqr", "horizon", required=True)
    est, weights = _estimate(cfg, model, data, [horizon])
    cfg.set_resolved("estimation", "width", est.width)
    design = synthesize(est, weights, horizon)
    storage.write_matrix(outdir / "gain.csv", design.K)
    _write_report(cfg, outdir / "design.txt", [f"gain horizon: {design.horizon}"] + [
        f"{k}: {v}" for k, v in sorted(design.diagnostics.items())])
    print(f"wrote gain to {outdir / 'gain.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    model, data = _load_or_simulate_dataset(cfg)
    horizons = cfg.get("sweep", "horizons", required=True)
    est, weights = _estimate(cfg, model, data, horizons)
    rows = convergence_sweep(model, est, weights, horizons)
    lines = ["horizon,gain_error"] + [f"{n},{FLOAT_FMT % e}" for n, e in rows]
    storage.write_text(outdir / "sweep.csv", "\n".join(lines) + "\n")
    _write_report(cfg, outdir / "sweep.txt",
                  [f"horizon {n}: max-entry gain error {e:.6e}" for n, e in rows])
    print(f"wrote sweep table to {outdir / 'sweep.csv'}")
    return 0


def cmd_montecarlo(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.model()
    spec = cfg.signal(model)
    # montecarlo keys left out take monte_carlo_obs's defaults
    options = {name: cfg.get("montecarlo", key) for key, name in (
        ("seed", "base_seed"), ("noise_mode", "noise_mode"), ("fixed_input", "fixed_input"))
        if cfg.has("montecarlo", key)}
    reports = monte_carlo_obs(
        model, spec, cfg.get("estimation", "depth", required=True),
        cfg.get("montecarlo", "runs", required=True),
        noise_variance=cfg.get("montecarlo", "variance", required=True),
        width=cfg.get("estimation", "width"), **options,
    )
    eig_lines = ["algorithm,quantity," + ",".join(
        f"value{i + 1}" for i in range(len(reports[0].covariance_eigenvalues)))]
    summary = []
    for rep in reports:
        for name in ("mean", "covariance", "mse", "second_moment"):
            storage.write_matrix(outdir / f"mc_{rep.algorithm}_{name}.csv", getattr(rep, name))
        for name in ("covariance", "mse", "second_moment"):
            eig_lines.append(f"{rep.algorithm},{name}," + ",".join(
                FLOAT_FMT % v for v in getattr(rep, f"{name}_eigenvalues")))
        summary.append(f"{rep.algorithm}: runs {rep.runs}, failures {rep.failures}")
        summary += [f"  failure reason      {reason} ({count} runs)"
                    for reason, count in rep.failure_reasons.items()]
        summary += [
            f"  mean                {np.array2string(rep.mean.ravel(), precision=6)}",
            f"  cov eigenvalues     {np.array2string(rep.covariance_eigenvalues, precision=6)}",
            f"  mse eigenvalues     {np.array2string(rep.mse_eigenvalues, precision=6)}",
            f"  2nd-moment eigvals  {np.array2string(rep.second_moment_eigenvalues, precision=6)}",
        ]
    storage.write_text(outdir / "mc_eigenvalues.csv", "\n".join(eig_lines) + "\n")
    _write_report(cfg, outdir / "montecarlo.txt", summary)
    print(f"wrote Monte Carlo reports to {outdir}")
    return 0


def cmd_eval(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.model()
    gain_path = cfg.get("io", "gain", required=True)
    K = _read_input(storage.read_matrix, "gain", gain_path)
    if not np.all(np.isfinite(K)):
        raise ConfigError(f"[io] gain {gain_path} has non-finite entries")
    weights = cfg.weights()
    horizon = cfg.get("eval", "horizon", required=True)
    imc = cfg.imc(default_ts=model.sample_time)
    if imc is None:
        scenario = RegulationScenario(x0=cfg.get("eval", "x0", required=True))
    else:
        scenario = TrackingScenario(imc=imc, reference=cfg.signal(model, section="reference"))
    metrics = evaluate_closed_loop(model, K, weights, scenario, horizon)
    rows = [
        ("cost", metrics.cost),
        ("spectral_radius", metrics.spectral_radius),
        ("steady_state_error", metrics.steady_state_error),
    ]
    if metrics.thd is not None:
        rows.append(("thd", metrics.thd))
    storage.write_text(
        outdir / "eval.csv",
        "metric,value\n" + "\n".join(f"{k},{FLOAT_FMT % v}" for k, v in rows) + "\n",
    )
    _write_report(cfg, outdir / "eval.txt", [f"{k}: {v:.9g}" for k, v in rows])
    print(f"wrote metrics to {outdir / 'eval.csv'}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "design": cmd_design,
    "sweep": cmd_sweep,
    "montecarlo": cmd_montecarlo,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlqr",
        description="Data-driven LQR design from input/state/output batches",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="INI configuration file")
    parser.add_argument("--output-dir", help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a scalar config key (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.set)
        outdir = _output_dir(args, cfg)
        return COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        key = INPUT_KEYS.get(exc.param, exc.param)
        key = key.get(args.command, exc.param) if isinstance(key, dict) else key
        print(f"config error: {key} {exc.detail}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
