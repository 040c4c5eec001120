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
from .imc import augment_model
from .plant_sim import InputError, generate_signal, simulate

OUTPUT_DIR_ENV = "DDLQR_OUTPUT_DIR"
FMT = "%.17g"
# The config key that sets each parameter an InputError names, by command where it differs.
INPUT_KEYS = {"Q": "[lqr] q", "R": "[lqr] r", "E": "[model] e", "K": "[io] gain",
              "x0": "[eval] x0", "depth": "[estimation] depth", "width": "[estimation] width",
              "runs": "[montecarlo] runs", "base_seed": "[montecarlo] seed",
              "noise_variance": "[montecarlo] variance",
              "horizon": {"design": "[lqr] horizon", "sweep": "[sweep] horizons",
                          "eval": "[eval] horizon"}}


def _output_dir(args, cfg: RunConfig) -> Path:
    """The output directory; the first file written into it creates it."""
    return Path(args.output_dir or cfg.get("io", "output_dir", os.environ.get(OUTPUT_DIR_ENV, ".")))


def _write_echo(cfg: RunConfig, outdir: Path) -> str:
    echo = cfg.echo()
    storage.write_text(outdir / "config_echo.ini", echo)
    return echo


def _read_input(read, key: str, path: str):
    """Read the ``[io] key`` file; an unreadable or malformed file is a config error."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[io] {key}: {exc}") from exc


def _simulate_dataset(cfg: RunConfig):
    """The [model] plant and its record simulated under [signal] and [noise]."""
    model = cfg.model()
    ts = model.sample_time if model.sample_time is not None else 1.0
    spec = cfg.signal(default_channels=model.n_inputs, default_ts=ts)
    v, variance = None, cfg.get("noise", "variance", 0.0)
    if variance > 0:
        if model.E is None:
            raise ConfigError("[noise] requires the model to define E")
        rng = np.random.default_rng(cfg.get("noise", "seed", 0))
        v = rng.normal(0.0, np.sqrt(variance), size=(spec.length, model.E.shape[1]))
    return model, simulate(model, generate_signal(spec), v=v,
                           noise_mode=cfg.get("noise", "mode", "process"))


def _load_or_simulate_dataset(cfg: RunConfig):
    """Dataset from the [io] dataset file, or simulated from [model]+[signal] if unset."""
    dataset = cfg.get("io", "dataset")
    if dataset is None:
        return _simulate_dataset(cfg)
    return cfg.model(), _read_input(storage.read_dataset, "dataset", dataset)


def _estimate(cfg: RunConfig, model, data, horizons):
    """The one estimate that every horizon is synthesized from, with the weights and
    the internal model it was made for. ``synthesize``'s rules are checked for the
    longest horizon before estimating, with q counting the internal-model states."""
    depth = cfg.get("estimation", "depth", required=True)
    weights = cfg.weights()
    imc = cfg.imc(default_ts=model.sample_time if model.sample_time is not None else 1.0)
    q = data.n_outputs * (1 + (imc.order if imc is not None else 0))
    check_synthesis(weights, max(horizons), depth, q, data.n_inputs, imc is not None)
    est = estimate(data, depth, cfg.get("estimation", "width"),
                   cfg.get("estimation", "algorithm", "alg1"), imc)
    return est, weights, imc


def cmd_simulate(cfg: RunConfig, outdir: Path) -> int:
    # simulate writes [io] dataset: whatever is there is replaced, never read
    _, data = _simulate_dataset(cfg)
    target = cfg.get("io", "dataset", str(outdir / "dataset.csv"))
    storage.write_dataset(target, data)
    cfg.set_resolved("io", "dataset", target)
    _write_echo(cfg, outdir)
    print(f"wrote {data.n_samples} samples to {target}")
    return 0


def cmd_design(cfg: RunConfig, outdir: Path) -> int:
    model, data = _load_or_simulate_dataset(cfg)
    horizon = cfg.get("lqr", "horizon", required=True)
    est, weights, _ = _estimate(cfg, model, data, [horizon])
    cfg.set_resolved("estimation", "width", est.width)
    design = synthesize(est, weights, horizon)
    storage.write_matrix(outdir / "gain.csv", design.K)
    echo = _write_echo(cfg, outdir)
    lines = [f"gain horizon: {design.horizon}"]
    lines += [f"{k}: {v}" for k, v in sorted(design.diagnostics.items())]
    lines += ["", "# resolved configuration", echo]
    storage.write_text(outdir / "design.txt", "\n".join(lines) + "\n")
    print(f"wrote gain to {outdir / 'gain.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    model, data = _load_or_simulate_dataset(cfg)
    horizons = cfg.get("sweep", "horizons", required=True)
    est, weights, imc = _estimate(cfg, model, data, horizons)
    # the Riccati reference is the plant the estimate saw, internal-model states included
    rows = convergence_sweep(model if imc is None else augment_model(model, imc), est,
                             weights, horizons)
    lines = ["horizon,gain_error"] + [f"{n},{FMT % e}" for n, e in rows]
    storage.write_text(outdir / "sweep.csv", "\n".join(lines) + "\n")
    echo = _write_echo(cfg, outdir)
    storage.write_text(
        outdir / "sweep.txt",
        "\n".join(f"horizon {n}: max-entry gain error {e:.6e}" for n, e in rows)
        + "\n\n# resolved configuration\n" + echo,
    )
    print(f"wrote sweep table to {outdir / 'sweep.csv'}")
    return 0


def cmd_montecarlo(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.model()
    ts = model.sample_time if model.sample_time is not None else 1.0
    spec = cfg.signal(default_channels=model.n_inputs, default_ts=ts)
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
        storage.write_matrix(outdir / f"mc_{rep.algorithm}_mean.csv", rep.mean)
        storage.write_matrix(outdir / f"mc_{rep.algorithm}_covariance.csv", rep.covariance)
        storage.write_matrix(outdir / f"mc_{rep.algorithm}_mse.csv", rep.mse)
        storage.write_matrix(outdir / f"mc_{rep.algorithm}_second_moment.csv", rep.second_moment)
        for name, values in (
            ("covariance", rep.covariance_eigenvalues),
            ("mse", rep.mse_eigenvalues),
            ("second_moment", rep.second_moment_eigenvalues),
        ):
            eig_lines.append(f"{rep.algorithm},{name}," + ",".join(FMT % v for v in values))
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
    echo = _write_echo(cfg, outdir)
    storage.write_text(
        outdir / "montecarlo.txt",
        "\n".join(summary) + "\n\n# resolved configuration\n" + echo,
    )
    print(f"wrote Monte Carlo reports to {outdir}")
    return 0


def cmd_eval(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.model()
    ts = model.sample_time if model.sample_time is not None else 1.0
    gain_path = cfg.get("io", "gain", required=True)
    K = _read_input(storage.read_matrix, "gain", gain_path)
    if not np.all(np.isfinite(K)):
        raise ConfigError(f"[io] gain {gain_path} has non-finite entries")
    weights = cfg.weights()
    horizon = cfg.get("eval", "horizon", required=True)
    if cfg.get("eval", "scenario", required=True) == "regulation":
        scenario = RegulationScenario(x0=cfg.get("eval", "x0", required=True))
    else:
        imc = cfg.imc(default_ts=ts)
        if imc is None:
            raise ConfigError("tracking scenario requires an [imc] section")
        if not cfg.has("reference", "length"):
            cfg.set_resolved("reference", "length", horizon)
        ref = cfg.signal(default_channels=model.n_outputs, default_ts=ts, section="reference")
        theta = ref.frequency * ref.sample_time
        if ref.kind == "sinusoid" and not 0.0 < theta < np.pi:
            raise ConfigError(f"[reference] frequency * ts = {theta:.6g} must lie inside (0, pi)")
        scenario = TrackingScenario(imc=imc, reference=ref)
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
        "metric,value\n" + "\n".join(f"{k},{FMT % v}" for k, v in rows) + "\n",
    )
    echo = _write_echo(cfg, outdir)
    storage.write_text(
        outdir / "eval.txt",
        "\n".join(f"{k}: {v:.9g}" for k, v in rows) + "\n\n# resolved configuration\n" + echo,
    )
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
