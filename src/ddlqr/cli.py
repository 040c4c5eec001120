"""Command-line interface.

Subcommands: simulate | design | sweep | montecarlo | eval. Each takes an INI
config file (see config.py), writes its outputs atomically into the output
directory, and drops a ``config_echo.ini`` with every resolved value so the
run can be reproduced exactly from the echo.

Exit codes: 0 success, 1 numerical-stage failure, 2 input/parse failure, the
library's InputErrors included, named by the config key in ``INPUT_KEYS``.

Each command runs on one OpenBLAS thread, and ``main`` restores the caller's count on
every exit: thread counts split a design's wide QR differently, which moves the outputs'
last digits, and one thread is also the faster path at these sizes. OPENBLAS_NUM_THREADS
cannot do this once numpy is imported. The setter comes from numpy's own OpenBLAS, whose
dgeqrf ``markov`` factors with; without it, commands run as set.
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
    check_plant,
    check_synthesis,
    convergence_sweep,
    estimate,
    evaluate_closed_loop,
    monte_carlo_obs,
    synthesize,
)
from .markov import _numpy_openblas
from .plant_sim import InputError, generate_signal, simulate
from .storage import FLOAT_FMT

OUTPUT_DIR_ENV = "DDLQR_OUTPUT_DIR"
# The config key that sets each parameter an InputError names, by command where it differs.
INPUT_KEYS = {"Q": "[lqr] q", "R": "[lqr] r", "A": "[model] a", "B": "[model] b",
              "C": "[model] c", "E": "[model] e", "K": "[io] gain", "x0": "[eval] x0",
              "depth": "[estimation] depth", "width": "[estimation] width",
              "runs": "[montecarlo] runs", "base_seed": "[montecarlo] seed",
              "noise_variance": "[noise] variance", "frequency": "[reference] frequency",
              "amplitude": "[reference] amplitude", "omega_n": "[imc] omega_n",
              "length": "[signal] length", "seed": "[signal] seed",
              "register_order": "[signal] register_order", "hold": "[signal] hold",
              "horizon": {"design": "[lqr] horizon", "sweep": "[sweep] horizons",
                          "eval": "[eval] horizon"}}


def _output_dir(args) -> Path:
    """``--output-dir``, else ``$DDLQR_OUTPUT_DIR``, else ``.``; the first write creates it."""
    return Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV, "."))


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
        raise ConfigError(f"[io] {key} cannot be read: {exc}") from exc


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
    """Dataset from the [io] dataset file, or simulated from [model]+[signal] if unset. A
    [model] beside a file is held to its record's states, outputs and inputs."""
    dataset = cfg.get("io", "dataset")
    if dataset is None:
        return _simulate_dataset(cfg)
    model, data = cfg.model(), _read_input(storage.read_dataset, "dataset", dataset)
    check_plant(model, data.n_states, data.n_outputs, data.n_inputs)
    return model, data


def _estimate(cfg: RunConfig, model, data, horizons):
    """The one estimate that every horizon is synthesized from, with the weights it was
    made for. ``synthesize``'s rules are checked for the longest horizon before
    estimating, with q counting the internal-model states."""
    depth = cfg.get("estimation", "depth", required=True)
    weights = cfg.weights()
    imc = cfg.imc(model.sample_time)
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
    K, figures = synthesize(est, weights, horizon)
    storage.write_matrix(outdir / "gain.csv", K)
    _write_report(cfg, outdir / "design.txt", [f"gain horizon: {horizon}"] + [
        f"{k}: {v}" for k, v in sorted(figures.items())])
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
    reports = monte_carlo_obs(
        model, cfg.signal(model), cfg.get("estimation", "depth", required=True),
        cfg.get("montecarlo", "runs", required=True), cfg.get("noise", "variance", required=True),
        cfg.get("montecarlo", "seed", 0), cfg.get("estimation", "width"),
        noise_mode=cfg.get("noise", "mode", "process"),
        fixed_input=cfg.get("montecarlo", "fixed_input", False))
    eig_lines = ["algorithm,quantity," + ",".join(
        f"value{i + 1}" for i in range(len(reports[0].covariance)))]
    summary = []
    for rep in reports:
        for name in ("mean", "covariance", "mse", "second_moment"):
            storage.write_matrix(outdir / f"mc_{rep.algorithm}_{name}.csv", getattr(rep, name))
        spectra = {name: np.linalg.eigvalsh(getattr(rep, name))
                   for name in ("covariance", "mse", "second_moment")}
        eig_lines += [f"{rep.algorithm},{name}," + ",".join(FLOAT_FMT % v for v in eig)
                      for name, eig in spectra.items()]
        summary.append(f"{rep.algorithm}: runs {rep.runs}, "
                       f"failures {sum(rep.failure_reasons.values())}")
        summary += [f"  failure reason      {reason} ({count} runs)"
                    for reason, count in rep.failure_reasons.items()]
        summary += [f"  {label:<20}{np.array2string(value, precision=6)}" for label, value in (
            ("mean", rep.mean.ravel()), ("cov eigenvalues", spectra["covariance"]),
            ("mse eigenvalues", spectra["mse"]), ("2nd-moment eigvals", spectra["second_moment"]))]
    storage.write_text(outdir / "mc_eigenvalues.csv", "\n".join(eig_lines) + "\n")
    _write_report(cfg, outdir / "montecarlo.txt", summary)
    print(f"wrote Monte Carlo reports to {outdir}")
    return 0


def cmd_eval(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.model()
    K = _read_input(storage.read_matrix, "gain", cfg.get("io", "gain", required=True))
    weights = cfg.weights()
    horizon = cfg.get("eval", "horizon", required=True)
    imc = cfg.imc(model.sample_time)
    if imc is None:
        cfg.refuse("reference", None, "without an [imc] section")
        scenario = RegulationScenario(x0=cfg.get("eval", "x0", required=True))
    else:
        cfg.refuse("eval", "x0", "beside an [imc] section, whose tracking run starts at rest")
        sinusoid = cfg.get("reference", "kind", required=True) == "sinusoid"
        if not sinusoid:
            cfg.refuse("reference", "frequency", "by kind = constant")
        frequency = cfg.get("reference", "frequency", required=True) if sinusoid else None
        scenario = TrackingScenario(imc, cfg.get("reference", "amplitude", 1.0), frequency)
    rows = evaluate_closed_loop(model, K, weights, scenario, horizon).items()
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
    blas = _numpy_openblas()
    set_threads = getattr(blas, "openblas_set_num_threads_local", None)
    threads = set_threads(1) if set_threads else None  # returns the old count
    try:
        cfg = RunConfig.load(args.config, args.set)
        outdir = _output_dir(args)
        return COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        key = INPUT_KEYS.get(exc.param, exc.param)
        key = key.get(args.command, exc.param) if isinstance(key, dict) else key
        print(f"config error: {key} {exc.detail}", file=sys.stderr)
        return 2
    except ValueError as exc:  # numpy's LinAlgError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if set_threads:
            set_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
