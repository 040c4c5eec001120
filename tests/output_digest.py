"""Output digest: one sha256 per output of a fixed set of ``ddlqr`` commands.

Run as ``python tests/output_digest.py [TREE] [--against REV]``; pytest does not collect
it. TREE is a checkout of this repository (default: the one holding this script), whose
``src/`` and ``configs/`` the commands run. Each command runs in its own process, with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to ``THREADS``, and all write under
one temporary directory. The wide QR of a design rounds differently under different BLAS
thread counts, which moves the last digits of gains and figures. ``cli.main`` runs every
command on one OpenBLAS thread itself; the digest still sets one thread, so that a revision
from before that setting lists the same hashes. The listing's first line names that
setting, numpy's version and its BLAS, so two listings compare like with like. Every
output file, and each command's stdout and stderr, is hashed after that directory's path
is replaced by ``<out>``, so a line that differs only in the output path hashes the same
and every other byte counts. To check
that a change keeps its outputs byte for byte, pass ``--against`` the parent's revision:
its committed tree is exported with ``git archive`` from the repository that holds this
script (so TREE may be a plain copy, with no git of its own) into a temporary directory,
both trees are digested, and the lines that differ are printed, ``-`` for REV and ``+``
for TREE; the exit status is 1 if any line differs.

The commands: ``simulate`` and ``design`` on the regulation demo with alg1, with
alg2 and with process noise (``noise.variance=1e-4``, ``model.e=[[1,0],[0,1]]``), and
``simulate`` under a white-noise excitation (``signal.kind=white-noise``, whose standard
deviation is the demo's ``[signal] amplitude`` of 1);
``design`` on the tracking demo, and with an integrator internal model in place of
its resonance (``imc.kind=integrator``, ``lqr.q=[[200,0],[0,200]]``); ``sweep`` over
horizons 10 to 50 with each algorithm, and over horizons 50 and 150 on the tracking
demo, which runs the sweep's internal-model branch (the plant augmented before the
Riccati gain); ``eval`` of the alg1 regulation gain from x0 = [1, 0] over 200 steps,
of the tracking gain (a sinusoid run, with a ``thd`` row), of the integrator gain
under a constant reference (``reference.kind=constant``: the tracking branch with no
``thd`` row), and of the alg1 gain on an unstable plant (``model.a=[[2,0],[0,2]]``
over 5000 steps, which reads ``inf`` cost and error and has no ``thd`` row); and the
bundled ``montecarlo`` study at 500 runs, once as bundled and once with one excitation
record for every run under process noise (``montecarlo.fixed_input=true``,
``noise.mode=process``), so the report writer runs both noise modes and the
fixed-input branch, and once from a base seed of two 32-bit words
(``montecarlo.seed=4294967296``). With the white-noise ``simulate``, every path of the
runs' bulk seeding is hashed. The two integrator commands read a copy of the tracking
demo's config without its ``omega_n`` and ``frequency`` lines (``DERIVED``), since an
integrator refuses the first and a constant reference the second; the copy is written
beside the output directory, so it is not hashed.
They take a few seconds on 2 CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]  # the repository holding this script
THREADS = "1"
SWEEP = ["sweep.horizons=[10,20,30,40,50]"]
INTEGRATOR = ["imc.kind=integrator", "lqr.q=[[200,0],[0,200]]"]
# configs made from a bundled one by dropping the lines of some keys: (bundled config, keys)
DERIVED = {"ups_integrator.ini": ("ups_tracking_demo.ini", ("omega_n", "frequency"))}
# (output directory, command, config, --set overrides); "{out}" is the temporary directory
COMMANDS = [
    ("simulate", "simulate", "regulation_demo.ini", []),
    ("simulate-white-noise", "simulate", "regulation_demo.ini",
     ["signal.kind=white-noise"]),
    ("design-alg1", "design", "regulation_demo.ini", []),
    ("design-alg2", "design", "regulation_demo.ini", ["estimation.algorithm=alg2"]),
    ("design-noisy", "design", "regulation_demo.ini",
     ["noise.variance=1e-4", "model.e=[[1,0],[0,1]]"]),
    ("design-tracking", "design", "ups_tracking_demo.ini", []),
    ("sweep-alg1", "sweep", "regulation_demo.ini", SWEEP),
    ("sweep-alg2", "sweep", "regulation_demo.ini", SWEEP + ["estimation.algorithm=alg2"]),
    ("sweep-tracking", "sweep", "ups_tracking_demo.ini", ["sweep.horizons=[50,150]"]),
    ("design-integrator", "design", "ups_integrator.ini", INTEGRATOR),
    ("eval-regulation", "eval", "regulation_demo.ini",
     ["io.gain={out}/design-alg1/gain.csv", "eval.x0=[1,0]", "eval.horizon=200"]),
    ("eval-tracking", "eval", "ups_tracking_demo.ini", ["io.gain={out}/design-tracking/gain.csv"]),
    ("eval-integrator", "eval", "ups_integrator.ini",
     INTEGRATOR + ["reference.kind=constant", "io.gain={out}/design-integrator/gain.csv"]),
    ("eval-unstable", "eval", "regulation_demo.ini",
     ["io.gain={out}/design-alg1/gain.csv", "model.a=[[2,0],[0,2]]", "eval.x0=[1,0]",
      "eval.horizon=5000"]),
    ("montecarlo", "montecarlo", "noisy_estimation_mc.ini", ["montecarlo.runs=500"]),
    ("montecarlo-fixed-process", "montecarlo", "noisy_estimation_mc.ini",
     ["montecarlo.runs=500", "montecarlo.fixed_input=true", "noise.mode=process"]),
    ("montecarlo-wide-seed", "montecarlo", "noisy_estimation_mc.ini",
     ["montecarlo.runs=500", "montecarlo.seed=4294967296"]),
]


def digest(tree: Path) -> list[str]:
    """``sha256  name`` of every output of ``COMMANDS`` run on ``tree``, sorted by name."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": THREADS,
           "OMP_NUM_THREADS": THREADS}
    lines = []
    with tempfile.TemporaryDirectory(prefix="ddlqr-digest-") as tmp:
        configs, out = Path(tmp), Path(tmp) / "out"
        for derived, (bundled, keys) in DERIVED.items():
            source = (tree / "configs" / bundled).read_text().splitlines(keepends=True)
            (configs / derived).write_text(
                "".join(line for line in source if line.partition("=")[0].strip() not in keys))
        outputs = {}
        for name, command, config, sets in COMMANDS:
            path = configs / config if config in DERIVED else tree / "configs" / config
            argv = [sys.executable, "-m", "ddlqr.cli", command, str(path),
                    "--output-dir", str(out / name)]
            for item in sets:
                argv += ["--set", item.format(out=out)]
            proc = subprocess.run(argv, env=env, capture_output=True)
            outputs[f"{name}/exit"] = str(proc.returncode).encode()
            outputs[f"{name}/stdout"], outputs[f"{name}/stderr"] = proc.stdout, proc.stderr
        for path in out.rglob("*"):
            if path.is_file():
                outputs[str(path.relative_to(out))] = path.read_bytes()
        for name, data in sorted(outputs.items()):
            masked = data.replace(str(out).encode(), b"<out>")
            lines.append(f"{hashlib.sha256(masked).hexdigest()}  {name}")
    return lines


def header() -> str:
    """The thread setting the commands run under, numpy's version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# OPENBLAS_NUM_THREADS={THREADS} OMP_NUM_THREADS={THREADS} "
            f"numpy {np.__version__} {blas['name']} {blas['version']}")


def digest_revision(rev: str) -> list[str]:
    """The ``digest`` of revision ``rev``'s committed tree, exported from ``REPO``'s git."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="ddlqr-rev-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return digest(Path(tmp))


def main() -> int:
    parser = argparse.ArgumentParser(description="Hash every output of a fixed set of ddlqr "
                                                 "commands.")
    parser.add_argument("tree", nargs="?", type=Path, default=REPO,
                        help="checkout to digest (default: the one holding this script)")
    parser.add_argument("--against", metavar="REV",
                        help="also digest git revision REV and print the lines that differ")
    args = parser.parse_args()
    tree = args.tree.resolve()
    if args.against is None:
        print("\n".join([header()] + digest(tree)))
        return 0
    old, new = digest_revision(args.against), digest(tree)
    print(header())
    changed = [f"- {line}" for line in old if line not in new]
    changed += [f"+ {line}" for line in new if line not in old]
    print("\n".join(changed) if changed else f"no output differs from {args.against}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
