"""Output digest: one sha256 per output of a fixed set of ``ddlqr`` commands.

Run as ``python tests/output_digest.py [TREE]``; pytest does not collect it. TREE is a
checkout of this repository (default: the one holding this script), whose ``src/`` and
``configs/`` the commands run. Each command runs in its own process, and all write
under one temporary directory. Every output file, and each command's stdout and
stderr, is hashed after that directory's path is replaced by ``<out>``, so a line that
differs only in the output path hashes the same and every other byte counts. To check
that a change keeps its outputs byte for byte, digest the parent's tree and the
change's, and ``diff`` the two listings.

The commands: ``simulate`` and ``design`` on the regulation demo with alg1, with
alg2 and with process noise (``noise.variance=1e-4``, ``model.e=[[1,0],[0,1]]``);
``design`` on the tracking demo; ``sweep`` over horizons 10 to 50 with each
algorithm; ``eval`` of the alg1 regulation gain from x0 = [1, 0] over 200 steps and
of the tracking gain; and the bundled ``montecarlo`` study at 500 runs. They take
a few seconds on 2 CPUs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP = ["sweep.horizons=[10,20,30,40,50]"]
# (output directory, command, config, --set overrides); "{out}" is the temporary directory
COMMANDS = [
    ("simulate", "simulate", "regulation_demo.ini", []),
    ("design-alg1", "design", "regulation_demo.ini", []),
    ("design-alg2", "design", "regulation_demo.ini", ["estimation.algorithm=alg2"]),
    ("design-noisy", "design", "regulation_demo.ini",
     ["noise.variance=1e-4", "model.e=[[1,0],[0,1]]"]),
    ("design-tracking", "design", "ups_tracking_demo.ini", []),
    ("sweep-alg1", "sweep", "regulation_demo.ini", SWEEP),
    ("sweep-alg2", "sweep", "regulation_demo.ini", SWEEP + ["estimation.algorithm=alg2"]),
    ("eval-regulation", "eval", "regulation_demo.ini",
     ["io.gain={out}/design-alg1/gain.csv", "eval.x0=[1,0]", "eval.horizon=200"]),
    ("eval-tracking", "eval", "ups_tracking_demo.ini", ["io.gain={out}/design-tracking/gain.csv"]),
    ("montecarlo", "montecarlo", "noisy_estimation_mc.ini", ["montecarlo.runs=500"]),
]


def digest(tree: Path) -> list[str]:
    """``sha256  name`` of every output of ``COMMANDS`` run on ``tree``, sorted by name."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    lines = []
    with tempfile.TemporaryDirectory(prefix="ddlqr-digest-") as tmp:
        out = Path(tmp)
        outputs = {}
        for name, command, config, sets in COMMANDS:
            argv = [sys.executable, "-m", "ddlqr.cli", command, str(tree / "configs" / config),
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


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    print("\n".join(digest(root.resolve())))
