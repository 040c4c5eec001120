"""Mutation smoke: each mutant in ``MUTANTS`` must make the tier-1 suite fail.

Run as ``python tests/mutation_smoke.py``; pytest does not collect it. The script copies
the repository's ``src/``, ``tests/``, ``configs/``, ``pyproject.toml`` and ``README.md``
(whose key table a test reads) to a temporary directory and runs the suite there, first
unmutated (it must pass), then once per mutant with that one source edit applied. It
prints the tests that catch each mutant. The exit status is 1 when the unmutated copy
fails, an edit no longer matches the source exactly once, or a mutant is caught by no
test. Each run takes as long as the suite, so the whole smoke takes about twenty times
that.

The technique is mutation testing: a check that no plausible fault can break shows
nothing (Jia & Harman 2011, "An analysis and survey of the development of mutation
testing", IEEE Trans. Softw. Eng. 37(5)).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")
# (what the mutant breaks, module under src/ddlqr, source text, its replacement)
MUTANTS = [
    ("each block sub-diagonal of the Toeplitz factor takes its first copy, not the mean",
     "markov.py", "-1, -3)).mean(axis=-3)", "-1, -3))[..., 0, :, :]"),
    ("excitation ranks cut at RANK_TOL 1e-5", "markov.py", "RANK_TOL = 1e-8", "RANK_TOL = 1e-5"),
    ("null directions cut at PINV_TOL 1e-9", "markov.py", "PINV_TOL = 1e-12", "PINV_TOL = 1e-9"),
    ("null directions of L_Yp,Yp judged against max(s_in0, s_yp0), in mixed units", "markov.py",
     "_rank(s_yp, s_yp[..., 0], PINV_TOL)",
     "_rank(s_yp, np.maximum(s_in[..., 0], s_yp[..., 0]), PINV_TOL)"),
    ("regressor_rank judged against max(s_in0, s_yp0), in mixed units", "markov.py",
     "_rank(s_yp, s_yp[..., 0], RANK_TOL)",
     "_rank(s_yp, np.maximum(s_in[..., 0], s_yp[..., 0]), RANK_TOL)"),
    ("R scaled by 1e-3 in the gain bracket R + M' Gamma M", "lqr.py",
     "bracket = weights.R + MtG @ M", "bracket = 1e-3 * weights.R + MtG @ M"),
    ("a sinusoid run's window is THD_PERIODS periods of round(period) samples", "experiments.py",
     "span = np.arange(THD_PERIODS, 1000) * period",
     "span = np.arange(THD_PERIODS, 1000) * round(period)"),
    ("a sinusoid tracking run reads its first output only", "experiments.py",
     "periods) for i in range(q)]", "periods) for i in range(1)]"),
    ("a sinusoid run's amplitude is compared with the signed amplitude", "experiments.py",
     "np.abs(amp - abs(amplitude))", "np.abs(amp - amplitude)"),
    ("the sinusoid reference runs at sample time 1, not the model's", "experiments.py",
     "np.sin(frequency * k * model.sample_time)", "np.sin(frequency * k)"),
    ("Monte Carlo alg2 runs the Markov predictor", "experiments.py",
     """obs = (_estimate(dm, algorithm)[1] if algorithm == "alg1"
                   else _stage("observability", estimate_obs_alg2, dm)[0])""",
     "obs = _estimate(dm, algorithm)[1]"),
    ("a model matrix with no columns (B, E) or no rows (C) passes", "plant_sim.py",
     """            if m is not None and not m.shape[1 - axis]:
                raise InputError(name, f"has no {('rows', 'columns')[1 - axis]}")
""", ""),
    ("[estimation] depth accepts 1", "config.py",
     '"depth": Key("int", ">= 2")', '"depth": Key("int", ">= 1")'),
    ("montecarlo leaves [noise] mode unread, so its runs take the library's default",
     "cli.py", '\n        noise_mode=cfg.get("noise", "mode", "process"),', ""),
    ("the bulk seeding swaps PCG64's seed and increment words", "plant_sim.py",
     "h[i + 3] << 32 for i in (0, 4))", "h[i + 3] << 32 for i in (4, 0))"),
    ("a register start bit is bit 0 of a 32-bit half, not bit 31", "plant_sim.py",
     "np.array([31, 63], np.uint64)", "np.array([0, 32], np.uint64)"),
    ("commands run on the caller's BLAS thread count, not on one thread", "cli.py",
     "    blas = _numpy_openblas()\n", "    blas = None\n"),
    ("a signal's amplitude may be inf or nan", "plant_sim.py",
     """                ("amplitude", not np.isfinite(self.amplitude), "must be finite"),
""", ""),
    ("the in-place dgeqrf gets the minimal workspace, rows, and factors unblocked", "markov.py",
     "lwork.value = max(1, rows, int(work[0]))", "lwork.value = rows"),
]


def run_suite(tree: Path) -> tuple[int, list[str]]:
    """Exit code of the tier-1 suite in ``tree`` and the ids it reports failed or erred."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True)
    caught = [line.split(" ")[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, caught


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory(prefix="ddlqr-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        code, caught = run_suite(tree)
        print(f"unmutated: exit {code}" + "".join(f"\n    {t}" for t in caught))
        if code != 0:
            return 1
        for number, (what, module, old, new) in enumerate(MUTANTS, 1):
            path = tree / "src" / "ddlqr" / module
            original = path.read_text()
            if original.count(old) != 1:
                print(f"mutant {number} ({what}): its source text is not in {module} once")
                status = 1
                continue
            path.write_text(original.replace(old, new))
            code, caught = run_suite(tree)
            path.write_text(original)
            verdict = f"caught, {len(caught)} failing" if caught else f"NOT CAUGHT (exit {code})"
            print(f"mutant {number} ({what}): {verdict}" + "".join(f"\n    {t}" for t in caught))
            status |= not caught
    return status


if __name__ == "__main__":
    sys.exit(main())
