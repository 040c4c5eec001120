"""In-memory span recorder wrapped around ddlqr's public functions.

``install`` replaces each function in ``TRACED`` at every binding inside the
``ddlqr`` package (its own module and every ``from .x import y`` copy) and the
``numpy.linalg`` entry points in ``LINALG`` with a wrapper that records a span:
name, start, end, parent and root. The root span of each CLI command is
``cli.main``. ``uninstall`` puts the originals back.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# module -> functions, named as "<module>.<function>" in the metrics.
TRACED = {
    "cli": ["main"],
    "config": ["RunConfig.load"],
    "storage": ["write_matrix", "write_text"],
    "experiments": ["design_gain", "convergence_sweep", "monte_carlo_obs",
                    "evaluate_closed_loop"],
    "markov": ["build_data_matrices", "estimate_predictor"],
    "observability": ["estimate_obs_alg1", "estimate_obs_alg2"],
    "lqr": ["dd_lqr_gain", "dare_solve"],
    "matrix_kit": ["block_hankel", "block_toeplitz_strict_lower", "pinv"],
    "plant_sim": ["generate_signal", "simulate", "tracking_loop_simulate"],
    "imc": ["filter_imc_states", "augment_dataset"],
}
LINALG = ["svd", "pinv", "qr", "solve"]


def svd_flops(args, kwargs) -> int:
    """Computed SVD cost m*n*min(m, n), summed over any batch axes."""
    a = np.asarray(args[0] if args else kwargs["a"])
    m, n = a.shape[-2:]
    return int(np.prod(a.shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, root index]
        self.calls = Counter()
        self.self_s = Counter()
        self.flops = Counter()
        self.missing = []  # traced names the program no longer defines
        self._open = []  # [span index, child seconds] of the spans in progress
        self._patches = []

    def _wrap(self, name, fn, flops=None):
        spans, calls, self_s, stack = self.spans, self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1,
                      stack[0][0] if stack else index]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            if flops is not None:
                self.flops[name] += flops(args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return span

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ddlqr" or name.startswith("ddlqr."))]
        self.missing = []
        for module_name, functions in TRACED.items():
            module = sys.modules.get(f"ddlqr.{module_name}")
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    self.missing.append(name)
                elif isinstance(original, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, original.__func__)))
                else:
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for binding in [k for k, v in vars(mod).items() if v is original]:
                            self._patch(mod, binding, wrapper)
        for attr in LINALG:
            fn = np.linalg.__dict__[attr]
            self._patch(np.linalg, attr, self._wrap(
                f"linalg.{attr}", fn, svd_flops if attr == "svd" else None))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "root"], "spans": self.spans}
