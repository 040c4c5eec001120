"""Discrete-time LTI simulation and excitation-signal generation.

Produces the synchronized (input, output, state) batches the estimators
consume. Models are plain (A, B, C) triples with outputs y = C x and an
optional state-noise channel E; continuous-time plants enter through
zero-order-hold discretization.

Every simulator is one call of the kernel ``_lti_run``, the recursion
x(k+1) = A x(k) + d_1(k) + d_2(k) + ... over leading batch axes: the open
loop ``simulate`` (A driven by B u; a chunk of ``experiments.monte_carlo_obs`` runs
is one call), ``imc.filter_imc_states`` (A_c driven by -B_c y per output) and the
closed loops of ``experiments.evaluate_closed_loop``. The kernel does not check values: an
unstable loop runs on to inf or nan: ``evaluate_closed_loop`` reports it, ``simulate`` raises.

``zoh_discretize`` takes its exponential from ``_expm``, numpy alone: keep scipy out of
every command. Importing ``scipy.linalg`` added about 0.4 s to each command's start, and
scipy bundles a second OpenBLAS whose thread pool, once its ``expm`` had run, took CPU
from numpy on 2 CPUs: the tracking demo's QR took 0.21 s, not 0.15, and its loop 0.05 s, not 0.034.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

SIGNAL_KINDS = ("prbs", "white-noise", "sinusoid", "constant", "zero")
NOISE_MODES = ("process", "measurement")
# Feedback taps of the maximal-length register of each order: scipy.signal.max_len_seq's table.
MLS_TAPS = {2: [1], 3: [2], 4: [3], 5: [3], 6: [5], 7: [6], 8: [7, 6, 1], 9: [5], 10: [7],
            11: [9], 12: [11, 10, 4], 13: [12, 11, 8], 14: [13, 12, 2], 15: [14],
            16: [15, 13, 4], 17: [14], 18: [11], 19: [18, 17, 14], 20: [17], 21: [19],
            22: [21], 23: [18], 24: [23, 22, 17], 25: [22], 26: [25, 24, 20],
            27: [26, 25, 22], 28: [25], 29: [27], 30: [29, 28, 7], 31: [28], 32: [31, 30, 10]}


class InputError(ValueError):
    """An argument ``param`` that breaks an input rule; the message is ``param`` then
    ``detail``, so a caller can name the argument its own way."""

    def __init__(self, param: str, detail: str):
        super().__init__(f"{param} {detail}")
        self.param, self.detail = param, detail


def as_series(signal) -> np.ndarray:
    """Return a (..., T, d) float array, promoting a 1-D input to a single channel; leading
    axes of an input with more dimensions batch series."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 0:
        raise ValueError("signal must be a series, got a scalar")
    return arr[:, None] if arr.ndim == 1 else arr


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class StateSpaceModel:
    """Discrete-time model x(k+1) = A x + B u + E v, y(k) = C x.

    E is an optional state-noise channel; omitting it means the state noise
    is absent. ``sample_time`` is metadata only.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: Optional[np.ndarray] = None
    sample_time: Optional[float] = None

    def __post_init__(self):
        for name in "ABCE":
            if name in "ABC" or getattr(self, name) is not None:
                m = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
                setattr(self, name, _check_finite(name, m))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        for name, axis in (("B", 0), ("C", 1), ("E", 0)):
            m = getattr(self, name)
            if m is not None and m.shape[axis] != n:
                raise ValueError(f"{name} has {m.shape[axis]} {('rows', 'columns')[axis]}, "
                                 f"expected {n} to match A")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


@dataclass
class Dataset:
    """Synchronized (..., T, channels) input/output/state series, each of one channel at
    least; leading axes batch records."""

    u: np.ndarray
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name in "uyx":
            setattr(self, name, _check_finite(name, as_series(getattr(self, name))))
            if getattr(self, name).shape[-1] < 1:
                raise ValueError(f"series {name} has no channels")
        if not (self.u.shape[:-1] == self.y.shape[:-1] == self.x.shape[:-1]):
            raise ValueError(
                f"series lengths differ: u has {self.u.shape[-2]}, y has {self.y.shape[-2]}, "
                f"x has {self.x.shape[-2]}"
            )
        if self.n_samples < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def n_samples(self) -> int:
        return self.u.shape[-2]

    @property
    def n_inputs(self) -> int:
        return self.u.shape[-1]

    @property
    def n_outputs(self) -> int:
        return self.y.shape[-1]

    @property
    def n_states(self) -> int:
        return self.x.shape[-1]


@dataclass
class SignalSpec:
    """Recipe for a deterministic excitation or reference signal.

    ``hold`` stretches each PRBS register step over that many samples
    (1 keeps the usual chip-per-sample sequence); ``channels`` generates that
    many columns, with PRBS channels spread over well-separated phases of the
    same maximal-length sequence of a ``register_order``-bit register (2..32).
    """

    kind: str
    length: int
    amplitude: float = 1.0
    variance: float = 0.0
    frequency: float = 0.0
    seed: int = 0
    register_order: int = 10
    channels: int = 1
    sample_time: float = 1.0
    hold: int = 1

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unsupported signal kind {self.kind!r}, expected one of {SIGNAL_KINDS}")
        if self.length < 1:
            raise ValueError("signal length must be >= 1")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.register_order not in MLS_TAPS:
            raise ValueError(f"register_order must be between 2 and 32, got {self.register_order}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.hold < 1:
            raise ValueError("hold must be >= 1")


@lru_cache(maxsize=8)
def _lfsr_map(order: int, length: int) -> np.ndarray:
    """GF(2) map G from a register state s to the bits b it emits, ``G @ s & 1``:
    b_k = s_k for k < order, then b_(k+order) = b_k xor b_(k+t) over the taps t.
    Its first ``length`` rows give the bits and the rest the state after them,
    as scipy.signal.max_len_seq returns them. Rows [m, m + order) map s to the
    state at step m, so rows [m, m + K) are rows [0, K) times them."""
    G = np.eye(order + 1, order, dtype=np.uint8)
    G[order, [0] + MLS_TAPS[order]] = 1
    while len(G) < length + order:
        m = len(G) - order
        G = np.vstack([G[:m], G @ G[m:] & 1])
    G.flags.writeable = False  # the cached map is shared by every caller
    return G[:length + order]


@lru_cache(maxsize=32)
def _lfsr_jump(order: int, steps: int) -> np.ndarray:
    """GF(2) matrix that moves a register state ``steps`` steps on, by squaring."""
    power, jump = _lfsr_map(order, 1)[1:], np.eye(order, dtype=np.uint8)
    while steps:
        if steps & 1:
            jump = power @ jump & 1
        power, steps = power @ power & 1, steps >> 1
    jump.flags.writeable = False
    return jump


def _prbs_channels(spec: SignalSpec, seeds) -> np.ndarray:
    """Maximal-length +/-amplitude sequences, (runs, length, channels), one run per seed.

    Each run's LFSR start state is drawn from its seed; extra channels restart
    the register at phases spaced period/channels steps apart so their shifted
    copies stay jointly exciting. Every run and channel is emitted by one
    product with the register map.
    """
    order, runs = spec.register_order, len(seeds)
    states = np.empty((order, runs, spec.channels), dtype=np.int64)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 2, size=order)
        if not state.any():
            state[int(rng.integers(order))] = 1
        states[:, r, 0] = state
    shift = max((2 ** order - 1) // spec.channels, 1)
    for c in range(1, spec.channels):
        states[..., c] = _lfsr_jump(order, shift) @ states[..., c - 1] & 1
    n_chips = -(-spec.length // spec.hold)
    bits = _lfsr_map(order, n_chips)[:n_chips] @ states.reshape(order, -1) & 1
    chips = spec.amplitude * (2.0 * bits.reshape(n_chips, runs, spec.channels) - 1.0)
    return np.repeat(chips.swapaxes(0, 1), spec.hold, axis=1)[:, :spec.length]


def generate_signal(spec: SignalSpec, seeds=None) -> np.ndarray:
    """Generate a (length, channels) signal from its spec, deterministic per seed; given
    ``seeds``, a (runs, length, channels) batch of the spec's signal at each seed."""
    batch = [spec.seed] if seeds is None else seeds
    if spec.kind == "prbs":
        signal = _prbs_channels(spec, batch)
    elif spec.kind == "white-noise":
        signal = np.stack([np.random.default_rng(seed).normal(
            0.0, np.sqrt(spec.variance), size=(spec.length, spec.channels)) for seed in batch])
    elif spec.kind == "sinusoid":
        k = np.arange(spec.length)
        wave = spec.amplitude * np.sin(spec.frequency * k * spec.sample_time)
        signal = np.tile(wave[:, None], (len(batch), 1, spec.channels))
    elif spec.kind == "constant":
        signal = np.full((len(batch), spec.length, spec.channels), spec.amplitude)
    elif spec.kind == "zero":
        signal = np.zeros((len(batch), spec.length, spec.channels))
    else:
        raise ValueError(f"unsupported signal kind {spec.kind!r}")
    return signal if seeds is not None else signal[0]


def _lti_run(A: np.ndarray, x0, *drives: np.ndarray, steps: Optional[int] = None) -> np.ndarray:
    """x(k+1) = A x(k) + d_1(k) + d_2(k) + ... from x(0) = x0, over leading batch axes.

    The drives are (..., T, n) series (``steps`` gives T when there are none)
    and x0 broadcasts against their batch axes. x is stored time major, so a
    step touches one contiguous slab, and returned as a (..., T, n) view. Each
    step is a batched matrix-vector product and the drives are added one at a
    time, so every run is bit-for-bit ``x[k+1] = A @ x[k] + d_1[k]; x[k+1] += d_2[k]``.
    x is kept as (n, 1) columns. An unbatched step calls ``np.dot``, the gemv of
    ``A @ x[k]`` at less call cost; a batched one calls ``np.matmul``, since one
    gemm over the batch would round differently.
    """
    T = drives[0].shape[-2] if drives else steps
    if T < 1:
        raise ValueError(f"a simulation needs at least one sample, got {T}")
    batch = np.broadcast_shapes(np.shape(x0)[:-1], *(d.shape[:-2] for d in drives))
    x = np.empty((T,) + batch + (len(A), 1))
    x[0, ..., 0] = x0
    drives = [np.moveaxis(d, -2, 0)[..., None] for d in drives]
    step = np.matmul if batch else np.dot
    for k in range(T - 1):
        nxt = x[k + 1]
        step(A, x[k], out=nxt)
        for d in drives:
            nxt += d[k]
    return np.moveaxis(x[..., 0], 0, -2)


def _apply(M: np.ndarray, series: np.ndarray) -> np.ndarray:
    """M s(k) for every sample of a (..., T, m) series, as the per-sample product."""
    return (M @ series[..., None])[..., 0]


def simulate(model: StateSpaceModel, u, v=None, noise_mode: str = "process") -> Dataset:
    """Run the model open loop from rest over an input series; leading axes of u and v
    batch runs.

    ``noise_mode`` selects how the state-noise series v enters:

    * ``"process"``: v drives the state recursion, x(k+1) = A x + B u + E v(k).
    * ``"measurement"``: the recursion is noise-free and the recorded state is
      x(k) = x_clean(k) + E v(k), i.e. white noise sits directly on the state
      measurement.

    In both modes the recorded output is y(k) = C x(k) with x the recorded
    state. A record that overflows is a ``simulation:`` ValueError, with no numpy warning;
    one that is not finite because u or v is not is a ValueError that names the input.
    A v given to a model without E is an InputError on E, raised before the run.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be 'process' or 'measurement', got {noise_mode!r}")
    u = as_series(u)
    if u.shape[-1] != model.n_inputs:
        raise InputError("u", f"has {u.shape[-1]} channels, expected {model.n_inputs} to match B")
    drives = [_apply(model.B, u)]
    if v is not None:
        if model.E is None:
            raise InputError("E", "must be set: the state noise enters through it")
        v = as_series(v)
        if v.shape != u.shape[:-1] + model.E.shape[1:]:
            raise ValueError(f"v has shape {v.shape}, expected {u.shape[:-1] + model.E.shape[1:]} "
                             f"to match the samples and E")
        if noise_mode == "process":
            drives.append(_apply(model.E, v))
    with np.errstate(over="ignore", invalid="ignore"):
        x = _lti_run(model.A, 0.0, *drives)
        del drives
        if v is not None and noise_mode == "measurement":
            x += v @ model.E.T
        y = x @ model.C.T
    try:
        return Dataset(u=u, y=y, x=x)
    except ValueError:  # a non-finite entry: name the input that has one, if any
        for name, series in (("u", u), ("v", v)):
            if series is not None:
                _check_finite(name, series)
        raise ValueError(f"simulation: the open-loop record overflows in {x.shape[-2]} "
                         f"samples") from None


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring (Higham 2005): M / 2^s has 1-norm at most 1/4, so its
    Taylor series to degree 18 leaves a truncation below 1e-28; then square s times."""
    s = max(int(np.frexp(4 * np.abs(M).sum(axis=0).max())[1]), 0)
    X, E = M / 2.0 ** s, np.eye(len(M))
    for k in range(18, 0, -1):  # the Taylor polynomial by Horner's rule
        E = np.eye(len(M)) + X @ E / k
    return np.linalg.matrix_power(E, 2 ** s)  # s squarings


def zoh_discretize(Ac, Bc, C, Ts: float) -> StateSpaceModel:
    """Zero-order-hold discretization of a continuous-time (Ac, Bc, C) triple.

    Uses the block matrix exponential expm([[Ac, Bc], [0, 0]] * Ts), whose
    top blocks are the discrete A and B.
    """
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    Ac = np.atleast_2d(np.asarray(Ac, dtype=float))
    Bc = np.atleast_2d(np.asarray(Bc, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n, p = Bc.shape
    if Ac.shape != (n, n):
        raise ValueError(f"Ac must be square with {n} rows to match Bc, got {Ac.shape}")
    E = _expm(np.block([[Ac, Bc], [np.zeros((p, n + p))]]) * Ts)
    return StateSpaceModel(A=E[:n, :n], B=E[:n, n:], C=C, sample_time=Ts)

