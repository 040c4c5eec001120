"""Discrete-time LTI simulation and excitation-signal generation.

Produces the synchronized (input, output, state) batches the estimators
consume. Models are plain (A, B, C) triples with outputs y = C x and an
optional state-noise channel E; continuous-time plants enter through
zero-order-hold discretization. The PRBS registers of a batch, and the runs of
``experiments.monte_carlo_obs``, are seeded in bulk (``_default_rngs``): one generator,
re-seeded run by run, draws what ``np.random.default_rng(seed)`` would.

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

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

SIGNAL_KINDS = ("prbs", "white-noise")
NOISE_MODES = ("process", "measurement")
_MASK128, _PCG64_MULT = (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
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
        raise InputError(name, "contains non-finite entries")
    return arr


@dataclass
class StateSpaceModel:
    """Discrete-time model x(k+1) = A x + B u + E v, y(k) = C x.

    E is an optional state-noise channel: leaving it unset, never an empty E, means no
    state noise. B and E need a column and C a row. ``sample_time`` is the time base
    of a sinusoid reference and of a resonant internal model.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: Optional[np.ndarray] = None
    sample_time: float = 1.0

    def __post_init__(self):
        for name in "ABCE":
            if name in "ABC" or getattr(self, name) is not None:
                m = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
                setattr(self, name, _check_finite(name, m))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise InputError("A", f"must be square, got {self.A.shape}")
        for name, axis in (("B", 0), ("C", 1), ("E", 0)):
            m = getattr(self, name)
            if m is not None and not m.shape[1 - axis]:
                raise InputError(name, f"has no {('rows', 'columns')[1 - axis]}")
            if m is not None and m.shape[axis] != n:
                raise InputError(name, f"has {m.shape[axis]} {('rows', 'columns')[axis]}, "
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
                raise InputError(name, "has no channels")
        for name in "yx":
            if getattr(self, name).shape[:-1] != self.u.shape[:-1]:
                raise InputError(name, f"has leading shape {getattr(self, name).shape[:-1]}, "
                                 f"expected {self.u.shape[:-1]} to match u")
        if self.n_samples < 1:
            raise InputError("u", "has no samples")

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
    """Recipe for an excitation, deterministic per seed: a PRBS of levels +/-``amplitude``
    or white noise of standard deviation ``|amplitude|``, its one scale, which must be finite.

    ``hold`` stretches each PRBS register step over that many samples
    (1 keeps the usual chip-per-sample sequence); ``channels`` generates that
    many columns, with PRBS channels spread over well-separated phases of the
    same maximal-length sequence of a ``register_order``-bit register (2..32).
    """

    kind: str
    length: int
    amplitude: float = 1.0
    seed: int = 0
    register_order: int = 10
    channels: int = 1
    hold: int = 1

    def __post_init__(self):
        for param, failed, detail in (
                ("kind", self.kind not in SIGNAL_KINDS,
                 f"must be one of {SIGNAL_KINDS}, got {self.kind!r}"),
                ("length", self.length < 1, f"must be >= 1, got {self.length}"),
                ("amplitude", not np.isfinite(self.amplitude), "must be finite"),
                ("seed", self.seed < 0, f"must be >= 0, got {self.seed}"),
                ("register_order", self.register_order not in MLS_TAPS,
                 f"must be between 2 and 32, got {self.register_order}"),
                ("channels", self.channels < 1, "must be >= 1"),
                ("hold", self.hold < 1, "must be >= 1")):
            if failed:
                raise InputError(param, detail)


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


def _default_rngs(seeds):
    """Yield one generator for each integer seed, re-seeded in place to the PCG64 state
    ``np.random.default_rng(seed)`` starts from, so that its draws are that generator's. It is
    one object throughout: draw from it before the next seed. SeedSequence's hash (O'Neill 2014,
    HMC-CS-2014-0905; NumPy NEP 19 keeps it stable) runs over every seed at once, a seed's words
    padded to four with zeros, then PCG64's two steps from 0. A seed outside [0, 2**128) takes
    numpy's own constructor, which refuses a negative one; a non-integer seed raises TypeError."""
    words = b"".join((operator.index(s) & _MASK128).to_bytes(16, "little") for s in seeds)
    mults = np.cumprod([0x43B0D7E5] + [0x931E8875] * 16, dtype=np.uint32)

    def hashmix(value, chain):  # the k-th value xor chain[k], times chain[k + 1]
        value = (value ^ chain[:-1, None]) * chain[1:, None]
        return value ^ value >> 16

    pool = hashmix(np.frombuffer(words, "<u4").reshape(-1, 4).T, mults[:5])
    for src in range(4):  # each word mixes into the other three, one hash call each
        dst = [d for d in range(4) if d != src]
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src], mults[4 + 3 * src:][:4])
        pool[dst] = mixed ^ mixed >> 16
    halves = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]],  # generate_state(4, np.uint64), low first
                     np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, *h in zip(seeds, *halves):
        init, inc = ((h[i] | h[i + 1] << 32) << 64 | h[i + 2] | h[i + 3] << 32 for i in (0, 4))
        inc = inc << 1 & _MASK128 | 1
        rng.bit_generator.state = ({"bit_generator": "PCG64", "state": {
            "state": ((inc + init) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0, "uinteger": 0} if 0 <= seed <= _MASK128
            else np.random.default_rng(seed).bit_generator.state)
        yield rng


def _prbs_channels(spec: SignalSpec, seeds) -> np.ndarray:
    """Maximal-length +/-amplitude sequences, (runs, length, channels), one run per seed.

    Each run's LFSR start state is ``default_rng(seed).integers(0, 2, size=order)`` (with
    numpy's fix-up draw when all zero), read off raw draws of runs seeded in bulk. Extra
    channels restart the register at phases spaced period/channels steps apart so their
    shifted copies stay jointly exciting. Every run and channel is emitted by one product
    with the register map.
    """
    order, runs = spec.register_order, len(seeds)
    raw = np.empty((runs, -(-order // 2)), dtype=np.uint64)
    for rng, draws in zip(_default_rngs(seeds), raw):
        draws[:] = rng.bit_generator.random_raw(len(draws))
    # integers(0, 2) is bit 31 of each 32-bit half of a raw draw, the low half first
    bits = raw[..., None] >> np.array([31, 63], np.uint64) & 1
    bits = bits.reshape(runs, 2 * raw.shape[1])[:, :order]
    for r in np.flatnonzero(~bits.any(axis=1)):  # numpy's own draws, with its fix-up
        rng = np.random.default_rng(seeds[r])
        bits[r] = rng.integers(0, 2, size=order)
        bits[r, int(rng.integers(order))] = 1
    states = np.empty((order, runs, spec.channels), dtype=np.int64)
    states[..., 0] = bits.T
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
    else:  # "white-noise", the other of SIGNAL_KINDS, the only kinds SignalSpec admits
        signal = np.stack([np.random.default_rng(seed).normal(
            0.0, abs(spec.amplitude), size=(spec.length, spec.channels)) for seed in batch])
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
    state. A record that overflows is a ``simulation:`` ValueError, with no numpy warning.
    A bad ``noise_mode``, a non-finite u or v, a u with no samples or the wrong channel
    count, a v without E and v's shape are InputErrors, raised before the run.
    """
    if noise_mode not in NOISE_MODES:
        raise InputError("noise_mode", f"must be 'process' or 'measurement', got {noise_mode!r}")
    u = _check_finite("u", as_series(u))
    if not u.shape[-2]:
        raise InputError("u", "has no samples")
    if u.shape[-1] != model.n_inputs:
        raise InputError("u", f"has {u.shape[-1]} channels, expected {model.n_inputs} to match B")
    drives = [_apply(model.B, u)]
    if v is not None:
        if model.E is None:
            raise InputError("E", "must be set: the state noise enters through it")
        v = _check_finite("v", as_series(v))
        if v.shape != u.shape[:-1] + model.E.shape[1:]:
            raise InputError("v", f"has shape {v.shape}, expected "
                             f"{u.shape[:-1] + model.E.shape[1:]} to match the samples and E")
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
    except InputError:  # u and v are finite, so x or y overflowed
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
    top blocks are the discrete A and B. The triple is held to ``StateSpaceModel``'s
    rules first, so a fault is named as it would be in a discrete model, and an exp(Ac Ts)
    that overflows is an InputError on A, with no numpy warning.
    """
    if Ts <= 0:
        raise InputError("Ts", "must be positive")
    ct = StateSpaceModel(A=Ac, B=Bc, C=C)
    n, p = ct.B.shape
    with np.errstate(over="ignore", invalid="ignore"):
        E = _expm(np.block([[ct.A, ct.B], [np.zeros((p, n + p))]]) * Ts)
    if not np.isfinite(E[:n, :n]).all():  # the squarings never carry the B block into A's
        raise InputError("A", f"overflows in exp(A * Ts) at Ts = {Ts:g}")
    return StateSpaceModel(A=E[:n, :n], B=E[:n, n:], C=ct.C, sample_time=Ts)

