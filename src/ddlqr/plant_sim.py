"""Discrete-time LTI simulation and excitation-signal generation.

Produces the synchronized (input, output, state) batches the estimators
consume. Models are plain (A, B, C) triples with optional process/measurement
noise channels (E, F); continuous-time plants enter through zero-order-hold
discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .matrix_kit import as_series

SIGNAL_KINDS = ("prbs", "white-noise", "sinusoid", "constant", "zero")
NOISE_MODES = ("process", "measurement")


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class StateSpaceModel:
    """Discrete-time model x(k+1) = A x + B u + E v, y(k) = C x + F w.

    E and F are optional noise-input channels; omitting them means the
    corresponding noise is absent. ``sample_time`` is metadata only.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: Optional[np.ndarray] = None
    F: Optional[np.ndarray] = None
    sample_time: Optional[float] = None

    def __post_init__(self):
        self.A = _check_finite("A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        self.B = _check_finite("B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        self.C = _check_finite("C", np.atleast_2d(np.asarray(self.C, dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n} to match A")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n} to match A")
        if self.E is not None:
            self.E = _check_finite("E", np.atleast_2d(np.asarray(self.E, dtype=float)))
            if self.E.shape[0] != n:
                raise ValueError(f"E has {self.E.shape[0]} rows, expected {n} to match A")
        if self.F is not None:
            self.F = _check_finite("F", np.atleast_2d(np.asarray(self.F, dtype=float)))
            if self.F.shape[0] != self.C.shape[0]:
                raise ValueError(
                    f"F has {self.F.shape[0]} rows, expected {self.C.shape[0]} to match C"
                )

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
    """Synchronized input/output/state time series of equal length."""

    u: np.ndarray
    y: np.ndarray
    x: np.ndarray
    sample_time: float = 1.0

    def __post_init__(self):
        self.u = _check_finite("u", as_series(self.u))
        self.y = _check_finite("y", as_series(self.y))
        self.x = _check_finite("x", as_series(self.x))
        if not (len(self.u) == len(self.y) == len(self.x)):
            raise ValueError(
                f"series lengths differ: u has {len(self.u)}, y has {len(self.y)}, "
                f"x has {len(self.x)}"
            )
        if len(self.u) < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def n_samples(self) -> int:
        return len(self.u)

    @property
    def n_inputs(self) -> int:
        return self.u.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]

    @property
    def n_states(self) -> int:
        return self.x.shape[1]


@dataclass
class SignalSpec:
    """Recipe for a deterministic excitation or reference signal.

    ``hold`` stretches each PRBS register step over that many samples
    (1 keeps the usual chip-per-sample sequence); ``channels`` generates that
    many columns, with PRBS channels spread over well-separated phases of the
    same maximal-length sequence.
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
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.hold < 1:
            raise ValueError("hold must be >= 1")


def _prbs_channels(spec: SignalSpec) -> np.ndarray:
    """Maximal-length +/-amplitude sequences, one column per channel.

    The LFSR start state is drawn from the seed; extra channels restart the
    register at phases spaced period/channels steps apart so their shifted
    copies stay jointly exciting.
    """
    from scipy.signal import max_len_seq

    rng = np.random.default_rng(spec.seed)
    order = spec.register_order
    if order < 2:
        raise ValueError("PRBS register order must be >= 2")
    state = rng.integers(0, 2, size=order)
    if not state.any():
        state[int(rng.integers(order))] = 1
    period = 2 ** order - 1
    shift = max(period // spec.channels, 1)
    n_chips = -(-spec.length // spec.hold)
    out = np.empty((spec.length, spec.channels))
    for c in range(spec.channels):
        if c > 0:
            state = max_len_seq(order, state=state, length=shift)[1]
        bits = max_len_seq(order, state=state, length=n_chips)[0]
        chips = spec.amplitude * (2.0 * bits.astype(float) - 1.0)
        out[:, c] = np.repeat(chips, spec.hold)[:spec.length]
    return out


def generate_signal(spec: SignalSpec) -> np.ndarray:
    """Generate a (length, channels) signal from its spec, deterministic per seed."""
    if spec.kind == "prbs":
        return _prbs_channels(spec)
    if spec.kind == "white-noise":
        rng = np.random.default_rng(spec.seed)
        return rng.normal(0.0, np.sqrt(spec.variance), size=(spec.length, spec.channels))
    if spec.kind == "sinusoid":
        k = np.arange(spec.length)
        wave = spec.amplitude * np.sin(spec.frequency * k * spec.sample_time)
        return np.tile(wave[:, None], (1, spec.channels))
    if spec.kind == "constant":
        return np.full((spec.length, spec.channels), spec.amplitude)
    if spec.kind == "zero":
        return np.zeros((spec.length, spec.channels))
    raise ValueError(f"unsupported signal kind {spec.kind!r}")


def _noise_series(name: str, series, length: int, width_name: str, width: int) -> np.ndarray:
    arr = as_series(series)
    if len(arr) != length:
        raise ValueError(f"{name} has {len(arr)} samples, expected {length}")
    if arr.shape[1] != width:
        raise ValueError(f"{name} has {arr.shape[1]} channels, expected {width} to match {width_name}")
    return arr


def simulate(
    model: StateSpaceModel,
    u,
    x0=None,
    v=None,
    w=None,
    noise_mode: str = "process",
) -> Dataset:
    """Run the model open loop over an input series.

    ``noise_mode`` selects how the state-noise series v enters:

    * ``"process"``: v drives the state recursion, x(k+1) = A x + B u + E v(k).
    * ``"measurement"``: the recursion is noise-free and the recorded state is
      x(k) = x_clean(k) + E v(k), i.e. white noise sits directly on the state
      measurement.

    In both modes the recorded output is y(k) = C x(k) + F w(k) with x the
    recorded state.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be 'process' or 'measurement', got {noise_mode!r}")
    u = as_series(u)
    T = len(u)
    n, p, q = model.n_states, model.n_inputs, model.n_outputs
    if u.shape[1] != p:
        raise ValueError(f"u has {u.shape[1]} channels, expected {p} to match B")
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, expected {n} to match A")
    if v is not None:
        if model.E is None:
            raise ValueError("model has no E channel for process noise v")
        v = _noise_series("v", v, T, "E", model.E.shape[1])
    if w is not None:
        if model.F is None:
            raise ValueError("model has no F channel for measurement noise w")
        w = _noise_series("w", w, T, "F", model.F.shape[1])

    x = np.empty((T, n))
    x[0] = x0
    drive = v if (v is not None and noise_mode == "process") else None
    for k in range(T - 1):
        x[k + 1] = model.A @ x[k] + model.B @ u[k]
        if drive is not None:
            x[k + 1] += model.E @ drive[k]
    if v is not None and noise_mode == "measurement":
        x = x + v @ model.E.T
    y = x @ model.C.T
    if w is not None:
        y = y + w @ model.F.T
    ts = model.sample_time if model.sample_time is not None else 1.0
    return Dataset(u=u, y=y, x=x, sample_time=ts)


def closed_loop_simulate(
    model: StateSpaceModel,
    K,
    x0,
    horizon: int,
    v=None,
    w=None,
) -> Dataset:
    """Simulate the regulation loop u(k) = -K x(k) for ``horizon`` steps."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n, p = model.n_states, model.n_inputs
    if K.shape != (p, n):
        raise ValueError(f"K has shape {K.shape}, expected ({p}, {n})")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, expected {n}")
    if v is not None:
        if model.E is None:
            raise ValueError("model has no E channel for process noise v")
        v = _noise_series("v", v, horizon, "E", model.E.shape[1])
    if w is not None:
        if model.F is None:
            raise ValueError("model has no F channel for measurement noise w")
        w = _noise_series("w", w, horizon, "F", model.F.shape[1])

    x = np.empty((horizon, n))
    u = np.empty((horizon, p))
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            u[k] = -K @ x[k]
            if k + 1 < horizon:
                x[k + 1] = model.A @ x[k] + model.B @ u[k]
                if v is not None:
                    x[k + 1] += model.E @ v[k]
        y = x @ model.C.T
    if w is not None:
        y = y + w @ model.F.T
    ts = model.sample_time if model.sample_time is not None else 1.0
    return Dataset(u=u, y=y, x=x, sample_time=ts)


def tracking_loop_simulate(
    model: StateSpaceModel,
    imc,
    K_a,
    r,
    x0=None,
    v=None,
    w=None,
) -> Dataset:
    """Close the loop of plant + internal-model controller on a reference.

    Each output channel owns one controller copy driven by its tracking
    error, x_c(k+1) = A_c x_c(k) + B_c (r_j(k) - y_j(k)), and the input is
    u(k) = -K_a [x(k); x_imc(k)]. The returned dataset is the augmented one:
    y holds [y; x_imc] and x holds [x; x_imc].
    """
    r = as_series(r)
    T = len(r)
    n, p, q = model.n_states, model.n_inputs, model.n_outputs
    nc = imc.order
    if r.shape[1] != q:
        raise ValueError(f"reference has {r.shape[1]} channels, expected {q} outputs")
    K_a = np.atleast_2d(np.asarray(K_a, dtype=float))
    if K_a.shape != (p, n + nc * q):
        raise ValueError(f"K_a has shape {K_a.shape}, expected ({p}, {n + nc * q})")
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, expected {n}")
    if v is not None:
        if model.E is None:
            raise ValueError("model has no E channel for process noise v")
        v = _noise_series("v", v, T, "E", model.E.shape[1])
    if w is not None:
        if model.F is None:
            raise ValueError("model has no F channel for measurement noise w")
        w = _noise_series("w", w, T, "F", model.F.shape[1])

    Ac, Bc = imc.A_c, imc.B_c
    x = np.empty((T, n))
    xc = np.zeros((T, nc * q))
    u = np.empty((T, p))
    y = np.empty((T, q))
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            u[k] = -K_a @ np.concatenate([x[k], xc[k]])
            y[k] = model.C @ x[k]
            if w is not None:
                y[k] += model.F @ w[k]
            if k + 1 < T:
                x[k + 1] = model.A @ x[k] + model.B @ u[k]
                if v is not None:
                    x[k + 1] += model.E @ v[k]
                err = r[k] - y[k]
                for j in range(q):
                    blk = slice(j * nc, (j + 1) * nc)
                    xc[k + 1, blk] = Ac @ xc[k, blk] + Bc[:, 0] * err[j]
    ts = model.sample_time if model.sample_time is not None else 1.0
    return Dataset(u=u, y=np.hstack([y, xc]), x=np.hstack([x, xc]), sample_time=ts)


def zoh_discretize(Ac, Bc, C, Ts: float) -> StateSpaceModel:
    """Zero-order-hold discretization of a continuous-time (Ac, Bc, C) triple.

    Uses the augmented matrix exponential expm([[Ac, Bc], [0, 0]] * Ts), whose
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
    M = np.zeros((n + p, n + p))
    M[:n, :n] = Ac
    M[:n, n:] = Bc
    E = scipy.linalg.expm(M * Ts)
    return StateSpaceModel(A=E[:n, :n], B=E[:n, n:], C=C, sample_time=Ts)


def cost_J(dataset: Dataset, Q, R, horizon: Optional[int] = None) -> float:
    """Accumulated quadratic cost sum_k y'Qy + u'Ru over the first ``horizon`` samples."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    q, p = dataset.n_outputs, dataset.n_inputs
    if Q.shape != (q, q):
        raise ValueError(f"Q has shape {Q.shape}, expected ({q}, {q})")
    if R.shape != (p, p):
        raise ValueError(f"R has shape {R.shape}, expected ({p}, {p})")
    horizon = dataset.n_samples if horizon is None else horizon
    if horizon > dataset.n_samples:
        raise ValueError(f"horizon {horizon} exceeds dataset length {dataset.n_samples}")
    y = dataset.y[:horizon]
    u = dataset.u[:horizon]
    return float(np.einsum("ki,ij,kj->", y, Q, y) + np.einsum("ki,ij,kj->", u, R, u))
