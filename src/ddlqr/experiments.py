"""End-to-end studies: full design pipeline, convergence sweeps, Monte Carlo
statistics of the observability estimators, and closed-loop evaluation.

The design pipeline has two halves. ``estimate`` turns a dataset into two
matrices at one Hankel depth: the Toeplitz factor of the Markov parameters
and the observability matrix. ``synthesize`` slices their block rows into a
gain for given weights and any horizon up to that depth. The gain depends on
the data only through the estimate, so a horizon sweep estimates once and
synthesizes many times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .imc import ImcRealization, augment_model
from .lqr import LqrDesign, LqrWeights, dare_solve, dd_lqr_gain, model_lqr_gain
from .markov import DataMatrices, build_data_matrices, estimate_predictor, hankel_width
from .observability import ALGORITHMS, estimate_obs_alg1, estimate_obs_alg2, true_observability
from .plant_sim import (
    Dataset,
    InputError,
    SignalSpec,
    StateSpaceModel,
    _apply,
    _lti_run,
    generate_signal,
    simulate,
)

# Entries of a Monte Carlo batch: a factoring chunk's Hankel stacks and a simulation chunk's
# records stay within this, or are one run or one factoring chunk. It is 32 runs of the
# bundled study's 13 x 420 stack.
MC_BATCH_ENTRIES = 175_000
# Reference periods at the end of a sinusoid tracking run that its amplitude and THD are read over.
THD_PERIODS = 10


@dataclass
class DataDrivenEstimate:
    """What the closed-form gain takes from the data, at one Hankel depth.

    ``toeplitz`` is the strictly-lower block-Toeplitz factor of the Markov parameters
    (q*depth x p*depth, ``markov.estimate_predictor``) and ``observability`` the matrix
    C; CA; ..; CA^(depth-1) (``observability.estimate_obs_alg1``/``alg2``). Neither
    depends on the weights or on any horizon up to ``depth``, so one estimate serves
    every ``synthesize`` call within that range. ``width`` is the Hankel data's column
    count and ``imc`` the internal model whose states the estimate appends to the
    plant's, if any. ``diagnostics`` holds both stages' figures as numpy arrays with the
    data's batch axes: ``input_rank``, ``input_rank_margin``, ``regressor_rank``,
    ``obs_residual``; and the ``algorithm``. The matrices carry the same batch axes.
    """

    toeplitz: np.ndarray
    observability: np.ndarray
    depth: int
    width: int
    imc: Optional[ImcRealization]
    diagnostics: Dict[str, Union[np.ndarray, str]]


@dataclass
class MonteCarloReport:
    """Empirical statistics of one observability estimator across runs.

    ``mse`` is the error moment about the true matrix (covariance plus
    bias bias'); ``second_moment`` is the moment about the origin
    (covariance plus mean mean'), the raw-magnitude metric used when
    comparing the reported estimator figures. Eigenvalues are ascending.
    ``failure_reasons`` counts failed runs by stage and leading error clause.
    """

    algorithm: str
    runs: int
    failures: int
    failure_reasons: Dict[str, int]
    truth: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    covariance_eigenvalues: np.ndarray
    mse: np.ndarray
    mse_eigenvalues: np.ndarray
    second_moment: np.ndarray
    second_moment_eigenvalues: np.ndarray


@dataclass
class RegulationScenario:
    """Drive the regulation loop u = -Kx from an initial state."""

    x0: np.ndarray


@dataclass
class TrackingScenario:
    """Close the loop with an internal-model controller on a reference signal."""

    imc: ImcRealization
    reference: SignalSpec


@dataclass
class ClosedLoopMetrics:
    cost: float
    spectral_radius: float
    steady_state_error: float
    thd: Optional[float] = None


def _stage(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its errors tagged with stage ``name``; an InputError is
    about an argument, not the stage, and passes as raised."""
    try:
        return fn(*args, **kwargs)
    except InputError:
        raise
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _estimate(dm: DataMatrices,
              algorithm: str) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Toeplitz factor, observability matrix (with ``algorithm``) and both stages' figures
    of the factored data ``dm``, with its batch axes. Errors are stage-tagged."""
    toeplitz, figures = _stage("markov-estimation", estimate_predictor, dm)
    obs, obs_figures = (_stage("observability", estimate_obs_alg1, dm, toeplitz)
                        if algorithm == "alg1" else _stage("observability", estimate_obs_alg2, dm))
    return toeplitz, obs, {**figures, **obs_figures}


def estimate(data: Dataset, depth: int, width: Optional[int] = None, algorithm: str = "alg1",
             imc: Optional[ImcRealization] = None) -> DataDrivenEstimate:
    """Estimation half of the pipeline, at Hankel depth ``depth``.

    Stages: Hankel data matrices and their factor, Markov-parameter least squares,
    observability estimation with ``algorithm`` (one of ``ALGORITHMS``). With an
    internal model ``imc`` the estimate is that of the plant plus controller, whose
    outputs and states append the controller states filtered from the plant outputs.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    dm = build_data_matrices(data, depth, width, imc=imc)
    toeplitz, obs, figures = _estimate(dm, algorithm)
    return DataDrivenEstimate(toeplitz, obs, depth, dm.width, imc,
                              {**figures, "algorithm": algorithm})


def check_weights(weights: LqrWeights, q: int, p: int) -> None:
    """InputError unless Q weighs the q outputs (internal-model states included) and R
    the p inputs."""
    for name, m, size, what in (("Q", weights.Q, q, "outputs, internal-model states included"),
                                ("R", weights.R, p, "inputs")):
        if m.shape[0] != size:
            raise InputError(name, f"has dimension {m.shape[0]}, expected {size} ({what})")


def check_synthesis(weights: LqrWeights, horizon: int, depth: int, q: int, p: int) -> None:
    """InputError unless ``synthesize`` takes ``weights`` and ``horizon`` to an estimate at
    ``depth`` of q outputs (internal-model states included) and p inputs:
    2 <= horizon <= depth, and the weights fit. A caller can check before estimating."""
    if horizon < 2:
        raise InputError("horizon", "must be >= 2 (the gain needs at least one Markov block)")
    if horizon > depth:
        raise InputError("horizon", f"{horizon} must be <= depth {depth}")
    check_weights(weights, q, p)


def synthesize(est: DataDrivenEstimate, weights: LqrWeights, horizon: int) -> LqrDesign:
    """Synthesis half of the pipeline: the closed-form gain at ``horizon``.

    Uses the first horizon - 1 Markov blocks and shifted observability blocks
    of the estimate, each a view of its matrix, so 2 <= horizon <= its depth
    (``check_synthesis``), and the gain keeps the estimate's batch axes. The design's
    diagnostics are the estimate's, the gain's conditioning figures, the ``gain_order``
    horizon - 1, ``depth`` and ``width``, as Python values: lists over batch axes.
    """
    q, p = (size // est.depth for size in est.toeplitz.shape[-2:])
    check_synthesis(weights, horizon, est.depth, q, p)
    order = horizon - 1
    # the Toeplitz factor's first block column is [0; Markov blocks 1..depth-1],
    # and O+ = [CA; ..; CA^order] starts one block row into the observability matrix
    M = est.toeplitz[..., q:q * (order + 1), :p]
    S = est.toeplitz[..., :q * order, :p * order]
    O_plus = est.observability[..., q:q * (order + 1), :]
    K, figures = _stage("gain", dd_lqr_gain, M, S, O_plus, weights, order)
    figures.update(gain_order=order, depth=est.depth, width=est.width)
    return LqrDesign(K=K, horizon=horizon, diagnostics={
        k: np.asarray(v).tolist() for k, v in {**est.diagnostics, **figures}.items()})


def convergence_sweep(
    model: StateSpaceModel,
    est: DataDrivenEstimate,
    weights: LqrWeights,
    horizons: Sequence[int],
) -> List[Tuple[int, float]]:
    """Max-entry gap (over every batch entry) of the gain synthesized from ``est`` at each
    horizon to the Riccati gain of ``model``, the plant behind the estimate's data, with the
    estimate's internal model appended by ``augment_model`` if it has one.
    InputError on A, C or B unless that loop has the estimate's states, outputs and
    inputs: n columns of the observability matrix, and q*depth x p*depth of the
    Toeplitz factor."""
    loop = model if est.imc is None else augment_model(model, est.imc)
    q, p = (size // est.depth for size in est.toeplitz.shape[-2:])
    for name, size, data, what in (
            ("A", loop.n_states, est.observability.shape[-1], "states"),
            ("C", loop.n_outputs, q, "outputs"), ("B", loop.n_inputs, p, "inputs")):
        if size != data:
            raise InputError(name, f"has {size} {what}, the estimate's data {data}")
    K_star = model_lqr_gain(loop, dare_solve(loop, weights), weights.R)
    return [(N, float(np.abs(synthesize(est, weights, N).K - K_star).max())) for N in horizons]


def monte_carlo_obs(model: StateSpaceModel, signal: SignalSpec, depth: int, runs: int,
                    noise_variance: float, base_seed: int = 0, width: Optional[int] = None,
                    noise_mode: str = "measurement",
                    fixed_input: bool = False) -> Tuple[MonteCarloReport, MonteCarloReport]:
    """Monte Carlo statistics of both observability estimators under noise.

    Each run redraws the excitation signal and the state-noise sequence from
    a run-indexed seed (``fixed_input`` keeps one excitation realization
    across runs and redraws only the noise), simulates the model, and
    estimates the shifted observability matrix with both algorithms. Of each
    record only the 2*depth + width - 1 samples that its Hankel matrices read
    are drawn and simulated (all of them when ``width`` is None); every stage
    is causal, so the estimates are those of the whole record. One ``build_data_matrices``
    call factors a chunk of as many runs as keep their Hankel stacks, (2(p+q)*depth + n) x
    width entries a run, within ``MC_BATCH_ENTRIES``, one run at least. One
    ``generate_signal`` and one ``simulate`` call draw and run as many whole chunks as keep
    their records, T*(p+q+n) entries a run of T samples, within it, one chunk at least (32
    and 128 runs of the bundled study, which reads 425 samples). Only the factors are kept,
    and the estimators run once per pass of width // (factor columns) chunks, at most one
    chunk's stack in size (1024 runs). The rules of this function's own arguments come
    before any run, and ``simulate``'s with the first chunk; failed runs are counted and
    excluded.
    """
    if runs < 2:  # the covariance statistics need 2 runs
        raise InputError("runs", f"must be >= 2, got {runs}")
    if depth < 2:
        raise InputError("depth", f"must be >= 2 to shift the observability matrix, got {depth}")
    if base_seed < 0:
        raise InputError("base_seed", f"must be >= 0, got {base_seed}")
    if not noise_variance >= 0:
        raise InputError("noise_variance", f"must be >= 0, got {noise_variance}")
    p, q, n = model.n_inputs, model.n_outputs, model.n_states
    width = hankel_width(signal.length, p, q, n, depth, width)
    truth = true_observability(model, depth)[q:]
    # the PRBS map, the noise draws and the recursion are causal: later samples move no earlier one
    T = 2 * depth + width - 1
    chunk = max(1, MC_BATCH_ENTRIES // ((2 * (p + q) * depth + n) * width))
    sim_chunk = chunk * max(1, MC_BATCH_ENTRIES // (chunk * T * (p + q + n)))
    std = float(np.sqrt(noise_variance))
    signal = replace(signal, length=T)

    samples: dict = {alg: [] for alg in ALGORITHMS}
    reasons = {alg: Counter() for alg in ALGORITHMS}
    factors = []  # of the chunks of the pass, each in its QR layout (runs, columns, rows)
    for first in range(0, runs, sim_chunk):
        # each run's generator draws its excitation seed, then its noise
        rngs = [np.random.default_rng(base_seed + r)
                for r in range(first, min(first + sim_chunk, runs))]
        u_seeds = [int(rng.integers(0, 2 ** 31)) for rng in rngs]
        # one noise column per column of E; simulate refuses v when there is no E
        v = np.empty((len(rngs), T) + np.shape(model.E)[1:])
        for rng, v_run in zip(rngs, v):
            v_run[...] = rng.normal(0.0, std, size=v_run.shape)
        # a fixed input is one record, generated once and read by every run
        u = generate_signal(signal, [signal.seed] if fixed_input else u_seeds)
        data = simulate(model, np.broadcast_to(u, v.shape[:2] + u.shape[2:]), v, noise_mode)
        del u, v
        for a in range(0, len(rngs), chunk):
            dm = build_data_matrices(data, depth, width, runs=slice(a, a + chunk))
            factors.append(dm.factor.swapaxes(-1, -2))
            if len(factors) == max(1, width // dm.factor.shape[-1]) or first + a + chunk >= runs:
                dm = replace(dm, factor=np.concatenate(factors).swapaxes(-1, -2))
                factors = []
                for alg in ALGORITHMS:
                    samples[alg].extend(_observe_runs(dm, alg, reasons[alg]))
        data = None  # drop this chunk's records before the next is simulated

    reports = []
    for alg in ALGORITHMS:
        if len(samples[alg]) < 2:
            raise ValueError(
                f"{alg}: fewer than 2 successful runs ({sum(reasons[alg].values())} failures, "
                f"most often {reasons[alg].most_common(1)[0][0]})"
            )
        reports.append(_reduce_report(alg, samples[alg], reasons[alg], truth))
    return reports[0], reports[1]


def _observe_runs(dm: DataMatrices, algorithm: str, reasons: Counter) -> Sequence[np.ndarray]:
    """Shifted estimates of a batch of runs, alg2's without a predictor. The runs a stage
    error marks (all when it marks none) are counted in ``reasons``; the rest anew."""
    while len(dm.factor):
        try:
            obs = (_estimate(dm, algorithm)[1] if algorithm == "alg1"
                   else _stage("observability", estimate_obs_alg2, dm)[0])
            return obs[..., dm.n_outputs:, :]
        except ValueError as exc:
            failed = getattr(exc.__cause__, "failed", np.ones(len(dm.factor), bool))
            reasons[_reason(exc)] += int(failed.sum())
            dm = replace(dm, factor=dm.factor.swapaxes(-1, -2)[~failed].swapaxes(-1, -2))
    return []


def _reason(exc: ValueError) -> str:
    """Stage and leading clause of a stage-tagged error, as ``stage: clause``."""
    return ":".join(str(exc).split(";")[0].split(":")[:2])


def _reduce_report(algorithm: str, estimates, reasons: Counter,
                   truth: np.ndarray) -> MonteCarloReport:
    stack = np.stack(estimates)  # (runs, m, n)
    runs = stack.shape[0]
    mean = stack.mean(axis=0)
    dev = stack - mean
    covariance = np.einsum("rij,rkj->ik", dev, dev) / runs
    err = stack - truth
    mse = np.einsum("rij,rkj->ik", err, err) / runs
    second = np.einsum("rij,rkj->ik", stack, stack) / runs
    return MonteCarloReport(
        algorithm=algorithm,
        runs=runs,
        failures=sum(reasons.values()),
        failure_reasons=dict(reasons.most_common()),
        truth=truth,
        mean=mean,
        covariance=covariance,
        covariance_eigenvalues=np.linalg.eigvalsh(covariance),
        mse=mse,
        mse_eigenvalues=np.linalg.eigvalsh(mse),
        second_moment=second,
        second_moment_eigenvalues=np.linalg.eigvalsh(second),
    )


def _distortion(y: np.ndarray, samples_per_period: int) -> float:
    """Total harmonic distortion of a scalar signal's final ``THD_PERIODS`` cycles.

    The window spans an integer number of fundamental periods, so the DFT
    bins of the fundamental and its harmonics are leakage-free. Harmonics are
    counted up to Nyquist; the result is the RMS harmonic-to-fundamental
    ratio, nan when the window's fundamental bin is zero. Unchecked: the caller
    gives at least 2 samples per period and ``THD_PERIODS`` periods of them.
    """
    spectrum = np.fft.rfft(y[-THD_PERIODS * samples_per_period:])
    fund = abs(spectrum[THD_PERIODS])
    harmonics = spectrum[2 * THD_PERIODS::THD_PERIODS]
    return float(np.sqrt(np.sum(np.abs(harmonics) ** 2)) / fund) if fund else np.nan


def evaluate_closed_loop(
    model: StateSpaceModel,
    K: np.ndarray,
    weights: LqrWeights,
    scenario: Union[RegulationScenario, TrackingScenario],
    horizon: int,
) -> ClosedLoopMetrics:
    """Close the loop with gain ``K`` and report cost under ``weights``, stability
    margin and tracking.

    Regulation runs the plant from the scenario's start state, tracking runs
    ``augment_model`` from rest driven by G r, G = [0; I_q (x) B_c]. A run with a
    non-finite state, input or output is unstable: its cost and steady-state error
    are inf. A sinusoid run whose output has no fundamental reports THD nan.
    Argument errors are InputErrors, raised before the run: a gain ``K`` that is not
    inputs x loop states (tracking adds one internal-model copy per output), weights
    that do not fit the loop's outputs (internal-model states included) and inputs, a
    wrong-sized start state ``x0``, a reference whose ``channels`` are neither 1 (one
    signal for every output) nor q, a sinusoid reference whose ``frequency`` times its
    sample time is outside (0, pi), or a ``horizon`` shorter than ``THD_PERIODS`` of its
    periods.
    """
    K = np.asarray(K, dtype=float)
    n, q = model.n_states, model.n_outputs
    tracking = isinstance(scenario, TrackingScenario)
    loop = augment_model(model, scenario.imc) if tracking else model
    if K.shape != (loop.n_inputs, loop.n_states):
        raise InputError("K", f"has shape {K.shape}, expected {(loop.n_inputs, loop.n_states)}")
    check_weights(weights, loop.n_outputs, loop.n_inputs)
    if not tracking:
        x0, drives = np.asarray(scenario.x0, dtype=float).reshape(-1), ()
        if x0.shape[0] != n:
            raise InputError("x0", f"has {x0.shape[0]} entries, expected {n} states")
    else:
        ref, spp = replace(scenario.reference, length=horizon), None
        if ref.channels not in (1, q):
            raise InputError("channels",
                             f"must be 1 or the plant's {q} outputs, got {ref.channels}")
        if ref.kind == "sinusoid":
            theta = ref.frequency * ref.sample_time
            if not 0.0 < theta < np.pi:
                raise InputError("frequency", f"* ts = {theta:.6g} must lie inside (0, pi)")
            spp = int(round(2.0 * np.pi / theta))
            if horizon < THD_PERIODS * spp:
                raise InputError("horizon", f"must be >= {THD_PERIODS * spp}, got {horizon}")
        x0, r = np.zeros(loop.n_states), generate_signal(ref)
        r = r if r.shape[1] == q else np.tile(r, (1, q))
        G = np.vstack([np.zeros((n, q)), np.kron(np.eye(q), scenario.imc.B_c)])
        drives = (_apply(G, r),)
    A_cl = loop.A - loop.B @ K
    rho = float(np.abs(np.linalg.eigvals(A_cl)).max())
    x, u, y = _loop_run(loop, K, A_cl, x0, *drives, steps=horizon)
    if not (np.isfinite(x).all() and np.isfinite(u).all() and np.isfinite(y).all()):
        return ClosedLoopMetrics(cost=np.inf, spectral_radius=rho, steady_state_error=np.inf)
    cost = float(np.einsum("ki,ij,kj->", y, weights.Q, y)
                 + np.einsum("ki,ij,kj->", u, weights.R, u))
    if not tracking:
        return ClosedLoopMetrics(cost, rho, float(np.linalg.norm(y[-1])))
    y = y[:, :q]
    if spp is None:
        return ClosedLoopMetrics(cost, rho, float(np.abs(y[-1] - r[-1]).max()))
    amp = _fundamental_amplitude(y[:, 0], ref, spp)
    return ClosedLoopMetrics(cost, rho, float(abs(amp - ref.amplitude) / abs(ref.amplitude)),
                             _distortion(y[:, 0], spp))


def _loop_run(loop: StateSpaceModel, K: np.ndarray, A_cl: np.ndarray, x0, *drives, steps: int):
    """Raw x, u = -K x and y = C x of ``loop``, run as x(k+1) = A_cl x(k) + drives. It
    checks nothing: an unstable loop runs on to inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = _lti_run(A_cl, x0, *drives, steps=steps)
        u = -_apply(K, x)
        y = x @ loop.C.T
    return x, u, y


def _fundamental_amplitude(y: np.ndarray, ref: SignalSpec, spp: int) -> float:
    """Amplitude of the reference-frequency component over the final ``THD_PERIODS`` cycles."""
    window = THD_PERIODS * spp
    t = np.arange(y.size - window, y.size) * ref.sample_time
    basis = np.column_stack([np.sin(ref.frequency * t), np.cos(ref.frequency * t)])
    coeff, *_ = np.linalg.lstsq(basis, y[-window:], rcond=None)
    return float(np.hypot(coeff[0], coeff[1]))
