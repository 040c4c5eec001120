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

from .imc import ImcRealization, augment_dataset, augment_model
from .lqr import LqrDesign, LqrWeights, dare_solve, dd_lqr_gain, model_lqr_gain
from .markov import (DataMatrices, MarkovEstimate, build_data_matrices, check_regressor,
                     estimate_predictor, hankel_width)
from .observability import (
    ALGORITHMS,
    ObservabilityEstimate,
    estimate_obs_alg1,
    estimate_obs_alg2,
    true_observability,
)
from .plant_sim import (
    Dataset,
    InputError,
    SignalSpec,
    StateSpaceModel,
    _apply,
    _checked,
    _lti_run,
    _open_loop,
    _prbs_channels,
    generate_signal,
)

# Monte Carlo runs factored together: runs x record length stays within this.
MC_CHUNK_SAMPLES = 2 ** 15
# Runs simulated per kernel call: a whole number of factoring chunks whose runs x samples
# read by the Hankel data stays within this (128 runs of a 425-sample record).
MC_SIM_CHUNK_SAMPLES = 2 ** 16
# Reference periods at the end of a sinusoid tracking run that its amplitude and THD are read over.
THD_PERIODS = 10


@dataclass
class DataDrivenEstimate:
    """What the closed-form gain takes from the data, at one Hankel depth.

    The Toeplitz factor of the Markov parameters and the observability matrix
    do not depend on the weights or on any horizon up to ``depth``, so one
    estimate serves every ``synthesize`` call within that range. ``augmented`` records whether
    internal-model states were appended to the data before estimation.
    """

    markov: MarkovEstimate
    observability: ObservabilityEstimate
    width: int
    augmented: bool = False


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


def _observe(dm: DataMatrices, algorithm: str,
             markov: Optional[MarkovEstimate] = None) -> ObservabilityEstimate:
    """Observability estimate with the named algorithm.

    alg1 subtracts the predictor's Toeplitz factor, estimated here unless
    ``markov`` is given; alg2 needs no predictor. Errors are stage-tagged.
    """
    if algorithm == "alg2":
        return _stage("observability", estimate_obs_alg2, dm)
    if markov is None:
        markov = _stage("markov-estimation", estimate_predictor, dm)
    return _stage("observability", estimate_obs_alg1, dm, markov.toeplitz)


def estimate(data: Dataset, depth: int, width: Optional[int] = None, algorithm: str = "alg1",
             imc: Optional[ImcRealization] = None) -> DataDrivenEstimate:
    """Estimation half of the pipeline, at Hankel depth ``depth``.

    Stages: optional internal-model augmentation, Hankel data matrices and
    their factor, Markov-parameter least squares, observability estimation
    with ``algorithm`` (one of ``ALGORITHMS``).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if imc is not None:
        data = _stage("imc-augmentation", augment_dataset, data, imc)
    # the input rules first: the stack is not built, nor its width guidance warned of, in vain
    check_regressor(data.n_inputs, data.n_outputs, depth,
                    hankel_width(data.n_samples, data.n_outputs, data.n_states, depth, width))
    dm = build_data_matrices(data, depth, width)
    markov = _stage("markov-estimation", estimate_predictor, dm)
    obs = _observe(dm, algorithm, markov)
    return DataDrivenEstimate(markov=markov, observability=obs, width=dm.width,
                              augmented=imc is not None)


def check_weights(weights: LqrWeights, q: int, p: int, outputs: str) -> None:
    """InputError unless Q weighs the q ``outputs`` and R the p inputs."""
    for name, m, size, what in (("Q", weights.Q, q, outputs), ("R", weights.R, p, "inputs")):
        if m.shape[0] != size:
            raise InputError(name, f"has dimension {m.shape[0]}, expected {size} ({what})")


def check_synthesis(weights: LqrWeights, horizon: int, depth: int, q: int, p: int,
                    augmented: bool) -> None:
    """InputError unless ``synthesize`` takes ``weights`` and ``horizon`` to an estimate at
    ``depth`` of q outputs (internal-model states included when ``augmented``) and p
    inputs: 2 <= horizon <= depth, and the weights fit. A caller can check before estimating."""
    if horizon < 2:
        raise InputError("horizon", "must be >= 2 (the gain needs at least one Markov block)")
    if horizon > depth:
        raise InputError("horizon", f"{horizon} must be <= depth {depth}")
    check_weights(weights, q, p, "dataset outputs and internal-model states" if augmented
                  else "dataset outputs")


def synthesize(est: DataDrivenEstimate, weights: LqrWeights, horizon: int) -> LqrDesign:
    """Synthesis half of the pipeline: the closed-form gain at ``horizon``.

    Uses the first horizon - 1 Markov blocks and shifted observability blocks
    of the estimate, each a view of its matrix, so 2 <= horizon <= its depth
    (``check_synthesis``). The estimation diagnostics are merged into the returned design.
    """
    markov, obs = est.markov, est.observability
    q, p = (size // markov.depth for size in markov.toeplitz.shape)
    check_synthesis(weights, horizon, markov.depth, q, p, est.augmented)
    order = horizon - 1
    # the Toeplitz factor's first block column is [0; Markov blocks 1..depth-1],
    # and O+ = [CA; ..; CA^order] starts one block row into the observability matrix
    M = markov.toeplitz[q:q * (order + 1), :p]
    S = markov.toeplitz[:q * order, :p * order]
    O_plus = obs.matrix[q:q * (order + 1), :]
    design = _stage("gain", dd_lqr_gain, M, S, O_plus, weights, order)
    diagnostics = dict(design.diagnostics)
    diagnostics.update(
        gain_order=order,
        depth=markov.depth,
        width=est.width,
        input_rank=int(markov.input_rank),
        input_rank_margin=float(markov.input_rank_margin),
        regressor_rank=int(markov.regressor_rank),
        obs_residual=float(obs.residual),
        algorithm=obs.algorithm,
    )
    return LqrDesign(K=design.K, horizon=horizon, diagnostics=diagnostics)


def convergence_sweep(
    model: StateSpaceModel,
    est: DataDrivenEstimate,
    weights: LqrWeights,
    horizons: Sequence[int],
) -> List[Tuple[int, float]]:
    """Max-entry gap of the gain synthesized from ``est`` at each horizon to the
    Riccati gain of ``model``: the plant behind the estimate's data, with its
    internal-model states when the estimate is augmented."""
    P = dare_solve(model, weights)
    K_star = model_lqr_gain(model, P, weights.R)
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
    is causal, so the estimates are those of the whole record. A kernel call
    (and a PRBS register product) simulates whole factoring chunks of up to
    ``MC_SIM_CHUNK_SAMPLES`` such samples; one ``build_data_matrices`` call factors
    ``MC_CHUNK_SAMPLES // signal.length`` runs (128 and 32 runs of the bundled
    1022-sample record, read to sample 425); only their factors are kept, and the estimators
    run once per pass of width // (factor columns) chunks, at most one chunk's stack in size
    (1024 runs). InputErrors come before any run; failed runs are counted and excluded.
    """
    if runs < 2:  # the covariance statistics need 2 runs
        raise InputError("runs", f"must be >= 2, got {runs}")
    if depth < 2:
        raise InputError("depth", f"must be >= 2 to shift the observability matrix, got {depth}")
    if base_seed < 0:
        raise InputError("base_seed", f"must be >= 0, got {base_seed}")
    if not noise_variance >= 0:
        raise InputError("noise_variance", f"must be >= 0, got {noise_variance}")
    if model.E is None:
        raise InputError("E", "must be set: the state noise enters through it")
    width = hankel_width(signal.length, model.n_outputs, model.n_states, depth, width)
    check_regressor(model.n_inputs, model.n_outputs, depth, width)
    truth = true_observability(model, depth)[model.n_outputs:]
    n_v = model.E.shape[1]
    chunk = max(1, MC_CHUNK_SAMPLES // signal.length)
    # the PRBS map, the noise draws and the recursion are causal: later samples move no earlier one
    T = 2 * depth + width - 1
    sim_chunk = chunk * max(1, MC_SIM_CHUNK_SAMPLES // (chunk * T))
    std = float(np.sqrt(noise_variance))
    signal = replace(signal, channels=model.n_inputs, length=T)
    fixed_u = generate_signal(signal) if fixed_input else None

    samples: dict = {alg: [] for alg in ALGORITHMS}
    reasons = {alg: Counter() for alg in ALGORITHMS}
    factors = []  # of the chunks of the pass, each in its QR layout (runs, columns, rows)
    for first in range(0, runs, sim_chunk):
        # each run's generator draws its excitation seed, then its noise
        rngs = [np.random.default_rng(base_seed + r)
                for r in range(first, min(first + sim_chunk, runs))]
        u_seeds = [int(rng.integers(0, 2 ** 31)) for rng in rngs]
        v = np.empty((len(rngs), T, n_v))
        for rng, v_run in zip(rngs, v):
            v_run[...] = rng.normal(0.0, std, size=(T, n_v))
        if fixed_input:
            u = np.broadcast_to(fixed_u, (len(rngs),) + fixed_u.shape)
        elif signal.kind == "prbs":
            u = _prbs_channels(signal, u_seeds)
        else:
            u = np.stack([generate_signal(replace(signal, seed=s)) for s in u_seeds])
        x, y = _open_loop(model, u, v, noise_mode)
        del v
        for a in range(0, len(rngs), chunk):
            dm = build_data_matrices(Dataset(u=u[a:a + chunk], y=y[a:a + chunk],
                                             x=x[a:a + chunk]), depth, width)
            factors.append(dm.factor.swapaxes(-1, -2))
            if len(factors) == max(1, width // dm.factor.shape[-1]) or first + a + chunk >= runs:
                dm = replace(dm, factor=np.concatenate(factors).swapaxes(-1, -2))
                factors = []
                for alg in ALGORITHMS:
                    samples[alg].extend(_observe_runs(dm, alg, reasons[alg]))
        u = x = y = None  # drop this chunk's records before the next is simulated

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
    """Shifted estimates of a batch of runs. The runs a stage error marks (all
    when it marks none) are counted in ``reasons``; the rest are estimated anew."""
    while len(dm.factor):
        try:
            return _observe(dm, algorithm).matrix[..., dm.n_outputs:, :]
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
        covariance_eigenvalues=np.sort(np.linalg.eigvalsh(covariance)),
        mse=mse,
        mse_eigenvalues=np.sort(np.linalg.eigvalsh(mse)),
        second_moment=second,
        second_moment_eigenvalues=np.sort(np.linalg.eigvalsh(second)),
    )


def harmonic_distortion(y, samples_per_period: int) -> float:
    """Total harmonic distortion of a scalar signal's final ``THD_PERIODS`` cycles.

    The window spans an integer number of fundamental periods, so the DFT
    bins of the fundamental and its harmonics are leakage-free. Harmonics are
    counted up to Nyquist; the result is the RMS harmonic-to-fundamental
    ratio.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if samples_per_period < 2:
        raise ValueError(f"need at least 2 samples per period, got {samples_per_period}")
    if THD_PERIODS * samples_per_period > y.size:
        raise ValueError(
            f"signal too short for {THD_PERIODS} periods of {samples_per_period} samples"
        )
    thd = _distortion(y, samples_per_period)
    if np.isnan(thd):
        raise ValueError("no fundamental component in the analysis window")
    return thd


def _distortion(y: np.ndarray, samples_per_period: int) -> float:
    """The harmonic distortion of ``harmonic_distortion``, unchecked: nan when the
    window's fundamental bin is zero."""
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
    wrong-sized start state ``x0``, a sinusoid reference under 2 samples per period,
    or a ``horizon`` shorter than ``THD_PERIODS`` of its periods.
    """
    K = np.asarray(K, dtype=float)
    n, q, p = model.n_states, model.n_outputs, model.n_inputs
    tracking = isinstance(scenario, TrackingScenario)
    n_loop = n + scenario.imc.order * q if tracking else n
    if K.shape != (p, n_loop):
        raise InputError("K", f"has shape {K.shape}, expected {(p, n_loop)}")
    check_weights(weights, q + n_loop - n, p,
                  "plant outputs and internal-model states" if tracking else "plant outputs")
    if not tracking:
        loop, x0, drives = model, _checked(model, scenario.x0), ()
    else:
        ref = replace(scenario.reference, length=horizon)
        spp = (int(round(2.0 * np.pi / (ref.frequency * ref.sample_time)))
               if ref.kind == "sinusoid" and ref.frequency > 0 else None)
        if spp is not None and spp < 2:
            raise InputError("scenario", f"reference has {spp} samples per period, fewer than 2")
        if spp is not None and horizon < THD_PERIODS * spp:
            raise InputError("horizon", f"must be >= {THD_PERIODS * spp}, got {horizon}")
        loop, x0 = augment_model(model, scenario.imc), np.zeros(n_loop)
        r = generate_signal(ref)
        r = r if r.shape[1] == q else np.tile(r[:, :1], (1, q))
        G = np.vstack([np.zeros((n, q)), np.kron(np.eye(q), scenario.imc.B_c)])
        drives = (_apply(G, r),)
    A_cl = loop.A - loop.B @ K
    rho = float(np.abs(np.linalg.eigvals(A_cl)).max())
    x, u, y = _loop_run(model, K, A_cl, x0, *drives, steps=horizon)
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


def _loop_run(model: StateSpaceModel, K: np.ndarray, A_cl: np.ndarray, x0, *drives, steps: int):
    """Raw x, u = -K x and y = [C x_plant; x_imc] of x(k+1) = A_cl x(k) + drives. It
    checks nothing: an unstable loop runs on to inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = _lti_run(A_cl, x0, *drives, steps=steps)
        u = -_apply(K, x)
        y = np.hstack([x[:, :model.n_states] @ model.C.T, x[:, model.n_states:]])
    return x, u, y


def _fundamental_amplitude(y: np.ndarray, ref: SignalSpec, spp: int) -> float:
    """Amplitude of the reference-frequency component over the final ``THD_PERIODS`` cycles."""
    window = THD_PERIODS * spp
    t = np.arange(y.size - window, y.size) * ref.sample_time
    basis = np.column_stack([np.sin(ref.frequency * t), np.cos(ref.frequency * t)])
    coeff, *_ = np.linalg.lstsq(basis, y[-window:], rcond=None)
    return float(np.hypot(coeff[0], coeff[1]))
