"""End-to-end studies: full design pipeline, convergence sweeps, Monte Carlo
statistics of the observability estimators, and closed-loop evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .imc import ImcRealization, augment_dataset, augment_model
from .lqr import LqrDesign, LqrWeights, dare_solve, dd_lqr_gain, model_lqr_gain
from .markov import build_data_matrices, estimate_predictor
from .matrix_kit import DEFAULT_PINV_TOL, block_toeplitz_strict_lower
from .observability import (
    ALGORITHMS,
    drop_first_block_row,
    estimate_obs_alg1,
    estimate_obs_alg2,
    true_observability,
)
from .plant_sim import (
    Dataset,
    SignalSpec,
    StateSpaceModel,
    closed_loop_simulate,
    cost_J,
    generate_signal,
    simulate,
    tracking_loop_simulate,
)


@dataclass
class PipelineConfig:
    """Settings of one data-driven design pass.

    ``horizon`` follows the convention of the reference experiments: it is
    the block-row depth of the lifted experiment, and the closed-form gain is
    evaluated at order horizon - 1 (the number of Markov parameters a
    depth-``horizon`` data split actually pins down). ``depth`` is the
    Hankel depth of the estimation stage and must be at least ``horizon``.
    """

    weights: LqrWeights
    horizon: int
    depth: Optional[int] = None
    width: Optional[int] = None
    algorithm: str = "alg1"
    imc: Optional[ImcRealization] = None
    markov_structure: str = "average"
    pinv_tol: float = DEFAULT_PINV_TOL

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2 (the gain needs at least one Markov block)")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.depth is None:
            self.depth = self.horizon
        if self.depth < self.horizon:
            raise ValueError(f"depth {self.depth} must be >= horizon {self.horizon}")


@dataclass
class MonteCarloReport:
    """Empirical statistics of one observability estimator across runs.

    ``mse`` is the error moment about the true matrix (covariance plus
    bias bias'); ``second_moment`` is the moment about the origin
    (covariance plus mean mean'), the raw-magnitude metric used when
    comparing the reported estimator figures. Eigenvalues are ascending.
    """

    algorithm: str
    runs: int
    failures: int
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
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def design_gain(data: Dataset, config: PipelineConfig) -> LqrDesign:
    """Run the full data-driven pipeline on a dataset.

    Stages: optional internal-model augmentation, Hankel data matrices,
    Markov-parameter least squares, observability estimation with the chosen
    algorithm, closed-form gain. All stage diagnostics are merged into the
    returned design.
    """
    if config.imc is not None:
        data = _stage("imc-augmentation", augment_dataset, data, config.imc)
    q = data.n_outputs
    if config.weights.Q.shape[0] != q:
        raise ValueError(
            f"Q has dimension {config.weights.Q.shape[0]}, expected {q} "
            f"(dataset outputs{' after augmentation' if config.imc is not None else ''})"
        )
    dm = _stage("data-matrices", build_data_matrices, data, config.depth, config.width)
    est = _stage("markov-estimation", estimate_predictor, dm,
                 structure=config.markov_structure, pinv_tol=config.pinv_tol)
    if config.algorithm == "alg1":
        obs = _stage("observability", estimate_obs_alg1, dm, est.toeplitz, tol=config.pinv_tol)
    else:
        obs = _stage("observability", estimate_obs_alg2, dm, tol=config.pinv_tol)
    order = config.horizon - 1
    p = data.n_inputs
    M = est.stacked(order)
    S = block_toeplitz_strict_lower(est.blocks[:order - 1], order, block_shape=(q, p))
    O_plus = obs.shifted[:q * order, :]
    design = _stage("gain", dd_lqr_gain, M, S, O_plus, config.weights, order)
    diagnostics = dict(design.diagnostics)
    diagnostics.update(
        gain_order=order,
        depth=dm.depth,
        width=dm.width,
        input_rank=est.input_rank,
        input_rank_margin=est.input_rank_margin,
        regressor_rank=est.regressor_rank,
        obs_residual=obs.residual,
        algorithm=config.algorithm,
    )
    return LqrDesign(K=design.K, horizon=config.horizon, weights=config.weights,
                     diagnostics=diagnostics)


def convergence_sweep(
    model: StateSpaceModel,
    data: Dataset,
    config: PipelineConfig,
    horizons: Sequence[int],
) -> List[Tuple[int, float]]:
    """Design at each horizon and measure the max-entry gap to the Riccati gain."""
    P = dare_solve(model, config.weights)
    K_star = model_lqr_gain(model, P, config.weights.R)
    rows: List[Tuple[int, float]] = []
    for N in horizons:
        cfg = replace(config, horizon=N, depth=max(config.depth or N, N))
        design = design_gain(data, cfg)
        rows.append((N, float(np.abs(design.K - K_star).max())))
    return rows


def monte_carlo_obs(
    model: StateSpaceModel,
    signal: SignalSpec,
    depth: int,
    runs: int,
    noise_variance: float,
    base_seed: int = 0,
    width: Optional[int] = None,
    noise_mode: str = "measurement",
    fixed_input: bool = False,
    structure: str = "average",
    pinv_tol: float = DEFAULT_PINV_TOL,
) -> Tuple[MonteCarloReport, MonteCarloReport]:
    """Monte Carlo statistics of both observability estimators under noise.

    Each run redraws the excitation signal and the state-noise sequence from
    a run-indexed seed (``fixed_input`` keeps one excitation realization
    across runs and redraws only the noise), simulates the model, and
    estimates the shifted observability matrix with both algorithms. Runs
    where an estimation stage fails are counted and excluded.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs for covariance statistics")
    if model.E is None:
        raise ValueError("model must define a state-noise channel E")
    truth = drop_first_block_row(true_observability(model, depth), model.n_outputs)
    n_v = model.E.shape[1]
    T = signal.length
    std = float(np.sqrt(noise_variance))
    fixed_u = generate_signal(replace(signal, channels=model.n_inputs)) if fixed_input else None

    samples: dict = {"alg1": [], "alg2": []}
    failures = {"alg1": 0, "alg2": 0}
    for r in range(runs):
        rng = np.random.default_rng(base_seed + r)
        u_seed = int(rng.integers(0, 2 ** 31))
        u = fixed_u if fixed_u is not None else generate_signal(
            replace(signal, seed=u_seed, channels=model.n_inputs)
        )
        v = rng.normal(0.0, std, size=(T, n_v))
        data = simulate(model, u, v=v, noise_mode=noise_mode)
        try:
            dm = build_data_matrices(data, depth, width)
        except ValueError:
            failures["alg1"] += 1
            failures["alg2"] += 1
            continue
        try:
            est = estimate_predictor(dm, structure=structure, pinv_tol=pinv_tol)
            samples["alg1"].append(estimate_obs_alg1(dm, est.toeplitz, tol=pinv_tol).shifted)
        except ValueError:
            failures["alg1"] += 1
        try:
            samples["alg2"].append(estimate_obs_alg2(dm, tol=pinv_tol).shifted)
        except ValueError:
            failures["alg2"] += 1

    reports = []
    for alg in ("alg1", "alg2"):
        if len(samples[alg]) < 2:
            raise ValueError(f"{alg}: fewer than 2 successful runs ({failures[alg]} failures)")
        reports.append(_reduce_report(alg, samples[alg], failures[alg], truth))
    return reports[0], reports[1]


def _reduce_report(algorithm: str, estimates, failures: int, truth: np.ndarray) -> MonteCarloReport:
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
        failures=failures,
        truth=truth,
        mean=mean,
        covariance=covariance,
        covariance_eigenvalues=np.sort(np.linalg.eigvalsh(covariance)),
        mse=mse,
        mse_eigenvalues=np.sort(np.linalg.eigvalsh(mse)),
        second_moment=second,
        second_moment_eigenvalues=np.sort(np.linalg.eigvalsh(second)),
    )


def harmonic_distortion(y, samples_per_period: int, periods: int = 10) -> float:
    """Total harmonic distortion of a scalar signal's final ``periods`` cycles.

    The window spans an integer number of fundamental periods, so the DFT
    bins of the fundamental and its harmonics are leakage-free. Harmonics are
    counted up to Nyquist; the result is the RMS harmonic-to-fundamental
    ratio.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    window = periods * samples_per_period
    if window < 2 or window > y.size:
        raise ValueError(
            f"signal too short for {periods} periods of {samples_per_period} samples"
        )
    spectrum = np.fft.rfft(y[-window:])
    fund = abs(spectrum[periods])
    if fund == 0.0:
        raise ValueError("no fundamental component in the analysis window")
    harmonics = spectrum[2 * periods::periods]
    return float(np.sqrt(np.sum(np.abs(harmonics) ** 2)) / fund)


def evaluate_closed_loop(
    model: StateSpaceModel,
    design: LqrDesign,
    scenario: Union[RegulationScenario, TrackingScenario],
    horizon: int,
) -> ClosedLoopMetrics:
    """Simulate the closed loop and report cost, stability margin and tracking.

    An unstable loop is reported through the spectral radius (and infinite
    cost when the trajectory overflows), never as an exception.
    """
    weights = design.weights
    if isinstance(scenario, RegulationScenario):
        rho = float(np.abs(np.linalg.eigvals(model.A - model.B @ design.K)).max())
        try:
            ds = closed_loop_simulate(model, design.K, scenario.x0, horizon)
            cost = cost_J(ds, weights.Q, weights.R)
            sse = float(np.linalg.norm(ds.y[-1]))
        except ValueError:
            cost, sse = float("inf"), float("inf")
        return ClosedLoopMetrics(cost=cost, spectral_radius=rho, steady_state_error=sse)

    if not isinstance(scenario, TrackingScenario):
        raise ValueError(f"unsupported scenario {scenario!r}")
    aug = augment_model(model, scenario.imc)
    rho = float(np.abs(np.linalg.eigvals(aug.A - aug.B @ design.K)).max())
    ref_spec = replace(scenario.reference, length=horizon)
    r = generate_signal(ref_spec)
    if r.shape[1] != model.n_outputs:
        r = np.tile(r[:, :1], (1, model.n_outputs))
    thd = None
    try:
        ds = tracking_loop_simulate(model, scenario.imc, design.K, r)
        cost = cost_J(ds, weights.Q, weights.R)
        y = ds.y[:, :model.n_outputs]
        if ref_spec.kind == "sinusoid" and ref_spec.frequency > 0:
            spp = int(round(2.0 * np.pi / (ref_spec.frequency * ref_spec.sample_time)))
            amp = _fundamental_amplitude(y[:, 0], ref_spec, horizon)
            sse = float(abs(amp - ref_spec.amplitude) / abs(ref_spec.amplitude))
            thd = harmonic_distortion(y[:, 0], spp)
        else:
            sse = float(np.abs(y[-1] - r[-1]).max())
    except ValueError:
        cost, sse = float("inf"), float("inf")
    return ClosedLoopMetrics(cost=cost, spectral_radius=rho, steady_state_error=sse, thd=thd)


def _fundamental_amplitude(y: np.ndarray, ref: SignalSpec, horizon: int, periods: int = 10) -> float:
    """Amplitude of the reference-frequency component over the final cycles."""
    spp = int(round(2.0 * np.pi / (ref.frequency * ref.sample_time)))
    window = min(periods * spp, y.size)
    t = np.arange(horizon - window, horizon) * ref.sample_time
    basis = np.column_stack([np.sin(ref.frequency * t), np.cos(ref.frequency * t)])
    coeff, *_ = np.linalg.lstsq(basis, y[-window:], rcond=None)
    return float(np.hypot(coeff[0], coeff[1]))
