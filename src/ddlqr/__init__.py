"""Data-driven infinite-horizon LQR design from input/state/output batches."""

from .imc import (
    ImcRealization,
    augment_dataset,
    augment_model,
    filter_imc_states,
    integrator_imc,
    resonant_imc,
)
from .lqr import LqrDesign, LqrWeights, dare_solve, dd_lqr_gain, dd_lqr_p, model_lqr_gain
from .markov import DataMatrices, MarkovEstimate, build_data_matrices, estimate_predictor, true_markov
from .markov import state_snapshot
from .matrix_kit import block_diag_repeat, block_hankel, block_toeplitz_strict_lower, pinv
from .observability import (
    ObservabilityEstimate,
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
    zoh_discretize,
)
from .experiments import (
    ClosedLoopMetrics,
    MonteCarloReport,
    PipelineConfig,
    RegulationScenario,
    TrackingScenario,
    convergence_sweep,
    design_gain,
    evaluate_closed_loop,
    harmonic_distortion,
    monte_carlo_obs,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedLoopMetrics",
    "DataMatrices",
    "Dataset",
    "ImcRealization",
    "LqrDesign",
    "LqrWeights",
    "MarkovEstimate",
    "MonteCarloReport",
    "ObservabilityEstimate",
    "PipelineConfig",
    "RegulationScenario",
    "SignalSpec",
    "StateSpaceModel",
    "TrackingScenario",
    "augment_dataset",
    "augment_model",
    "block_diag_repeat",
    "block_hankel",
    "block_toeplitz_strict_lower",
    "build_data_matrices",
    "closed_loop_simulate",
    "convergence_sweep",
    "cost_J",
    "dare_solve",
    "dd_lqr_gain",
    "dd_lqr_p",
    "design_gain",
    "drop_first_block_row",
    "estimate_obs_alg1",
    "estimate_obs_alg2",
    "estimate_predictor",
    "evaluate_closed_loop",
    "filter_imc_states",
    "generate_signal",
    "harmonic_distortion",
    "integrator_imc",
    "model_lqr_gain",
    "monte_carlo_obs",
    "pinv",
    "resonant_imc",
    "simulate",
    "state_snapshot",
    "tracking_loop_simulate",
    "true_markov",
    "true_observability",
    "zoh_discretize",
]
