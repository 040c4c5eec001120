"""Data-driven infinite-horizon LQR design from input/state/output batches."""

from .imc import (
    ImcRealization,
    augment_dataset,
    augment_model,
    filter_imc_states,
    integrator_imc,
    resonant_imc,
)
from .lqr import LqrDesign, LqrWeights, dare_solve, dd_lqr_gain, model_lqr_gain
from .markov import DataMatrices, MarkovEstimate, build_data_matrices, estimate_predictor
from .matrix_kit import block_hankel
from .observability import (
    ObservabilityEstimate,
    estimate_obs_alg1,
    estimate_obs_alg2,
    true_observability,
)
from .plant_sim import (
    Dataset,
    SignalSpec,
    StateSpaceModel,
    generate_signal,
    simulate,
    zoh_discretize,
)
from .experiments import (
    ClosedLoopMetrics,
    MonteCarloReport,
    RegulationScenario,
    TrackingScenario,
    convergence_sweep,
    estimate,
    evaluate_closed_loop,
    harmonic_distortion,
    monte_carlo_obs,
    synthesize,
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
    "RegulationScenario",
    "SignalSpec",
    "StateSpaceModel",
    "TrackingScenario",
    "augment_dataset",
    "augment_model",
    "block_hankel",
    "build_data_matrices",
    "convergence_sweep",
    "dare_solve",
    "dd_lqr_gain",
    "estimate",
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
    "resonant_imc",
    "simulate",
    "synthesize",
    "true_observability",
    "zoh_discretize",
]
