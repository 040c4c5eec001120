"""Data-driven infinite-horizon LQR design from input/state/output batches.

The public API is the pipeline: ``estimate`` and ``synthesize``, the simulators and
signals that feed them, the studies built on them, and the model-based oracles. Their
internal stages stay importable from their modules (``ddlqr.markov`` and the like).
"""

from .imc import ImcRealization, augment_model, integrator_imc, resonant_imc
from .lqr import LqrWeights, dare_solve, model_lqr_gain
from .plant_sim import (
    Dataset,
    InputError,
    SignalSpec,
    StateSpaceModel,
    generate_signal,
    simulate,
    zoh_discretize,
)
from .experiments import (
    RegulationScenario,
    TrackingScenario,
    convergence_sweep,
    estimate,
    evaluate_closed_loop,
    monte_carlo_obs,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ImcRealization",
    "InputError",
    "LqrWeights",
    "RegulationScenario",
    "SignalSpec",
    "StateSpaceModel",
    "TrackingScenario",
    "augment_model",
    "convergence_sweep",
    "dare_solve",
    "estimate",
    "evaluate_closed_loop",
    "generate_signal",
    "integrator_imc",
    "model_lqr_gain",
    "monte_carlo_obs",
    "resonant_imc",
    "simulate",
    "synthesize",
    "zoh_discretize",
]
