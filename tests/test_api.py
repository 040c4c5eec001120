"""The public API, pinned: a change to ``ddlqr.__all__`` shows up here as a diff."""

import importlib

import pytest

import ddlqr

PUBLIC = [
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
    "design_gain",
    "drop_first_block_row",
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
    "tracking_loop_simulate",
    "true_observability",
    "zoh_discretize",
]


def test_all_is_pinned():
    assert sorted(ddlqr.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ddlqr.__all__:
        assert getattr(ddlqr, name) is not None, name


@pytest.mark.parametrize("module, name", [("matrix_kit", "pinv"), ("lqr", "dd_lqr_p"),
                                          ("markov", "state_snapshot"), ("markov", "true_markov")])
def test_test_only_helpers_are_gone(module, name):
    assert not hasattr(ddlqr, name)
    assert not hasattr(importlib.import_module(f"ddlqr.{module}"), name)
