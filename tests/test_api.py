"""The public API, pinned: a change to ``ddlqr.__all__`` shows up here as a diff."""

import dataclasses
import importlib
import inspect

import pytest

import ddlqr

PUBLIC = [
    "ClosedLoopMetrics",
    "DataMatrices",
    "Dataset",
    "ImcRealization",
    "InputError",
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


# Parameters of the pipeline, the simulator, the closed-loop evaluation, the solvers
# and the dataset reader, and the fields of the model, dataset, estimates and design:
# a keyword or field that only tests would set shows up here as a diff.
PARAMETERS = [
    ("ddlqr", "estimate", ["data", "depth", "width", "algorithm", "imc"]),
    ("ddlqr", "synthesize", ["est", "weights", "horizon"]),
    ("ddlqr", "convergence_sweep", ["model", "est", "weights", "horizons"]),
    ("ddlqr", "evaluate_closed_loop", ["model", "K", "weights", "scenario", "horizon"]),
    ("ddlqr", "simulate", ["model", "u", "x0", "v", "noise_mode"]),
    ("ddlqr", "dare_solve", ["model", "weights"]),
    ("ddlqr", "harmonic_distortion", ["y", "samples_per_period"]),
    ("ddlqr.storage", "read_dataset", ["path"]),
]
FIELDS = [
    ("StateSpaceModel", ["A", "B", "C", "E", "sample_time"]),
    ("Dataset", ["u", "y", "x"]),
    ("DataMatrices", ["factor", "depth", "width", "n_inputs", "n_outputs"]),
    ("MarkovEstimate", ["toeplitz", "depth", "input_rank", "regressor_rank",
                        "input_rank_margin"]),
    ("ObservabilityEstimate", ["matrix", "algorithm", "residual"]),
    ("LqrDesign", ["K", "horizon", "diagnostics"]),
]


def test_all_is_pinned():
    assert sorted(ddlqr.__all__) == PUBLIC


@pytest.mark.parametrize("module, name, params", PARAMETERS, ids=[p[1] for p in PARAMETERS])
def test_parameters_are_pinned(module, name, params):
    function = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(function).parameters) == params


@pytest.mark.parametrize("name, names", FIELDS, ids=[f[0] for f in FIELDS])
def test_fields_are_pinned(name, names):
    assert [f.name for f in dataclasses.fields(getattr(ddlqr, name))] == names


def test_every_public_name_resolves():
    for name in ddlqr.__all__:
        assert getattr(ddlqr, name) is not None, name


PARTS = ["u_past", "y_past", "u_future", "y_future", "x_past"]


# ``owner`` is a module of ddlqr, or a class in one; the DataMatrices partitions
# are named by ``DataMatrices.parts`` only.
@pytest.mark.parametrize("owner, name", [
    ("matrix_kit", "pinv"), ("lqr", "dd_lqr_p"), ("markov", "state_snapshot"),
    ("markov", "true_markov"), ("matrix_kit", "block_toeplitz_strict_lower"),
    ("observability", "drop_first_block_row"), ("experiments", "PipelineConfig"),
    ("experiments", "design_gain"), ("plant_sim", "closed_loop_simulate"),
    ("plant_sim", "tracking_loop_simulate"), ("plant_sim", "cost_J"),
    ("matrix_kit", "block_hankel"), ("markov.DataMatrices", "stack"),
] + [("markov.DataMatrices", part) for part in PARTS])
def test_test_only_helpers_are_gone(owner, name):
    module, _, cls = owner.partition(".")
    scope = importlib.import_module(f"ddlqr.{module}")
    assert not hasattr(getattr(scope, cls) if cls else scope, name)
    assert not hasattr(ddlqr, name)


def test_partitions_are_named_by_parts():
    dm = ddlqr.build_data_matrices(ddlqr.Dataset(u=range(9), y=range(9), x=range(9)), 2, 6)
    assert list(dm.parts) == PARTS
