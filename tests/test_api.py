"""The public API, pinned: a change to ``ddlqr.__all__`` shows up here as a diff."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

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
    ("ddlqr", "simulate", ["model", "u", "v", "noise_mode"]),
    ("ddlqr", "generate_signal", ["spec", "seeds"]),
    ("ddlqr", "dare_solve", ["model", "weights"]),
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
    ("plant_sim", "_open_loop"), ("experiments", "harmonic_distortion"),
] + [("markov.DataMatrices", part) for part in PARTS])
def test_test_only_helpers_are_gone(owner, name):
    module, _, cls = owner.partition(".")
    scope = importlib.import_module(f"ddlqr.{module}")
    assert not hasattr(getattr(scope, cls) if cls else scope, name)
    assert not hasattr(ddlqr, name)


def test_partitions_are_named_by_parts():
    dm = ddlqr.build_data_matrices(ddlqr.Dataset(u=range(9), y=range(9), x=range(9)), 2, 6)
    assert list(dm.parts) == PARTS


def _names_the_library_calls() -> set:
    """Every name that a module of the package other than ``__init__`` calls, or hands
    to ``experiments._stage`` to call: ``f(...)``, ``module.f(...)``, ``_stage(tag, f, ...)``."""
    names = set()
    for path in Path(ddlqr.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else (
                    getattr(node.func, "id", None))
                names.add(called)
                if called == "_stage":
                    names.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    return names


def test_every_public_function_has_a_library_caller():
    # a public function that only tests call is a path the commands never take
    called = _names_the_library_calls()
    functions = [name for name in ddlqr.__all__ if inspect.isfunction(getattr(ddlqr, name))]
    assert [name for name in functions if name not in called] == []
