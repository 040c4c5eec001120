"""The public API, pinned: a change to ``ddlqr.__all__`` shows up here as a diff."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import prbs_dataset, two_output_model
import ddlqr
from ddlqr import lqr, markov, observability

PUBLIC = [
    "ClosedLoopMetrics",
    "Dataset",
    "ImcRealization",
    "InputError",
    "LqrDesign",
    "LqrWeights",
    "MonteCarloReport",
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
# The stages of ``estimate`` and ``synthesize``: each keeps its name in its module, where
# the benchmark's tracer patches it, and is not exported from the package.
STAGES = [
    ("markov", "build_data_matrices"), ("markov", "estimate_predictor"),
    ("markov", "DataMatrices"),
    ("observability", "estimate_obs_alg1"), ("observability", "estimate_obs_alg2"),
    ("observability", "true_observability"),
    ("lqr", "dd_lqr_gain"), ("imc", "filter_imc_states"), ("imc", "append_imc_states"),
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
    ("plant_sim", "StateSpaceModel", ["A", "B", "C", "E", "sample_time"]),
    ("plant_sim", "Dataset", ["u", "y", "x"]),
    ("markov", "DataMatrices", ["factor", "depth", "width", "n_inputs", "n_outputs", "imc"]),
    ("lqr", "LqrDesign", ["K", "horizon", "diagnostics"]),
    ("experiments", "DataDrivenEstimate", ["toeplitz", "observability", "depth", "width", "imc",
                                           "diagnostics"]),
]


def test_all_is_pinned():
    assert sorted(ddlqr.__all__) == PUBLIC


@pytest.mark.parametrize("module, name, params", PARAMETERS, ids=[p[1] for p in PARAMETERS])
def test_parameters_are_pinned(module, name, params):
    function = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(function).parameters) == params


@pytest.mark.parametrize("module, name, names", FIELDS, ids=[f[1] for f in FIELDS])
def test_fields_are_pinned(module, name, names):
    cls = getattr(importlib.import_module(f"ddlqr.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_stages_return_an_array_and_its_figures():
    # every estimation stage hands over what the gain stage does: (array, figures)
    dm = markov.build_data_matrices(prbs_dataset(two_output_model()), 6)
    predictor, alg2 = markov.estimate_predictor(dm), observability.estimate_obs_alg2(dm)
    toeplitz, obs = predictor[0], alg2[0]
    weights = ddlqr.LqrWeights(Q=np.eye(2), R=np.eye(2))
    pairs = {
        "estimate_predictor": (predictor, ["input_rank", "input_rank_margin", "regressor_rank"]),
        "estimate_obs_alg1": (observability.estimate_obs_alg1(dm, toeplitz), ["obs_residual"]),
        "estimate_obs_alg2": (alg2, ["obs_residual"]),
        "dd_lqr_gain": (lqr.dd_lqr_gain(toeplitz[2:12, :2], toeplitz[:10, :10], obs[2:12],
                                        weights, 5), ["cond_bracket", "cond_inner"]),
    }
    for name, (pair, figures) in pairs.items():
        assert type(pair) is tuple and len(pair) == 2, name
        assert isinstance(pair[0], np.ndarray) and type(pair[1]) is dict, name
        assert sorted(pair[1]) == figures, name


def test_every_public_name_resolves():
    for name in ddlqr.__all__:
        assert getattr(ddlqr, name) is not None, name


@pytest.mark.parametrize("module, name", STAGES, ids=[s[1] for s in STAGES])
def test_stages_live_in_their_modules_only(module, name):
    assert getattr(importlib.import_module(f"ddlqr.{module}"), name) is not None
    assert not hasattr(ddlqr, name)


def test_names_the_benchmark_imports_exist():
    # perfbench/workloads.py reads its configs and computes its reference gains with these
    from ddlqr import augment_model, dare_solve, model_lqr_gain
    from ddlqr.config import RunConfig

    cfg = RunConfig.load(str(Path(__file__).parent.parent / "configs" / "ups_tracking_demo.ini"),
                         [])
    model, weights = cfg.model(), cfg.weights()
    aug = augment_model(model, cfg.imc(default_ts=model.sample_time))
    assert model_lqr_gain(aug, dare_solve(aug, weights), weights.R).shape == (1, 4)
    assert cfg.get_int("estimation", "depth") == 150


PARTS = ["u_past", "y_past", "z_past", "u_future", "y_future", "x_past"]


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
    ("imc", "augment_dataset"), ("markov", "MarkovEstimate"),
    ("observability", "ObservabilityEstimate"),
] + [("markov.DataMatrices", part) for part in PARTS])
def test_test_only_helpers_are_gone(owner, name):
    module, _, cls = owner.partition(".")
    if module == "matrix_kit":  # folded into markov and plant_sim
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("ddlqr.matrix_kit")
    else:
        scope = importlib.import_module(f"ddlqr.{module}")
        assert not hasattr(getattr(scope, cls) if cls else scope, name)
    assert not hasattr(ddlqr, name)


def test_partitions_are_named_by_parts():
    dm = markov.build_data_matrices(ddlqr.Dataset(u=range(9), y=range(9), x=range(9)), 2, 6)
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
