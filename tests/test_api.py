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
# and the dataset reader, and the fields of the model, dataset, excitation, tracking
# scenario and estimates:
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
    ("plant_sim", "SignalSpec", ["kind", "length", "amplitude", "seed", "register_order",
                                 "channels", "hold"]),
    ("experiments", "TrackingScenario", ["imc", "amplitude", "frequency"]),
    ("markov", "DataMatrices", ["factor", "depth", "width", "n_inputs", "n_outputs", "imc"]),
    ("experiments", "DataDrivenEstimate", ["toeplitz", "observability", "depth", "width", "imc",
                                           "diagnostics"]),
]



def _model(**fields) -> ddlqr.StateSpaceModel:
    return ddlqr.StateSpaceModel(**{"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], **fields})


def _signal(**fields) -> ddlqr.SignalSpec:
    return ddlqr.SignalSpec(**{"kind": "prbs", "length": 10, **fields})


# One argument that breaks each rule of a public constructor or entry point, the parameter
# its InputError names and its message, the parameter then the detail the CLI prints after
# the parameter's config key.
CONSTRUCTOR_RULES = {
    "model-finite": (lambda: _model(A=[[np.nan]]), "A", "A contains non-finite entries"),
    "model-square": (lambda: _model(A=[[1.0, 2.0]]), "A", "A must be square, got (1, 2)"),
    "model-b-columns": (lambda: _model(B=np.zeros((1, 0))), "B", "B has no columns"),
    "model-b-rows": (lambda: _model(B=[[1.0], [1.0]]), "B", "B has 2 rows, expected 1 to match A"),
    "model-c-rows": (lambda: _model(C=np.zeros((0, 1))), "C", "C has no rows"),
    "model-c-columns": (lambda: _model(C=[[1.0, 1.0]]), "C",
                        "C has 2 columns, expected 1 to match A"),
    "model-e-rows": (lambda: _model(E=[[1.0], [2.0]]), "E", "E has 2 rows, expected 1 to match A"),
    "signal-kind": (lambda: _signal(kind="sinusoid"), "kind",
                    "kind must be one of ('prbs', 'white-noise'), got 'sinusoid'"),
    "signal-length": (lambda: _signal(length=0), "length", "length must be >= 1, got 0"),
    "signal-amplitude-inf": (lambda: _signal(amplitude=np.inf), "amplitude",
                             "amplitude must be finite"),
    "signal-amplitude-nan": (lambda: _signal(amplitude=np.nan, kind="white-noise"), "amplitude",
                             "amplitude must be finite"),
    "signal-seed": (lambda: _signal(seed=-1), "seed", "seed must be >= 0, got -1"),
    "signal-register-order": (lambda: _signal(register_order=33), "register_order",
                              "register_order must be between 2 and 32, got 33"),
    "signal-channels": (lambda: _signal(channels=0), "channels", "channels must be >= 1"),
    "signal-hold": (lambda: _signal(hold=0), "hold", "hold must be >= 1"),
    "imc-square": (lambda: ddlqr.ImcRealization(A_c=[[1.0, 2.0]], B_c=[1.0]), "A_c",
                   "A_c must be square, got (1, 2)"),
    "imc-input": (lambda: ddlqr.ImcRealization(A_c=np.eye(2), B_c=[1.0]), "B_c",
                  "B_c has 1 entries, expected 2 to match A_c"),
    "resonant-ts": (lambda: ddlqr.resonant_imc(100.0, 0.0), "Ts", "Ts must be positive"),
    "resonant-frequency": (lambda: ddlqr.resonant_imc(0.0, 1e-3), "omega_n",
                           "omega_n * Ts = 0 must lie strictly inside (0, pi); the frequency is "
                           "at or below zero"),
    "weight-square": (lambda: ddlqr.LqrWeights(Q=[[1.0, 2.0]], R=1.0), "Q",
                      "Q must be square, got (1, 2)"),
    "weight-symmetric": (lambda: ddlqr.LqrWeights(Q=[[1.0, 2.0], [3.0, 4.0]], R=1.0), "Q",
                         "Q must be symmetric within 1e-12"),
    "weight-definite": (lambda: ddlqr.LqrWeights(Q=1.0, R=0.0), "R",
                        f"R must be positive definite. {lqr.RIDGE_HINT}"),
    "zoh-ts": (lambda: ddlqr.zoh_discretize([[0.0]], [[1.0]], [[1.0]], 0.0), "Ts",
               "Ts must be positive"),
    # a finite A whose exponential overflows in the squarings, with no numpy warning
    "zoh-overflow": (lambda: ddlqr.zoh_discretize([[1e300, 0.0], [0.0, 1.0]], [[1.0], [0.0]],
                                                  [[0.0, 1.0]], 1e-3), "A",
                     "A overflows in exp(A * Ts) at Ts = 0.001"),
    "estimate-algorithm": (lambda: ddlqr.estimate(prbs_dataset(_model()), 2, algorithm="alg3"),
                           "algorithm", "algorithm must be one of ('alg1', 'alg2'), got 'alg3'"),
    "dataset-channels": (lambda: ddlqr.Dataset(u=np.zeros((4, 1)), y=np.zeros((4, 0)),
                                               x=np.zeros((4, 1))), "y", "y has no channels"),
    "dataset-lengths": (lambda: ddlqr.Dataset(u=np.zeros(4), y=np.zeros(4), x=np.zeros(3)), "x",
                        "x has leading shape (3,), expected (4,) to match u"),
    "dataset-samples": (lambda: ddlqr.Dataset(u=np.zeros(0), y=np.zeros(0), x=np.zeros(0)), "u",
                        "u has no samples"),
    "simulate-u-finite": (lambda: ddlqr.simulate(_model(), [1.0, np.nan, 0.0]), "u",
                          "u contains non-finite entries"),
    "simulate-v-finite": (lambda: ddlqr.simulate(_model(E=[[1.0]]), np.zeros(3),
                                                 v=[0.0, np.inf, 0.0]), "v",
                          "v contains non-finite entries"),
    "simulate-u-samples": (lambda: ddlqr.simulate(_model(), np.zeros((0, 1))), "u",
                           "u has no samples"),
    "simulate-noise-mode": (lambda: ddlqr.simulate(_model(), np.zeros(4), noise_mode="both"),
                            "noise_mode",
                            "noise_mode must be 'process' or 'measurement', got 'both'"),
    "simulate-v-shape": (lambda: ddlqr.simulate(_model(E=[[1.0]]), np.zeros(4), v=np.zeros(3)),
                         "v", "v has shape (3, 1), expected (4, 1) to match the samples and E"),
    "eval-gain-finite": (lambda: ddlqr.evaluate_closed_loop(
        _model(), [[np.nan]], ddlqr.LqrWeights(Q=1.0, R=1.0),
        ddlqr.RegulationScenario(x0=[1.0]), 10), "K", "K contains non-finite entries"),
    "eval-horizon": (lambda: ddlqr.evaluate_closed_loop(
        _model(), [[0.0]], ddlqr.LqrWeights(Q=1.0, R=1.0), ddlqr.RegulationScenario(x0=[1.0]),
        0), "horizon", "horizon must be >= 1, got 0"),
}


@pytest.mark.parametrize("rule", list(CONSTRUCTOR_RULES))
def test_constructor_rules_raise_input_errors(rule):
    call, param, message = CONSTRUCTOR_RULES[rule]
    with pytest.raises(ddlqr.InputError) as raised:
        call()
    assert raised.value.param == param and str(raised.value) == message

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
                                        weights), ["cond_bracket", "cond_inner"]),
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
    aug = augment_model(model, cfg.imc(model.sample_time))
    assert model_lqr_gain(aug, dare_solve(aug, weights), weights.R).shape == (1, 4)
    assert cfg.get("estimation", "depth") == 150


def test_config_spellings_the_benchmark_calls_exist():
    # perfbench/workloads.py alone still calls RunConfig.get_int and imc(default_ts=...)
    from ddlqr.config import RunConfig

    assert RunConfig.get_int is RunConfig.get
    assert list(inspect.signature(RunConfig.imc).parameters) == ["self", "default_ts"]


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
