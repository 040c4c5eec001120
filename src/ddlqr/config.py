"""Run-configuration files.

INI sections with JSON-parsed values: scalars are plain numbers or strings,
matrices are bracketed row lists like ``[[1, 0.15], [-0.2, 0.6]]``. The same
representation is written back as the resolved-config echo, so a run can be
reproduced from its own echo.

``KEYS`` lists every key that some command reads, with its kind and bound.
Loading refuses any other key and any value that is not of its key's kind or
out of its bound, so the echo holds only known keys of valid kind and bound;
one may still go unread, as ``[signal] register_order`` or ``hold`` under
``kind = white-noise``. The library's constructors check the domain objects'
values, and ``cli.INPUT_KEYS`` names the key of an ``InputError`` they raise.
"""

from __future__ import annotations

import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .imc import ImcRealization, integrator_imc, resonant_imc
from .lqr import LqrWeights
from .observability import ALGORITHMS
from .plant_sim import NOISE_MODES, SIGNAL_KINDS, SignalSpec, StateSpaceModel, zoh_discretize


class ConfigError(Exception):
    """Invalid or missing configuration input (CLI exit code 2)."""


class Key(NamedTuple):
    """A config key's kind: "int", "float", "bool", "str", "matrix" or "ints" (a
    non-empty list of integers), with its bound (">= 2", "> 0") or allowed
    strings where a reader relies on one; a removed key holds why instead."""

    kind: str = ""
    bound: str = ""
    choices: Tuple[str, ...] = ()
    removed: str = ""


_MATRIX, _INT, _FLOAT, _STR = Key("matrix"), Key("int"), Key("float"), Key("str")
_TS = Key(removed="signals run at the sample time [model] ts")
_RANDOM = Key(removed="a reference is a constant or a sinusoid, which this key does not shape")
_NOISE = Key(removed="the runs take their noise from [noise] variance and mode")
# Every key some command reads, by section; one file may serve several commands.
KEYS: Dict[str, Dict[str, Key]] = {
    "model": {"a": _MATRIX, "b": _MATRIX, "c": _MATRIX, "e": _MATRIX,
              "ts": Key("float", "> 0"), "continuous": Key("bool"),
              "f": Key(removed="the simulators have no output-noise channel, y = C x")},
    "signal": {"kind": Key("str", choices=SIGNAL_KINDS), "amplitude": _FLOAT,
               "variance": Key(removed="white noise has std [signal] amplitude"),
               "frequency": Key(removed="an excitation is a PRBS or white noise"), "seed": _INT,
               "register_order": _INT, "hold": _INT, "ts": _TS, "length": _INT,
               "channels": Key(removed="the signal has one channel per column of [model] b")},
    "reference": {"kind": Key("str", choices=("constant", "sinusoid")), "amplitude": _FLOAT,
                  "variance": _RANDOM, "frequency": _FLOAT, "seed": _RANDOM,
                  "register_order": _RANDOM, "hold": _RANDOM, "ts": _TS,
                  "channels": Key(removed="the reference has one channel per row of [model] c"),
                  "length": Key(removed="the reference runs for the [eval] horizon")},
    "estimation": {"depth": Key("int", ">= 2"), "width": Key("int", ">= 1"),
                   "algorithm": Key("str", choices=ALGORITHMS),
                   "structure": Key(removed="the Markov blocks are always sub-diagonal averages")},
    "lqr": {"q": _MATRIX, "r": _MATRIX, "horizon": Key("int", ">= 2")},
    "sweep": {"horizons": Key("ints", ">= 2")},
    "noise": {"variance": Key("float", ">= 0"), "seed": Key("int", ">= 0"),
              "mode": Key("str", choices=NOISE_MODES)},
    "montecarlo": {"runs": Key("int", ">= 2"), "variance": _NOISE, "seed": Key("int", ">= 0"),
                   "noise_mode": _NOISE, "fixed_input": Key("bool")},
    "imc": {"kind": Key("str", choices=("integrator", "resonant")), "omega_n": _FLOAT,
            "ts": Key(removed="the internal model runs at the sample time [model] ts")},
    "eval": {"horizon": Key("int", ">= 1"), "x0": _MATRIX,
             "scenario": Key(removed="eval tracks when there is an [imc] section, else regulates")},
    "io": {"dataset": _STR, "gain": _STR,
           "output_dir": Key(removed="the output directory is --output-dir or $DDLQR_OUTPUT_DIR")},
}


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to convert
        return raw.strip()


def _as_matrix(section: str, key: str, value) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [[value]]
    if not isinstance(value, list):
        raise ConfigError(f"[{section}] {key} must be a number or a bracketed row list")
    rows = value if value and isinstance(value[0], list) else [value]
    if not all(isinstance(r, list) and not any(isinstance(v, bool) for v in r) for r in rows):
        raise ConfigError(f"[{section}] {key} must be a number or a bracketed row list")
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"[{section}] {key} has ragged rows of lengths "
                          f"{sorted(len(r) for r in rows)}")
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} has a non-numeric entry ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"[{section}] {key} entries must be finite")
    return arr


def _in_bound(value, bound: str) -> bool:
    op, limit = bound.split()
    return value > float(limit) if op == ">" else value >= float(limit)


def _typed(section: str, key: str, value):
    """``value`` as the kind its ``KEYS`` entry declares, or a ConfigError."""
    spec, name = KEYS.get(section, {}).get(key), f"[{section}] {key}"
    if spec is None:
        import difflib  # on this error path only: the import takes about 2 ms

        known = [f"[{s}] {k}" for s, keys in KEYS.items() for k, e in keys.items() if not e.removed]
        near = difflib.get_close_matches(name, known, n=1, cutoff=0.0)[0]
        raise ConfigError(f"unknown key {name}; the nearest known key is {near}")
    if spec.removed:
        raise ConfigError(f"{name} is no longer supported: {spec.removed}; remove the key")
    if spec.kind == "matrix":
        return _as_matrix(section, key, value)
    if spec.kind == "bool":
        if str(value).lower() not in ("true", "false"):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return str(value).lower() == "true"
    if spec.kind == "ints":
        if not (isinstance(value, list) and value
                and all(type(v) is int and _in_bound(v, spec.bound) for v in value)):
            raise ConfigError(f"{name} must be a non-empty list of integers {spec.bound}, "
                              f"got {value!r}")
        return value
    if spec.kind == "str":
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"{name} must be one of {spec.choices}, got {value!r}")
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or spec.kind == "int" and value != int(value)):
        what = "an integer" if spec.kind == "int" else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    value = int(value) if spec.kind == "int" else float(value)
    if spec.bound and not _in_bound(value, spec.bound):
        raise ConfigError(f"{name} must be {spec.bound}, got {value}")
    return value


class RunConfig:
    """Typed view over a parsed INI configuration."""

    def __init__(self, values: Dict[str, Dict[str, Any]]):
        self.values = values

    @classmethod
    def load(cls, path: Union[str, Path], overrides: Optional[List[str]] = None) -> "RunConfig":
        """Parse a file and its ``section.key=value`` overrides; any key that
        is unknown, removed, or not of its kind and bound is a ConfigError."""
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
            for item in overrides or []:
                target, eq, raw = item.partition("=")
                section, dot, key = target.partition(".")
                if not (eq and dot):
                    raise ConfigError(f"override {item!r} must look like section.key=value")
                parser.read_dict({section.strip(): {key.strip(): raw.strip()}})
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        values = {section: {key: _parse_value(raw) for key, raw in parser.items(section)}
                  for section in parser.sections()}
        for section, items in values.items():
            for key, value in items.items():
                _typed(section, key, value)
        return cls(values)

    # -- low-level accessors ------------------------------------------------

    def has(self, section: str, key: Optional[str] = None) -> bool:
        return section in self.values and (key is None or key in self.values[section])

    def get(self, section: str, key: str, default=None, required: bool = False):
        """The key's value as its schema kind: int, float, bool, str, an
        ndarray for a matrix, or a list of ints."""
        if not self.has(section, key):
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return _typed(section, key, self.values[section][key])

    get_int = get  # perfbench/workloads.py alone calls this and imc(default_ts=...)

    # -- domain objects -----------------------------------------------------

    def model(self) -> StateSpaceModel:
        """The [model] plant; its sample time is ``[model] ts``, or 1.0 for a discrete model."""
        A, B, C = (self.get("model", key, required=True) for key in "abc")
        ts = self.get("model", "ts")
        if self.get("model", "continuous", False):
            if ts is None:
                raise ConfigError("[model] ts is required for a continuous-time model")
            model = zoh_discretize(A, B, C, ts)
        else:
            model = StateSpaceModel(A=A, B=B, C=C, sample_time=1.0 if ts is None else ts)
        return replace(model, E=self.get("model", "e"))

    def signal(self, model: StateSpaceModel) -> SignalSpec:
        """The [signal] excitation of the model's inputs, one channel each, for its
        ``length``. Keys it leaves out take SignalSpec's defaults."""
        self.get("signal", "kind", required=True)
        fields = {"channels": model.n_inputs, "length": self.get("signal", "length", required=True)}
        fields.update((key, self.get("signal", key)) for key in self.values["signal"])
        return SignalSpec(**fields)

    def weights(self) -> LqrWeights:
        return LqrWeights(*(self.get("lqr", key, required=True) for key in "qr"))

    def imc(self, default_ts: float) -> Optional[ImcRealization]:
        """The [imc] controller, if any; a resonant one is tuned at the model's sample
        time ``default_ts``."""
        if not self.has("imc"):
            return None
        if self.get("imc", "kind", required=True) == "integrator":
            self.refuse("imc", "omega_n", "by kind = integrator")
            return integrator_imc()
        return resonant_imc(self.get("imc", "omega_n", required=True), default_ts)

    def refuse(self, section: str, key: Optional[str], why: str) -> None:
        """ConfigError if the file has ``[section] key`` (the section, when key is None),
        which the command leaves unread ``why``."""
        if self.has(section, key):
            name, what = (f"[{section}] {key}", "key") if key else (f"[{section}]", "section")
            raise ConfigError(f"{name} is not read {why}; remove the {what}")

    # -- echo ----------------------------------------------------------------

    def echo(self) -> str:
        """Serialize the resolved configuration back to INI text."""
        out: List[str] = []
        for section, items in self.values.items():
            out.append(f"[{section}]")
            out += [f"{key} = {value if isinstance(value, str) else json.dumps(value)}"
                    for key, value in items.items()]
            out.append("")
        return "\n".join(out)

    def set_resolved(self, section: str, key: str, value) -> None:
        """Record a value resolved at run time so the echo reproduces the run."""
        self.values.setdefault(section, {})[key] = value
