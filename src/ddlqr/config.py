"""Run-configuration files.

INI sections with JSON-parsed values: scalars are plain numbers or strings,
matrices are bracketed row lists like ``[[1, 0.15], [-0.2, 0.6]]``. The same
representation is written back as the resolved-config echo, so a run can be
reproduced from its own echo.
"""

from __future__ import annotations

import configparser
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .imc import ImcRealization, integrator_imc, resonant_imc
from .lqr import LqrWeights
from .plant_sim import SignalSpec, StateSpaceModel, zoh_discretize


# Keys of removed options: a config that still sets one is refused rather than run without it.
REMOVED_KEYS = {("estimation", "structure"): "the Markov blocks are always sub-diagonal averages",
                ("model", "f"): "the simulators have no output-noise channel, y = C x"}


class ConfigError(Exception):
    """Invalid or missing configuration input (CLI exit code 2)."""


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.strip()


def _as_matrix(section: str, key: str, value) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.array([[float(value)]])
    if not isinstance(value, list):
        raise ConfigError(f"[{section}] {key}: expected a number or bracketed row list")
    rows = value if value and isinstance(value[0], list) else [value]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(
            f"[{section}] {key}: ragged matrix, row lengths {sorted(len(r) for r in rows)} "
            f"do not match"
        )
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: non-numeric matrix entry ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"[{section}] {key}: matrix entries must be finite")
    return arr


class RunConfig:
    """Typed view over a parsed INI configuration."""

    def __init__(self, values: Dict[str, Dict[str, Any]]):
        self.values = values

    @classmethod
    def load(cls, path: Union[str, Path], overrides: Optional[List[str]] = None) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override {item!r} must look like section.key=value")
            target, raw = item.split("=", 1)
            section, key = target.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section.strip(), key.strip(), raw.strip())
        values: Dict[str, Dict[str, Any]] = {}
        for section in parser.sections():
            values[section] = {
                key: _parse_value(raw) for key, raw in parser.items(section)
            }
        for (section, key), why in REMOVED_KEYS.items():
            if key in values.get(section, {}):
                raise ConfigError(f"[{section}] {key} is no longer supported: {why}; remove the key")
        return cls(values)

    # -- low-level accessors ------------------------------------------------

    def has(self, section: str, key: Optional[str] = None) -> bool:
        if key is None:
            return section in self.values
        return section in self.values and key in self.values[section]

    def get(self, section: str, key: str, default=None, required: bool = False):
        if not self.has(section, key):
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return self.values[section][key]

    def get_int(self, section: str, key: str, default=None, required: bool = False) -> Optional[int]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"[{section}] {key}: expected an integer, got {value!r}")
        return int(value)

    def get_float(self, section: str, key: str, default=None, required: bool = False) -> Optional[float]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"[{section}] {key}: expected a number, got {value!r}")
        return float(value)

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        value = self.get(section, key, default)
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"[{section}] {key}: expected true/false, got {value!r}")

    def get_str(self, section: str, key: str, default=None, required: bool = False) -> Optional[str]:
        value = self.get(section, key, default, required)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"[{section}] {key}: expected a string, got {value!r}")
        return value

    def get_matrix(self, section: str, key: str, required: bool = False) -> Optional[np.ndarray]:
        value = self.get(section, key, required=required)
        if value is None:
            return None
        return _as_matrix(section, key, value)

    # -- domain objects -----------------------------------------------------

    def model(self) -> StateSpaceModel:
        if not self.has("model"):
            raise ConfigError("missing [model] section")
        A = self.get_matrix("model", "a", required=True)
        B = self.get_matrix("model", "b", required=True)
        C = self.get_matrix("model", "c", required=True)
        ts = self.get_float("model", "ts")
        try:
            if self.get_bool("model", "continuous", False):
                if ts is None:
                    raise ConfigError("[model] ts is required for a continuous-time model")
                model = zoh_discretize(A, B, C, ts)
            else:
                model = StateSpaceModel(A=A, B=B, C=C, sample_time=ts)
            E = self.get_matrix("model", "e")
            if E is not None:
                model = StateSpaceModel(A=model.A, B=model.B, C=model.C, E=E,
                                        sample_time=model.sample_time)
        except ValueError as exc:
            raise ConfigError(f"[model]: {exc}") from exc
        return model

    def signal(self, default_channels: int = 1, default_ts: float = 1.0,
               section: str = "signal") -> SignalSpec:
        if not self.has(section):
            raise ConfigError(f"missing [{section}] section")
        try:
            return SignalSpec(
                kind=self.get_str(section, "kind", required=True),
                length=self.get_int(section, "length", required=True),
                amplitude=self.get_float(section, "amplitude", 1.0),
                variance=self.get_float(section, "variance", 0.0),
                frequency=self.get_float(section, "frequency", 0.0),
                seed=self.get_int(section, "seed", 0),
                register_order=self.get_int(section, "register_order", 10),
                channels=self.get_int(section, "channels", default_channels),
                sample_time=self.get_float(section, "ts", default_ts),
                hold=self.get_int(section, "hold", 1),
            )
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc

    def weights(self) -> LqrWeights:
        Q = self.get_matrix("lqr", "q", required=True)
        R = self.get_matrix("lqr", "r", required=True)
        try:
            return LqrWeights(Q=Q, R=R)
        except ValueError as exc:
            raise ConfigError(f"[lqr]: {exc}") from exc

    def imc(self, default_ts: Optional[float] = None) -> Optional[ImcRealization]:
        if not self.has("imc"):
            return None
        kind = self.get_str("imc", "kind", required=True)
        if kind == "integrator":
            return integrator_imc()
        if kind == "resonant":
            omega = self.get_float("imc", "omega_n", required=True)
            ts = self.get_float("imc", "ts", default_ts)
            if ts is None:
                raise ConfigError("[imc] ts is required (or set [model] ts)")
            try:
                return resonant_imc(omega, ts)
            except ValueError as exc:
                raise ConfigError(f"[imc]: {exc}") from exc
        raise ConfigError(f"[imc] kind must be 'integrator' or 'resonant', got {kind!r}")

    # -- echo ----------------------------------------------------------------

    def echo(self) -> str:
        """Serialize the resolved configuration back to INI text."""
        parser = configparser.ConfigParser()
        for section, items in self.values.items():
            parser.add_section(section)
            for key, value in items.items():
                if isinstance(value, str):
                    parser.set(section, key, value)
                elif isinstance(value, bool):
                    parser.set(section, key, "true" if value else "false")
                elif isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
                    raise ConfigError(f"[{section}] {key}: cannot echo non-finite value")
                else:
                    parser.set(section, key, json.dumps(value))
        out: List[str] = []
        for section in parser.sections():
            out.append(f"[{section}]")
            for key, value in parser.items(section):
                out.append(f"{key} = {value}")
            out.append("")
        return "\n".join(out)

    def set_resolved(self, section: str, key: str, value) -> None:
        """Record a value resolved at run time so the echo reproduces the run."""
        self.values.setdefault(section, {})[key] = value
