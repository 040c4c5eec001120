"""The config key schema: one test per key kind, unknown and misspelled keys,
and a derandomized fuzz of ``--set`` overrides on the bundled configs.

Every key that some command reads is in ``config.KEYS``. A key outside it, a
removed key, a value of the wrong kind, a non-finite number and a value out
of its bound all exit 2 from ``RunConfig.load``, before any output exists.
"""

import contextlib
import io
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ddlqr.cli import main
from ddlqr.config import KEYS, ConfigError, RunConfig
from ddlqr.plant_sim import SIGNAL_KINDS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# each bundled config with a command that reads it
BUNDLED = [("design", "regulation_demo.ini"), ("sweep", "regulation_demo.ini"),
           ("montecarlo", "noisy_estimation_mc.ini"), ("eval", "ups_tracking_demo.ini")]
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "9" * 5000]
# values of the wrong kind (and, for numbers, non-finite ones) for each kind
BAD = {
    "int": ["1.5", "abc", "true", "[1]", "[[1]]", *NON_FINITE],
    "float": ["abc", "true", "[1.0]", "{}", *NON_FINITE],
    "bool": ["1", "yes", "[true]", "NaN"],
    "str": ["1", "2.5", "true", "[1]", "NaN"],
    "matrix": ["abc", "true", "[[1, 2], [3]]", "[[1], [2, 3], [4]]", "[[1], 2]", "[[1, true]]",
               "[[1, \"a\"]]", "[[1, NaN]]", "[1e400]", "NaN", "Infinity"],
    "ints": ["[]", "10", "[10, 2.5]", "[10, true]", "[10, \"x\"]", "[1e400]", "[NaN]",
             "[[10]]"],
}
# values just outside each bound
OUT_OF_BOUND = {">= 0": ["-1", "-1e-300"], ">= 1": ["0", "-3"], ">= 2": ["1", "0", "-2"],
                "> 0": ["0", "-0.0", "-1e-300"]}
LIVE = [(section, key) for section, keys in KEYS.items()
        for key, spec in keys.items() if not spec.removed]


def load(tmp_path, *overrides, text="[model]\na = 0.5\n"):
    path = tmp_path / "c.ini"
    path.write_text(text)
    return RunConfig.load(path, list(overrides))


def bad_values(spec):
    values = list(BAD[spec.kind])
    if spec.bound:
        values += [f"[{v}]" for v in OUT_OF_BOUND[spec.bound]] if spec.kind == "ints" \
            else OUT_OF_BOUND[spec.bound]
    if spec.choices:
        values.append("bogus")
    return values


def run_quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


class TestKinds:
    def test_int(self, tmp_path):
        cfg = load(tmp_path, "lqr.horizon=12", "signal.length=1e3")
        assert cfg.get("lqr", "horizon") == 12 and type(cfg.get("lqr", "horizon")) is int
        assert cfg.get("signal", "length") == 1000 and type(cfg.get("signal", "length")) is int
        assert cfg.get("lqr", "horizon") == 12
        for raw in ("12.5", "twelve", "true", "NaN", "Infinity", "1e400"):
            with pytest.raises(ConfigError, match=r"\[lqr\] horizon must be an integer, got "):
                load(tmp_path, f"lqr.horizon={raw}")

    def test_float(self, tmp_path):
        cfg = load(tmp_path, "signal.amplitude=2", "imc.omega_n=3.5")
        amplitude = cfg.get("signal", "amplitude")
        assert amplitude == 2.0 and type(amplitude) is float
        assert cfg.get("imc", "omega_n") == 3.5
        for raw in ("big", "false", "[1.0]", "NaN", "-Infinity", "1e400"):
            with pytest.raises(ConfigError,
                               match=r"\[signal\] amplitude must be a finite number, got "):
                load(tmp_path, f"signal.amplitude={raw}")

    def test_bool(self, tmp_path):
        assert load(tmp_path, "model.continuous=true").get("model", "continuous") is True
        assert load(tmp_path, "model.continuous=False").get("model", "continuous") is False
        for raw in ("1", "yes", "[true]"):
            with pytest.raises(ConfigError,
                               match=r"\[model\] continuous must be true or false, got "):
                load(tmp_path, f"model.continuous={raw}")

    def test_str(self, tmp_path):
        cfg = load(tmp_path, "io.gain=out/gain.csv", "noise.mode=measurement")
        assert cfg.get("io", "gain") == "out/gain.csv"
        assert cfg.get("noise", "mode") == "measurement"
        for raw in ("3", "true", "[1]"):
            with pytest.raises(ConfigError, match=r"\[io\] gain must be a string, got "):
                load(tmp_path, f"io.gain={raw}")
        with pytest.raises(ConfigError, match=r"\[noise\] mode must be one of "
                                              r"\('process', 'measurement'\), got 'proces'"):
            load(tmp_path, "noise.mode=proces")
        with pytest.raises(ConfigError, match=r"\[imc\] kind must be one of"):
            load(tmp_path, "imc.kind=3")
        with pytest.raises(ConfigError, match=r"\[reference\] kind must be one of "
                                              r"\('constant', 'sinusoid'\), got 'prbs'"):
            load(tmp_path, "reference.kind=prbs")
        with pytest.raises(ConfigError, match=r"\[signal\] kind must be one of "
                                              r"\('prbs', 'white-noise'\), got 'sinusoid'"):
            load(tmp_path, "signal.kind=sinusoid")
        with pytest.raises(ConfigError, match=r"\[estimation\] algorithm must be one of "
                                              r"\('alg1', 'alg2'\), got 'alg3'"):
            load(tmp_path, "estimation.algorithm=alg3")

    def test_matrix(self, tmp_path):
        cfg = load(tmp_path, "lqr.q=[[2, 0], [0, 3]]", "lqr.r=4", "eval.x0=[1, -1]")
        np.testing.assert_array_equal(cfg.get("lqr", "q"), [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(cfg.get("lqr", "r"), [[4.0]])
        np.testing.assert_array_equal(cfg.get("eval", "x0"), [[1.0, -1.0]])
        for raw, message in (("[[1, 2], [3]]", r"has ragged rows of lengths \[1, 2\]"),
                             ("[[1], 2]", "must be a number or a bracketed row list"),
                             ("[[1, NaN]]", "entries must be finite"),
                             ("[[\"a\"]]", "has a non-numeric entry"),
                             ("yes", "must be a number or a bracketed row list")):
            with pytest.raises(ConfigError, match=rf"\[lqr\] q {message}"):
                load(tmp_path, f"lqr.q={raw}")

    def test_ints(self, tmp_path):
        assert load(tmp_path, "sweep.horizons=[2, 10]").get("sweep", "horizons") == [2, 10]
        for raw in ("[]", "10", "[1, 10]", "[10, 2.5]", "[10, true]", "[NaN]"):
            with pytest.raises(ConfigError, match=r"\[sweep\] horizons must be a non-empty "
                                                  r"list of integers >= 2"):
                load(tmp_path, f"sweep.horizons={raw}")

    @pytest.mark.parametrize("override, message", [
        ("montecarlo.runs=1", "[montecarlo] runs must be >= 2, got 1"),
        ("estimation.width=0", "[estimation] width must be >= 1, got 0"),
        ("estimation.depth=1", "[estimation] depth must be >= 2, got 1"),
        ("model.ts=0", "[model] ts must be > 0, got 0.0"),
        ("noise.seed=-1", "[noise] seed must be >= 0, got -1"),
        ("lqr.horizon=1", "[lqr] horizon must be >= 2, got 1"),
    ])
    def test_bounds(self, tmp_path, override, message):
        with pytest.raises(ConfigError) as info:
            load(tmp_path, override)
        assert str(info.value) == message

    def test_every_key_has_a_kind_with_bad_values(self):
        for section, key in LIVE:
            assert bad_values(KEYS[section][key]), (section, key)
        # an excitation is a PRBS or white noise, and a reference a step or a sinusoid on
        # every output: each section refuses by name the keys that shape only the other
        signal, reference = KEYS["signal"], KEYS["reference"]
        assert signal.keys() == reference.keys()
        assert signal["kind"].choices == SIGNAL_KINDS
        assert signal["frequency"].removed and not reference["frequency"].removed
        live = {k for k, spec in reference.items() if not spec.removed}
        assert live == {"kind", "amplitude", "frequency"}
        assert not set(reference["kind"].choices) & set(SIGNAL_KINDS)


class TestUnknownKeys:
    @pytest.mark.parametrize("override, key, near", [
        ("estimation.algoritm=alg2", "[estimation] algoritm", "[estimation] algorithm"),
        ("lqr.horizn=10", "[lqr] horizn", "[lqr] horizon"),
        ("signl.seed=3", "[signl] seed", "[signal] seed"),
    ])
    def test_misspelled_override_names_the_nearest_key(self, tmp_path, override, key, near):
        code, err = run_quiet(["design", str(CONFIGS / "regulation_demo.ini"),
                               "--output-dir", str(tmp_path / "out"), "--set", override])
        assert code == 2
        assert f"config error: unknown key {key}; the nearest known key is {near}" in err
        assert not (tmp_path / "out").exists()

    def test_misspelled_key_in_file(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown key \[model\] contnuous; "
                                              r"the nearest known key is \[model\] continuous"):
            load(tmp_path, text="[model]\na = 0.5\ncontnuous = true\n")

    def test_removed_key_is_not_suggested(self, tmp_path):
        with pytest.raises(ConfigError, match=r"nearest known key is \[estimation\] "):
            load(tmp_path, "estimation.structur=first-column")
        with pytest.raises(ConfigError, match="no longer supported"):
            load(tmp_path, "estimation.structure=first-column")

    def test_malformed_file_exits_2(self, tmp_path):
        for text in ("[model]\na = 0.5\na = 0.6\n", "a = 0.5\n", "[model]\na = 0.5\n[model]\n"):
            path = tmp_path / "bad.ini"
            path.write_text(text)
            code, err = run_quiet(["design", str(path), "--output-dir", str(tmp_path / "out")])
            assert code == 2 and err.startswith("config error:"), text
            assert not (tmp_path / "out").exists()

    def test_percent_sign_is_literal_and_echoed(self, tmp_path):
        cfg = load(tmp_path, "io.gain=50%.csv")
        assert cfg.get("io", "gain") == "50%.csv"
        assert "gain = 50%.csv" in cfg.echo()


def near_miss(name: str, edit: int, position: int, letter: str) -> str:
    """``name`` with one letter deleted, inserted, replaced or two swapped."""
    i = position % (len(name) + 1)
    if edit == 0:
        return name[:i] + name[i + 1:]
    if edit == 1:
        return name[:i] + letter + name[i:]
    if edit == 2:
        return name[:i] + letter + name[i + 1:]
    return name[:i] + name[i + 1:i + 2] + name[i:i + 1] + name[i + 2:]


@st.composite
def bad_overrides(draw):
    """One ``--set`` override that the schema must refuse."""
    section, key = draw(st.sampled_from(LIVE))
    if draw(st.booleans()):
        edit, position = draw(st.integers(0, 3)), draw(st.integers(0, 40))
        letter = draw(st.sampled_from(string.ascii_lowercase + "_"))
        if draw(st.booleans()):
            section = near_miss(section, edit, position, letter)
        else:
            key = near_miss(key, edit, position, letter)
        assume(section and key and key not in KEYS.get(section, {}))
        return f"{section}.{key}={draw(st.sampled_from(['1', 'x', '[[1]]']))}"
    return f"{section}.{key}={draw(st.sampled_from(bad_values(KEYS[section][key])))}"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(BUNDLED), bad_overrides())
def test_fuzzed_overrides_exit_2_before_any_output(tmp_path, bundled, override):
    command, config = bundled
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    code, err = run_quiet([command, str(CONFIGS / config), "--output-dir", str(out),
                           "--set", override])
    assert code == 2, (override, err)
    assert err.startswith("config error:") and "Traceback" not in err, (override, err)
    assert not out.exists(), override


def test_every_bad_value_of_every_key_exits_2(tmp_path):
    config = str(CONFIGS / "regulation_demo.ini")
    for section, key in LIVE:
        for raw in bad_values(KEYS[section][key]):
            code, err = run_quiet(["design", config, "--output-dir", str(tmp_path / "out"),
                                   "--set", f"{section}.{key}={raw}"])
            # one format: the key, a space, then what is wrong with its value
            assert code == 2, (key, raw, err)
            assert err.startswith(f"config error: [{section}] {key} "), (key, raw, err)
    assert not (tmp_path / "out").exists()
