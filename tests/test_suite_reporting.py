"""The suite's pytest settings report a failing property test as a failure.

An inner session reads its ``filterwarnings`` from the repository's ``pyproject.toml``.
A failing Hypothesis test makes the plugin print a patch, which imports third-party
modules that warn on import; under an error filter that warning would stop the session
with INTERNALERROR and hide which test failed.
"""

import tomllib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

INNER = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_property_is_reported_and_the_session_runs_on(pytester):
    with PYPROJECT.open("rb") as f:
        filters = tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {w}\n" for w in filters))
    pytester.makepyfile(test_inner=INNER)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.stdout.fnmatch_lines(["FAILED test_inner.py::test_fails*"])
    result.assert_outcomes(failed=1, passed=1)
