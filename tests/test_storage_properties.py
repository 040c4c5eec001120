"""CSV round trips of ``storage``: every float64 value comes back bit for bit.

Derandomized hypothesis with bounded example counts. The values include
subnormals, -0.0 and the extreme exponents next to under- and overflow.
Matrices also take +/-inf; datasets reject non-finite entries on
construction. NaN is left out: its sign and payload have no CSV spelling.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddlqr import Dataset
from ddlqr.storage import read_dataset, read_matrix, write_dataset, write_matrix

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         0.1, 1 / 3, 2.0 ** -1074 * 3, 2.0 ** 1023, 9007199254740993.0]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))
SETTINGS = settings(max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def series(rows: int, elements):
    return st.integers(1, 3).flatmap(lambda cols: arrays(np.float64, (rows, cols), elements=elements))


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@SETTINGS
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(lambda shape: arrays(
    np.float64, shape, elements=st.one_of(FINITE, st.sampled_from([np.inf, -np.inf])))))
def test_matrix_round_trip_is_bit_exact(tmp_path, matrix):
    write_matrix(tmp_path / "m.csv", matrix)
    assert same_bits(read_matrix(tmp_path / "m.csv"), matrix)


@SETTINGS
@given(st.integers(1, 12).flatmap(lambda T: st.tuples(*(series(T, FINITE) for _ in "uyx"))))
def test_dataset_round_trip_is_bit_exact(tmp_path, uyx):
    data = Dataset(*uyx)
    write_dataset(tmp_path / "d.csv", data)
    back = read_dataset(tmp_path / "d.csv")
    for name in "uyx":
        assert same_bits(getattr(back, name), getattr(data, name)), name
