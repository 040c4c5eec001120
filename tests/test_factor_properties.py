"""Property tests: the factor route against the pseudo-inverse oracles.

Random stable systems of every small (n, p, q, depth), noise-free and with
noise on the state measurements, are estimated both ways: from the LQ factor
(the library) and from the full Hankel matrices with pseudo-inverses
(``oracles``). Widths include the range (2p+q)*depth <= width < rows of the
stack, where the factor is wider than it is tall.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import pinv_obs_alg1, pinv_obs_alg2, pinv_predictor
from ddlqr import (
    StateSpaceModel,
    build_data_matrices,
    estimate_obs_alg1,
    estimate_obs_alg2,
    estimate_predictor,
    simulate,
)

RTOL = 1e-9


def _rel(got, expect) -> float:
    """Max-entry error relative to the largest entry of ``expect``."""
    return float(np.abs(got - expect).max() / max(np.abs(expect).max(), 1e-300))


@st.composite
def problems(draw):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    depth = draw(st.integers(2, 6))
    rows = 2 * (p + q) * depth + n
    min_width = (2 * p + q) * depth
    if draw(st.booleans()):
        width = draw(st.integers(min_width, rows - 1))
    else:
        width = draw(st.integers(rows, rows + 200))
    noisy = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, p, q, depth, width, noisy, seed


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_factor_route_matches_pinv_route(problem):
    n, p, q, depth, width, noisy, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    T = width + 2 * depth - 1
    v = 0.1 * rng.normal(size=(T, n)) if noisy else None
    data = simulate(model, rng.normal(size=(T, p)), v=v, noise_mode="measurement")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # narrow widths are below guidance
        dm = build_data_matrices(data, depth, width)

    est = estimate_predictor(dm)
    raw, blocks, input_rank = pinv_predictor(dm)
    assert est.input_rank == input_rank == 2 * p * depth
    assert _rel(est.raw, raw) < RTOL
    assert _rel(np.array(est.blocks), np.array(blocks)) < RTOL

    o1 = estimate_obs_alg1(dm, est.toeplitz)
    assert _rel(o1.matrix, pinv_obs_alg1(dm.y_past, dm.u_past, est.toeplitz, dm.x_past)) < RTOL
    o2 = estimate_obs_alg2(dm)
    assert _rel(o2.matrix, pinv_obs_alg2(dm.y_past, dm.u_past, dm.x_past)) < RTOL
