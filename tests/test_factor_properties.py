"""Property tests: the factor route against the pseudo-inverse oracles.

Random stable systems of every small (n, p, q, depth), noise-free and with
noise on the state measurements, are estimated both ways: from the LQ factor
(the library) and from the full Hankel matrices with pseudo-inverses
(``oracles``). Widths include the range (2p+q)*depth <= width < rows of the
stack, where the factor is wider than it is tall. Below q*depth = n the data
matrices refuse the data, whose past outputs cannot determine the state.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import markov_blocks
from oracles import block_toeplitz_strict_lower, pinv_obs_alg1, pinv_obs_alg2, pinv_predictor
from ddlqr import (
    Dataset,
    InputError,
    StateSpaceModel,
    build_data_matrices,
    estimate_obs_alg1,
    estimate_obs_alg2,
    estimate_predictor,
    simulate,
)
from ddlqr.markov import RANK_TOL, hankel_stack

RTOL = 1e-9


def _refused(data, depth: int, width: int) -> bool:
    """Whether q*depth < n, checking there that the data matrices refuse the data."""
    if data.n_outputs * depth >= data.n_states:
        return False
    with pytest.raises(InputError, match="too few to determine"):
        build_data_matrices(data, depth, width)
    return True


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


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
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
    if _refused(data, depth, width):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # narrow widths are below guidance
        dm = build_data_matrices(data, depth, width)

    est = estimate_predictor(dm)
    _, blocks, input_rank = pinv_predictor(data, dm)
    assert est.input_rank == input_rank == 2 * p * depth
    assert _rel(est.toeplitz, block_toeplitz_strict_lower(blocks, depth)) < RTOL
    assert _rel(np.array(markov_blocks(est)), np.array(blocks)) < RTOL

    stack = hankel_stack(data, depth, width)
    y_past, u_past, x_past = (stack[dm.parts[k]] for k in ("y_past", "u_past", "x_past"))
    o1 = estimate_obs_alg1(dm, est.toeplitz)
    assert _rel(o1.matrix, pinv_obs_alg1(y_past, u_past, est.toeplitz, x_past)) < RTOL
    o2 = estimate_obs_alg2(dm)
    assert _rel(o2.matrix, pinv_obs_alg2(y_past, u_past, x_past)) < RTOL


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_batch_entries_match_unbatched(problem):
    # noise-free entries leave null directions in L_Yp,Yp when q*depth > n,
    # noisy ones do not, so a batch mixes both counts of them
    n, p, q, depth, width, _, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    T = width + 2 * depth - 1
    runs = [simulate(model, rng.normal(size=(T, p)), noise_mode="measurement",
                     v=0.1 * rng.normal(size=(T, n)) if noisy else None)
            for noisy in (False, True, True, False)]
    batch = Dataset(*(np.stack([getattr(r, k) for r in runs]) for k in "uyx"))
    if _refused(batch, depth, width):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # narrow widths are below guidance
        dms = [build_data_matrices(data, depth, width) for data in runs + [batch]]

    est = estimate_predictor(dms[-1])
    o1 = estimate_obs_alg1(dms[-1], est.toeplitz)
    o2 = estimate_obs_alg2(dms[-1])
    for b, dm in enumerate(dms[:-1]):
        alone = estimate_predictor(dm)
        # unbatched, the factor is exactly block Toeplitz and the residual is the plain formula
        assert np.array_equal(alone.toeplitz,
                              block_toeplitz_strict_lower(markov_blocks(alone), depth))
        o = estimate_obs_alg1(dm, alone.toeplitz)
        F, parts = dm.factor, dm.parts
        lhs = F[parts["y_past"]] - alone.toeplitz @ F[parts["u_past"]]
        assert o.residual == float(np.linalg.norm(lhs - o.matrix @ F[parts["x_past"]]))
        for name in ("toeplitz", "input_rank", "regressor_rank", "input_rank_margin"):
            assert np.array_equal(getattr(est, name)[b], getattr(alone, name)), name
        for got, want in ((o1, estimate_obs_alg1(dm, alone.toeplitz)), (o2, estimate_obs_alg2(dm))):
            for name in ("matrix", "residual"):
                assert np.array_equal(getattr(got, name)[b], getattr(want, name)), name


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_input_spectrum_and_remainder_branch(problem):
    # the excitation figures come from triangles of the factor; they must be
    # those of the raw [u_past; u_future] rows. The remainder is factored
    # (one QR per distinct null count) only when L_Yp,Yp has null directions:
    # q*depth - n of them noise-free, (q - n)*depth under state-measurement noise.
    n, p, q, depth, width, noisy, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=np.eye(n))
    T = width + 2 * depth - 1
    u, v = rng.normal(size=(T, p)), 0.1 * rng.normal(size=(T, n))
    runs = [simulate(model, u, v=v if noise else None, noise_mode="measurement")
            for noise in (noisy, not noisy)]
    nulls = [max(0, (q - n) * depth if noise else q * depth - n) for noise in (noisy, not noisy)]
    batch = Dataset(*(np.stack([getattr(r, k) for r in runs]) for k in "uyx"))
    if _refused(batch, depth, width):
        return
    for data, counts in zip((runs[0], batch), (nulls[:1], nulls)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # narrow widths are below guidance
            dm = build_data_matrices(data, depth, width)
        # the stack's QR is build_data_matrices'; the predictor factors the future-input
        # rows once and the remainder once for each nonzero null count
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            est = estimate_predictor(dm)
        assert qr.call_count == 1 + len({k for k in counts if k}), counts
        stack = hankel_stack(data, depth, width)
        inputs = np.concatenate([stack[..., dm.parts[k], :] for k in ("u_past", "u_future")],
                                axis=-2)
        s = np.linalg.svd(inputs, compute_uv=False)
        assert np.array_equal(est.input_rank, np.sum(s >= RANK_TOL * s[..., :1], axis=-1))
        margin = s[..., -1] / (RANK_TOL * s[..., 0])
        assert np.abs(est.input_rank_margin / margin - 1.0).max() < 1e-10
