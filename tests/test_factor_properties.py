"""Property tests: the factor route against the pseudo-inverse oracles.

Random stable systems of every small (n, p, q, depth), noise-free and with
noise on the state measurements, are estimated both ways: from the LQ factor
(the library) and from the full Hankel matrices with pseudo-inverses
(``oracles``). Widths include the range (2p+q)*depth <= width < rows of the
stack, where the factor is wider than it is tall. Below q*depth = n the data
matrices refuse the data, whose past outputs cannot determine the state.
Batches, also with an internal model, hold each entry to its solo result bit for bit,
through ``estimate`` and ``synthesize`` to the gain.
"""

from dataclasses import replace
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
    LqrWeights,
    StateSpaceModel,
    estimate,
    integrator_imc,
    resonant_imc,
    simulate,
    synthesize,
)
from ddlqr.markov import RANK_TOL, build_data_matrices, estimate_predictor, hankel_stack
from ddlqr.observability import ALGORITHMS, estimate_obs_alg1, estimate_obs_alg2

RTOL = 1e-9


def _refused(data, depth: int, width: int, imc=None) -> bool:
    """Whether q*depth < n, checking there that the data matrices refuse the data; with
    an internal model q and n count its states."""
    z = data.n_outputs * imc.order if imc is not None else 0
    if (data.n_outputs + z) * depth >= data.n_states + z:
        return False
    with pytest.raises(InputError, match="too few to determine"):
        build_data_matrices(data, depth, width, imc=imc)
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
    dm = build_data_matrices(data, depth, width)

    toeplitz, figures = estimate_predictor(dm)
    _, blocks, input_rank = pinv_predictor(data, dm)
    assert figures["input_rank"] == input_rank == 2 * p * depth
    assert _rel(toeplitz, block_toeplitz_strict_lower(blocks, depth)) < RTOL
    assert _rel(np.array(markov_blocks(toeplitz, depth)), np.array(blocks)) < RTOL

    stack = hankel_stack(data, depth, width)
    y_past, u_past, x_past = (stack[dm.parts[k]] for k in ("y_past", "u_past", "x_past"))
    o1, _ = estimate_obs_alg1(dm, toeplitz)
    assert _rel(o1, pinv_obs_alg1(y_past, u_past, toeplitz, x_past)) < RTOL
    o2, _ = estimate_obs_alg2(dm)
    assert _rel(o2, pinv_obs_alg2(y_past, u_past, x_past)) < RTOL


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([None, integrator_imc(), resonant_imc(0.8, 1.0)]))
def test_batch_entries_match_unbatched(problem, imc):
    # noise-free entries leave null directions in L_Yp,Yp when q*depth > n,
    # noisy ones do not, so a batch mixes both counts of them. An internal model
    # widens the data by its q*order*depth regressor rows, and its lifts run the
    # filter batched over columns, alone as in a batch.
    n, p, q, depth, width, _, seed = problem
    width += q * imc.order * depth if imc is not None else 0
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
    if _refused(batch, depth, width, imc):
        return
    dms = [build_data_matrices(data, depth, width, imc=imc) for data in runs + [batch]]

    toeplitz, figures = estimate_predictor(dms[-1])
    alones = [estimate_predictor(dm) for dm in dms[:-1]]
    for b, (dm, (alone, alone_figures)) in enumerate(zip(dms[:-1], alones)):
        # unbatched, the factor is exactly block Toeplitz
        assert np.array_equal(alone,
                              block_toeplitz_strict_lower(markov_blocks(alone, depth), depth))
        assert np.array_equal(toeplitz[b], alone)
        for name in ("input_rank", "regressor_rank", "input_rank_margin"):
            assert np.array_equal(figures[name][b], alone_figures[name]), name
    for stage, s_hat in ((estimate_obs_alg1, toeplitz), (estimate_obs_alg2, None)):
        _check_batch_observability(stage, dms[-1], s_hat, dms[:-1], [a for a, _ in alones])
    weights = LqrWeights(Q=np.eye(q * (1 + (imc.order if imc is not None else 0))), R=np.eye(p))
    for algorithm in ALGORITHMS:
        _check_batch_design(runs, depth, width, algorithm, imc, weights)


def _check_batch_observability(stage, batch, s_hat, dms, alones) -> None:
    """``stage`` on ``batch`` (with the batched Toeplitz factor ``s_hat`` for alg1): the
    entries its errors mark, dropped as Monte Carlo drops them, are those that fail alone
    (noise-free records under an internal model with q > n, whose controller states are
    dependent), and the rest are bit for bit their solo estimates."""
    run = (lambda dm, s: stage(dm)) if s_hat is None else stage
    solo = []
    for dm, alone in zip(dms, alones):
        try:
            solo.append(run(dm, alone))
        except ValueError:
            solo.append(None)
            continue
        if s_hat is not None:  # unbatched, the residual is the plain formula
            y_past, x_past = dm.past_rows()
            lhs = y_past - alone @ dm.factor[dm.parts["u_past"]]
            obs, figures = solo[-1]
            assert figures["obs_residual"] == float(np.linalg.norm(lhs - obs @ x_past))
    marked = np.zeros(len(dms), bool)
    while not marked.all():
        keep = np.flatnonzero(~marked)
        kept = replace(batch, factor=batch.factor.swapaxes(-1, -2)[keep].swapaxes(-1, -2))
        try:
            got = run(kept, None if s_hat is None else s_hat[keep])
        except ValueError as exc:
            marked[keep[exc.failed]] = True
            continue
        for i, b in enumerate(keep):
            assert np.array_equal(got[0][i], solo[b][0])
            assert np.array_equal(got[1]["obs_residual"][i], solo[b][1]["obs_residual"])
        break
    assert [o is None for o in solo] == marked.tolist()


def _check_batch_design(runs, depth: int, width: int, algorithm: str, imc, weights) -> None:
    """``estimate`` and ``synthesize`` at ``depth`` on the stack of the ``runs`` whose solo
    design succeeds: each entry's Toeplitz factor, observability matrix, gain and
    diagnostics are bit for bit its solo result's. The stack of all runs fails when one
    fails alone."""
    solo = []
    for data in runs:
        try:
            est = estimate(data, depth, width, algorithm, imc)
            solo.append((data, est, synthesize(est, weights, depth)))
        except ValueError:
            pass
    if len(solo) < len(runs):
        with pytest.raises(ValueError):
            estimate(Dataset(*(np.stack([getattr(r, k) for r in runs]) for k in "uyx")),
                     depth, width, algorithm, imc)
    if not solo:
        return
    batch = Dataset(*(np.stack([getattr(data, k) for data, _, _ in solo]) for k in "uyx"))
    est = estimate(batch, depth, width, algorithm, imc)
    K, figures = synthesize(est, weights, depth)
    for b, (_, alone, (K_alone, alone_figures)) in enumerate(solo):
        assert np.array_equal(est.toeplitz[b], alone.toeplitz)
        assert np.array_equal(est.observability[b], alone.observability)
        assert np.array_equal(K[b], K_alone)
        for name, value in figures.items():
            assert (value[b] if isinstance(value, list) else value) == \
                alone_figures[name], name


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_input_spectrum_and_remainder_branch(problem):
    # the excitation figures come from triangles of the factor; they must be
    # those of the raw [u_past; u_future] rows. The remainder is factored by one QR
    # for the whole batch, whether or not an entry's L_Yp,Yp has null directions:
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
        dm = build_data_matrices(data, depth, width)
        # the stack's QR is build_data_matrices'; the predictor factors the future-input
        # rows once and the remainder once
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            _, figures = estimate_predictor(dm)
        assert qr.call_count == 2, counts
        stack = hankel_stack(data, depth, width)
        inputs = np.concatenate([stack[..., dm.parts[k], :] for k in ("u_past", "u_future")],
                                axis=-2)
        s = np.linalg.svd(inputs, compute_uv=False)
        assert np.array_equal(figures["input_rank"],
                              np.sum(s >= RANK_TOL * s[..., :1], axis=-1))
        margin = s[..., -1] / (RANK_TOL * s[..., 0])
        assert np.abs(figures["input_rank_margin"] / margin - 1.0).max() < 1e-10
