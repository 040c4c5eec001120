"""Property tests: the kernel-backed simulators against per-sample loops.

Random systems of every small (n, p, q, T) run through ``simulate`` (from a
start state, with state noise v in both noise modes), the noise-free
regulation and tracking loops of ``evaluate_closed_loop``'s runner and the
internal-model filter, and through the loops in ``oracles``. The open loop
and the filter add the same products in the same order, so they agree
exactly; the closed loops run A - B K as one matrix and agree within RTOL.
The input u = -K x and the output y = C x are products, which cancel when K
or C is nearly orthogonal to a growing mode, so their errors are measured
against the size of their terms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import regulation_run, tracking_run
from oracles import loop_closed_loop, loop_filter_imc_states, loop_simulate, loop_tracking_loop
from ddlqr import ImcRealization, StateSpaceModel, filter_imc_states, simulate
from ddlqr.plant_sim import _lti_run

RTOL = 1e-12


def _rel(got, expect, scale=None) -> float:
    """Max-entry error relative to ``scale``, by default the largest entry of ``expect``."""
    scale = np.abs(expect).max() if scale is None else scale
    return float(np.abs(got - expect).max() / max(scale, 1e-300))


def _loop_errors(model, K, got, expect):
    """Errors of the runner's x, u = -K x and y = C x, each against its scale."""
    top = lambda m: np.abs(m).max()
    n_y = model.n_outputs
    y_scale = top(model.C) * top(expect.x[:, :model.n_states])
    x, u, y = got
    return {
        "x": _rel(x, expect.x),
        "u": _rel(u, expect.u, top(K) * top(expect.x)),
        "y": _rel(y[:, :n_y], expect.y[:, :n_y], y_scale),
    }


@st.composite
def systems(draw):
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    T = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.2, 0.95) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    model = StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)),
                            E=rng.normal(size=(n, 2)))
    nc = draw(st.integers(1, 2))
    imc = ImcRealization(A_c=rng.normal(size=(nc, nc)), B_c=rng.normal(size=nc))
    return model, imc, T, rng


SETTINGS = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(systems(), st.sampled_from(["process", "measurement"]))
def test_open_loop_matches_per_sample_loop(system, noise_mode):
    model, _, T, rng = system
    u, x0 = rng.normal(size=(T, model.n_inputs)), rng.normal(size=model.n_states)
    v = rng.normal(size=(T, 2))
    got = simulate(model, u, x0, v=v, noise_mode=noise_mode)
    expect = loop_simulate(model, u, x0, v=v, noise_mode=noise_mode)
    np.testing.assert_array_equal(got.x, expect.x)
    np.testing.assert_array_equal(got.y, expect.y)


@SETTINGS
@given(systems())
def test_regulation_loop_matches_per_sample_loop(system):
    model, _, T, rng = system
    K = 0.3 * rng.normal(size=(model.n_inputs, model.n_states))
    x0 = rng.normal(size=model.n_states)
    got = regulation_run(model, K, x0, T)
    expect = loop_closed_loop(model, K, x0, T)
    for name, err in _loop_errors(model, K, got, expect).items():
        assert err <= RTOL, name


@SETTINGS
@given(systems())
def test_tracking_loop_matches_per_sample_loop(system):
    model, imc, T, rng = system
    n_a = model.n_states + imc.order * model.n_outputs
    K_a = 0.3 * rng.normal(size=(model.n_inputs, n_a))
    r = rng.normal(size=(T, model.n_outputs))
    got = tracking_run(model, imc, K_a, r)
    expect = loop_tracking_loop(model, imc, K_a, r)
    for name, err in _loop_errors(model, K_a, got, expect).items():
        assert err <= RTOL, name
    np.testing.assert_array_equal(got[2][:, model.n_outputs:], got[0][:, model.n_states:])


@SETTINGS
@given(systems())
def test_imc_filter_matches_per_sample_loop(system):
    model, imc, T, rng = system
    y = rng.normal(size=(T, model.n_outputs))
    np.testing.assert_array_equal(filter_imc_states(y, imc), loop_filter_imc_states(y, imc))


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 40), st.sampled_from([(), (3,), (2, 3)]),
       st.integers(0, 2 ** 32 - 1))
def test_kernel_batch_entries_match_each_run_alone(n, T, batch, seed):
    # the time-major kernel over batch shapes (), (k,) and (k, m), one drive
    # batched and one shared, against each entry alone and the per-sample loop
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    x0, d1 = rng.normal(size=batch + (n,)), rng.normal(size=batch + (T, n))
    d2 = rng.normal(size=(T, n))
    x = _lti_run(A, x0, d1, d2)
    assert x.shape == batch + (T, n)
    for idx in np.ndindex(batch):
        alone = _lti_run(A, x0[idx], d1[idx], d2)
        loop = np.empty((T, n))
        loop[0] = x0[idx]
        for k in range(T - 1):
            loop[k + 1] = A @ loop[k] + d1[idx][k]
            loop[k + 1] += d2[k]
        assert np.array_equal(x[idx], alone)
        assert np.array_equal(alone, loop)


def test_kernel_batches_independent_runs():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    x0, d1, d2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 9, 3)), rng.normal(size=(9, 3))
    x = _lti_run(A, x0, d1, d2)
    assert x.shape == (4, 9, 3)
    for b in range(4):
        np.testing.assert_array_equal(x[b], _lti_run(A, x0[b], d1[b], d2))


def test_kernel_rejects_empty_horizon():
    with pytest.raises(ValueError, match="at least one sample"):
        _lti_run(np.eye(2), np.zeros(2), steps=0)
    with pytest.raises(ValueError, match="at least one sample"):
        _lti_run(np.eye(2), np.zeros(2), np.zeros((0, 2)))
