import warnings

import numpy as np
import pytest

from conftest import prbs_dataset, random_stable_system, scalar_model, two_output_model
from oracles import orthogonal_projector
from ddlqr import (
    Dataset,
    InputError,
    LqrWeights,
    SignalSpec,
    StateSpaceModel,
    estimate,
    generate_signal,
    monte_carlo_obs,
    simulate,
    synthesize,
)
from ddlqr.markov import build_data_matrices, estimate_predictor, hankel_stack
from ddlqr.observability import (ALGORITHMS, _fit_states, estimate_obs_alg1, estimate_obs_alg2,
                                 true_observability)


def rows(ds, dm, name):
    """The rows of the Hankel stack of ``ds`` that ``dm`` factors and ``parts`` names."""
    return hankel_stack(ds, dm.depth, dm.width)[..., dm.parts[name], :]


def _estimation_inputs(model, depth, length=1022, seed=7):
    ds = prbs_dataset(model, length=length, seed=seed)
    dm = build_data_matrices(ds, depth=depth)
    return dm, estimate_predictor(dm)[0]


class TestStateSnapshot:
    """The state snapshot is the ``x_past`` rows of the data matrices."""

    def test_read_off(self):
        ds = Dataset(u=np.zeros((4, 1)), y=np.zeros((4, 1)), x=[[1.0], [2.0], [3.0], [4.0]])
        dm = build_data_matrices(ds, depth=1, width=3)
        np.testing.assert_array_equal(rows(ds, dm, "x_past"), [[1.0, 2.0, 3.0]])

    def test_shape(self):
        ds = prbs_dataset(two_output_model())
        assert rows(ds, build_data_matrices(ds, depth=51, width=870), "x_past").shape == (2, 870)

    def test_zero(self):
        ds = Dataset(u=np.zeros((5, 1)), y=np.zeros((5, 1)), x=np.zeros((5, 1)))
        assert not rows(ds, build_data_matrices(ds, depth=1, width=4), "x_past").any()
        # one past output cannot determine two states
        ds = Dataset(u=np.zeros((5, 1)), y=np.zeros((5, 1)), x=np.zeros((5, 2)))
        with pytest.raises(InputError, match="too few to determine the 2 states"):
            build_data_matrices(ds, depth=1, width=4)

    def test_too_wide(self):
        ds = Dataset(u=np.zeros((5, 1)), y=np.zeros((5, 1)), x=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="width"):
            build_data_matrices(ds, depth=1, width=6)


class TestAlg1:
    def test_scalar_noise_free(self):
        dm, s_hat = _estimation_inputs(scalar_model(), depth=3)
        obs, figures = estimate_obs_alg1(dm, s_hat)
        np.testing.assert_allclose(obs.ravel(), [1.0, 0.14, 0.0196], atol=1e-8)
        np.testing.assert_allclose(obs[1:].ravel(), [0.14, 0.0196], atol=1e-8)
        assert obs.shape == (3, 1)
        assert figures["obs_residual"] < 1e-8

    def test_two_output_noise_free(self):
        model = two_output_model()
        dm, s_hat = _estimation_inputs(model, depth=11)
        obs, _ = estimate_obs_alg1(dm, s_hat)
        truth = true_observability(model, 11)
        np.testing.assert_allclose(obs, truth, atol=1e-6)
        np.testing.assert_allclose(truth[2:4], [[0.6, 1.35], [-0.2, 0.6]], atol=1e-15)

    def test_rank_deficient_states(self):
        # states pinned to zero cannot support the regression
        T = 60
        u = np.random.default_rng(0).normal(size=(T, 1))
        ds = Dataset(u=u, y=u, x=np.zeros((T, 1)))
        dm = build_data_matrices(ds, depth=2, width=20)
        s_hat = np.zeros((2, 2))
        with pytest.raises(ValueError, match="states not sufficiently excited"):
            estimate_obs_alg1(dm, s_hat)


class TestProjector:
    def test_single_row(self):
        np.testing.assert_allclose(
            orthogonal_projector(np.array([[1.0, 0.0]])), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_annihilation_idempotence_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            U = rng.normal(size=(4, 30))
            P = orthogonal_projector(U)
            assert np.abs(U @ P).max() < 1e-12
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
            np.testing.assert_allclose(P, P.T, atol=1e-12)

    def test_rank_deficient_fallback(self):
        U = np.vstack([np.ones((1, 10)), np.ones((1, 10))])  # duplicated row
        with pytest.warns(UserWarning, match="pseudo-inverse"):
            P = orthogonal_projector(U)
        assert np.abs(U @ P).max() < 1e-10


class TestAlg2:
    def test_matches_alg1_noise_free(self):
        for model in (scalar_model(), two_output_model()):
            dm, s_hat = _estimation_inputs(model, depth=5)
            o1, _ = estimate_obs_alg1(dm, s_hat)
            o2, _ = estimate_obs_alg2(dm)
            np.testing.assert_allclose(o1, o2, atol=1e-8)

    def test_matches_explicit_projector_form(self):
        ds = prbs_dataset(two_output_model(), length=400, seed=7)
        dm, _ = _estimation_inputs(two_output_model(), depth=4, length=400)
        o2, _ = estimate_obs_alg2(dm)
        P = orthogonal_projector(rows(ds, dm, "u_past"))
        expect = (rows(ds, dm, "y_past") @ P) @ np.linalg.pinv(rows(ds, dm, "x_past") @ P,
                                                               rcond=1e-12)
        np.testing.assert_allclose(o2, expect, atol=1e-9)

    def test_rank_deficient_past_inputs(self):
        # a constant input leaves one independent past-input row, so the
        # projection cannot be read off the factor's columns
        T = 60
        ds = Dataset(u=np.ones((T, 1)), y=np.random.default_rng(1).normal(size=(T, 1)),
                     x=np.random.default_rng(2).normal(size=(T, 1)))
        dm = build_data_matrices(ds, depth=2, width=20)
        with pytest.raises(ValueError, match="insufficient excitation: past-input"):
            estimate_obs_alg2(dm)

    def test_random_systems_truth(self):
        rng = np.random.default_rng(21)
        for trial in range(6):
            model = random_stable_system(rng)
            dm, s_hat = _estimation_inputs(model, depth=10, length=600, seed=900 + trial)
            truth = true_observability(model, 10)
            o1, _ = estimate_obs_alg1(dm, s_hat)
            o2, _ = estimate_obs_alg2(dm)
            scale = np.linalg.norm(truth)
            assert np.linalg.norm(o1 - truth) / scale < 1e-6
            assert np.linalg.norm(o2 - truth) / scale < 1e-6


class TestResidual:
    """The fit residual is a norm of the data's scale, computed without
    overflow or underflow: dnrm2's scaling, by a power of two."""

    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e150, 1e200])
    def test_scales_with_the_data(self, c):
        # noisy states, so the residual is a misfit well above rounding
        model = two_output_model()
        model = StateSpaceModel(A=model.A, B=model.B, C=model.C, E=np.eye(2))
        u = generate_signal(SignalSpec(kind="prbs", length=400, amplitude=1.0, channels=2))
        v = 0.1 * np.random.default_rng(8).normal(size=(400, 2))
        data = simulate(model, u, v=v, noise_mode="measurement")
        scaled = Dataset(u=c * data.u, y=c * data.y, x=c * data.x)
        for algorithm in ALGORITHMS:
            base = estimate(data, 8, algorithm=algorithm).diagnostics["obs_residual"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = estimate(scaled, 8, algorithm=algorithm).diagnostics["obs_residual"]
            assert 0.0 < got == pytest.approx(c * base, rel=1e-12), algorithm

    def test_exact_fit_is_zero(self):
        x = np.random.default_rng(9).normal(size=(2, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, figures = _fit_states(np.zeros((3, 30)), x, "states")
        assert figures["obs_residual"] == 0.0 and not fit.any()


class TestDropFirstBlockRow:
    """The shifted observability matrix [CA; ...; CA^(depth-1)] is the estimate's
    matrix less its first block row of q outputs; its consumers slice it."""

    def mc(self, model, depth):
        spec = SignalSpec(kind="prbs", length=400, amplitude=1.0, channels=model.n_inputs)
        return monte_carlo_obs(model, spec, depth, runs=2, noise_variance=0.0)

    def test_scalar(self):
        model = StateSpaceModel(A=[[0.14]], B=[[1.72]], C=[[1.0]], E=[[1.0]])
        for rep in self.mc(model, depth=3):
            np.testing.assert_array_equal(rep.truth, true_observability(model, 3)[1:])
            np.testing.assert_allclose(rep.truth.ravel(), [0.14, 0.0196], rtol=1e-15)
            np.testing.assert_allclose(rep.mean, rep.truth, atol=1e-8)

    def test_two_rows_per_block(self):
        model = two_output_model()
        model = StateSpaceModel(A=model.A, B=model.B, C=model.C, E=np.eye(2))
        for rep in self.mc(model, depth=4):
            assert rep.mean.shape == rep.truth.shape == (6, 2)
            np.testing.assert_array_equal(rep.truth, true_observability(model, 4)[2:])
            np.testing.assert_allclose(rep.mean, rep.truth, atol=1e-8)

    def test_degenerate_depth(self):
        # one block row leaves nothing to shift: both consumers refuse it upstream
        model = StateSpaceModel(A=[[0.14]], B=[[1.72]], C=[[1.0]], E=[[1.0]])
        with pytest.raises(ValueError, match="depth must be >= 2"):
            self.mc(model, depth=1)
        est = estimate(prbs_dataset(model, length=100), 2)
        with pytest.raises(ValueError, match="horizon must be >= 2"):
            synthesize(est, LqrWeights(Q=[[1.0]], R=[[1.0]]), 1)
