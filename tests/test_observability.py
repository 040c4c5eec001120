import numpy as np
import pytest

from conftest import prbs_dataset, random_stable_system, scalar_model, two_output_model
from oracles import orthogonal_projector
from ddlqr import (
    Dataset,
    build_data_matrices,
    drop_first_block_row,
    estimate_obs_alg1,
    estimate_obs_alg2,
    estimate_predictor,
    state_snapshot,
    true_observability,
)


def _estimation_inputs(model, depth, length=1022, seed=7):
    ds = prbs_dataset(model, length=length, seed=seed)
    dm = build_data_matrices(ds, depth=depth)
    return dm, estimate_predictor(dm)


class TestStateSnapshot:
    def test_read_off(self):
        ds = Dataset(u=np.zeros((3, 1)), y=np.zeros((3, 1)), x=[[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(state_snapshot(ds, 2), [[1.0, 2.0]])

    def test_shape(self):
        ds = prbs_dataset(two_output_model())
        assert state_snapshot(ds, 870).shape == (2, 870)

    def test_zero(self):
        ds = Dataset(u=np.zeros((5, 1)), y=np.zeros((5, 1)), x=np.zeros((5, 2)))
        assert not state_snapshot(ds, 4).any()

    def test_too_wide(self):
        ds = Dataset(u=np.zeros((5, 1)), y=np.zeros((5, 1)), x=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="width"):
            state_snapshot(ds, 6)


class TestAlg1:
    def test_scalar_noise_free(self):
        dm, est = _estimation_inputs(scalar_model(), depth=3)
        obs = estimate_obs_alg1(dm, est.toeplitz)
        np.testing.assert_allclose(obs.matrix.ravel(), [1.0, 0.14, 0.0196], atol=1e-8)
        np.testing.assert_allclose(obs.shifted.ravel(), [0.14, 0.0196], atol=1e-8)
        assert obs.algorithm == "alg1" and obs.depth == 3
        assert obs.residual < 1e-8

    def test_two_output_noise_free(self):
        model = two_output_model()
        dm, est = _estimation_inputs(model, depth=11)
        obs = estimate_obs_alg1(dm, est.toeplitz)
        truth = true_observability(model, 11)
        np.testing.assert_allclose(obs.matrix, truth, atol=1e-6)
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
            dm, est = _estimation_inputs(model, depth=5)
            o1 = estimate_obs_alg1(dm, est.toeplitz)
            o2 = estimate_obs_alg2(dm)
            np.testing.assert_allclose(o1.matrix, o2.matrix, atol=1e-8)

    def test_matches_explicit_projector_form(self):
        dm, _ = _estimation_inputs(two_output_model(), depth=4, length=400)
        o2 = estimate_obs_alg2(dm)
        P = orthogonal_projector(dm.u_past)
        expect = (dm.y_past @ P) @ np.linalg.pinv(dm.x_past @ P, rcond=1e-12)
        np.testing.assert_allclose(o2.matrix, expect, atol=1e-9)

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
            dm, est = _estimation_inputs(model, depth=10, length=600, seed=900 + trial)
            truth = true_observability(model, 10)
            o1 = estimate_obs_alg1(dm, est.toeplitz)
            o2 = estimate_obs_alg2(dm)
            scale = np.linalg.norm(truth)
            assert np.linalg.norm(o1.matrix - truth) / scale < 1e-6
            assert np.linalg.norm(o2.matrix - truth) / scale < 1e-6


class TestDropFirstBlockRow:
    def test_scalar(self):
        got = drop_first_block_row(np.array([[1.0], [0.14], [0.0196]]), q=1)
        np.testing.assert_array_equal(got, [[0.14], [0.0196]])

    def test_two_rows_per_block(self):
        m = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(drop_first_block_row(m, q=2), m[2:])

    def test_degenerate_depth(self):
        with pytest.raises(ValueError, match="at least 2"):
            drop_first_block_row(np.ones((1, 3)), q=1)
