import numpy as np
import pytest

from conftest import prbs_dataset, random_stable_system, scalar_model, two_output_model
from ddlqr import (
    Dataset,
    StateSpaceModel,
    build_data_matrices,
    estimate_predictor,
    true_markov,
)


class TestBuildDataMatrices:
    def test_depth_one_read_off(self):
        ds = Dataset(u=[[1.0], [2.0], [3.0]], y=[[4.0], [5.0], [6.0]], x=[[0.0], [0.0], [0.0]])
        with pytest.warns(UserWarning, match="guidance"):
            dm = build_data_matrices(ds, depth=1, width=2)
        np.testing.assert_array_equal(dm.u_past, [[1, 2]])
        np.testing.assert_array_equal(dm.y_past, [[4, 5]])
        np.testing.assert_array_equal(dm.u_future, [[2, 3]])
        np.testing.assert_array_equal(dm.y_future, [[5, 6]])
        assert dm.regressor.shape == (3, 2)
        np.testing.assert_array_equal(dm.x_past, [[0, 0]])

    def test_regressor_shape(self):
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=51, width=870)
        assert dm.regressor.shape == (306, 870)
        assert dm.y_future.shape == (102, 870)

    def test_zero_dataset_gives_zero_matrices(self):
        ds = Dataset(u=np.zeros((40, 1)), y=np.zeros((40, 1)), x=np.zeros((40, 1)))
        dm = build_data_matrices(ds, depth=2, width=10)
        assert not dm.regressor.any() and not dm.y_future.any()

    def test_insufficient_length(self):
        ds = Dataset(u=np.zeros((10, 1)), y=np.zeros((10, 1)), x=np.zeros((10, 1)))
        with pytest.raises(ValueError, match="T >= 2\\*depth \\+ width - 1"):
            build_data_matrices(ds, depth=4, width=12)

    def test_width_below_regressor_rows(self):
        ds = prbs_dataset(scalar_model(), length=200)
        with pytest.raises(ValueError, match="below the regressor row count"):
            with pytest.warns(UserWarning):
                estimate_predictor(build_data_matrices(ds, depth=10, width=20))

    def test_width_guidance_warning(self):
        ds = prbs_dataset(scalar_model(), length=200)
        with pytest.warns(UserWarning, match="guidance"):
            build_data_matrices(ds, depth=10, width=29)


class TestEstimatePredictor:
    def test_scalar_markov_parameters(self):
        ds = prbs_dataset(scalar_model(), length=1022)
        est = estimate_predictor(build_data_matrices(ds, depth=3))
        assert est.blocks[0][0, 0] == pytest.approx(1.72, abs=1e-8)
        assert est.blocks[1][0, 0] == pytest.approx(0.2408, abs=1e-8)

    def test_two_output_markov_parameters(self):
        ds = prbs_dataset(two_output_model())
        est = estimate_predictor(build_data_matrices(ds, depth=11))
        np.testing.assert_allclose(est.blocks[0], [[0.08, -0.01], [0.02, -0.01]], atol=1e-8)

    def test_finite_impulse_response_truncates(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=[[1.0], [0.5]], C=[[1.0, 1.0]])
        ds = prbs_dataset(model, length=400)
        est = estimate_predictor(build_data_matrices(ds, depth=5))
        np.testing.assert_allclose(est.blocks[0], model.C @ model.B, atol=1e-10)
        for blk in est.blocks[1:]:
            np.testing.assert_allclose(blk, 0.0, atol=1e-10)

    def test_insufficient_excitation(self):
        model = scalar_model()
        u = np.ones((200, 1))  # constant input is not persistently exciting
        ds = Dataset(u=u, y=np.cumsum(u)[:, None] * 0.1, x=np.cumsum(u)[:, None] * 0.1)
        dm = build_data_matrices(ds, depth=5, width=100)
        with pytest.raises(ValueError, match="insufficient excitation"):
            estimate_predictor(dm)

    def test_future_inputs_in_span_of_past_outputs(self):
        # y_t = u_{t+d}: the past outputs repeat the future inputs, so the stacked
        # inputs are exciting but the Toeplitz factor is not identifiable
        d, T = 4, 120
        u = np.random.default_rng(3).normal(size=(T + d, 1))
        ds = Dataset(u=u[:T], y=u[d:], x=np.random.default_rng(4).normal(size=(T, 1)))
        dm = build_data_matrices(ds, depth=d)
        with pytest.raises(ValueError, match="insufficient excitation: future inputs"):
            estimate_predictor(dm)

    def test_input_rank_margin(self):
        dm = build_data_matrices(prbs_dataset(two_output_model()), depth=6)
        est = estimate_predictor(dm)
        s = np.linalg.svd(np.vstack([dm.u_past, dm.u_future]), compute_uv=False)
        assert est.input_rank == 24 and est.input_rank_margin > 1.0
        assert est.input_rank_margin == pytest.approx(s[-1] / (1e-8 * s[0]), rel=1e-9)

    def test_shift_structure_of_raw_solution(self):
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=8)
        est = estimate_predictor(dm)
        q, p, d = 2, 2, 8
        raw = est.raw
        assert raw.shape == (q * d, p * d)
        for i in range(d - 1):
            for j in range(d - 1):
                if i > j:
                    np.testing.assert_allclose(
                        raw[i * q:(i + 1) * q, j * p:(j + 1) * p],
                        raw[(i + 1) * q:(i + 2) * q, (j + 1) * p:(j + 2) * p],
                        atol=1e-8,
                    )

    def test_toeplitz_matches_blocks(self):
        ds = prbs_dataset(two_output_model())
        est = estimate_predictor(build_data_matrices(ds, depth=6))
        q, p, d = 2, 2, 6
        assert est.toeplitz.shape == (q * d, p * d)
        for i in range(d):
            for j in range(d):
                blk = est.toeplitz[i * q:(i + 1) * q, j * p:(j + 1) * p]
                if i > j:
                    np.testing.assert_array_equal(blk, est.blocks[i - j - 1])
                else:
                    np.testing.assert_array_equal(blk, 0.0)

    def test_stacked_consistency(self):
        from ddlqr import block_toeplitz_strict_lower

        ds = prbs_dataset(two_output_model())
        est = estimate_predictor(build_data_matrices(ds, depth=6))
        N = 5
        q, p = 2, 2
        M = est.stacked(N)
        S = block_toeplitz_strict_lower(est.blocks[:N - 1], N, block_shape=(q, p))
        assert M.shape == (q * N, p) and S.shape == (q * N, p * N)
        # the stack holds blocks 1..N, the Toeplitz first column 1..N-1 below
        # its zero block, so they overlap on all but the stack's last block
        np.testing.assert_array_equal(M[:q * (N - 1)], S[q:, :p])
        np.testing.assert_array_equal(M[q * (N - 1):], est.blocks[N - 1])

    def test_structure_modes_agree_noise_free(self):
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=6)
        avg = estimate_predictor(dm, structure="average")
        fc = estimate_predictor(dm, structure="first-column")
        np.testing.assert_allclose(avg.toeplitz, fc.toeplitz, atol=1e-9)

    def test_random_systems_noise_free_exactness(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            model = random_stable_system(rng)
            ds = prbs_dataset(model, length=600, seed=500 + trial)
            est = estimate_predictor(build_data_matrices(ds, depth=12))
            truth = true_markov(model, 11)
            for got, expect in zip(est.blocks, truth):
                np.testing.assert_allclose(got, expect, atol=1e-8)


class TestTrueMarkov:
    def test_scalar_geometric(self):
        blocks = true_markov(scalar_model(), 3)
        np.testing.assert_allclose(
            [b[0, 0] for b in blocks], [1.72, 0.2408, 0.033712], rtol=1e-12)

    def test_zero_dynamics(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=[[1.0], [2.0]], C=[[1.0, 0.0]])
        blocks = true_markov(model, 3)
        np.testing.assert_array_equal(blocks[0], model.C @ model.B)
        assert not blocks[1].any() and not blocks[2].any()

    def test_second_block(self):
        blocks = true_markov(two_output_model(), 2)
        np.testing.assert_allclose(blocks[1], [[0.051, -0.0075], [0.004, -0.008]], atol=1e-15)
