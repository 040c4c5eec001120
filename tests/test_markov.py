import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    markov_blocks,
    prbs_dataset,
    random_stable_system,
    scalar_model,
    two_output_model,
)
from oracles import block_hankel, block_toeplitz_strict_lower, pinv_predictor, true_markov
from ddlqr import (
    Dataset,
    InputError,
    StateSpaceModel,
    estimate,
    simulate,
)
from ddlqr import markov
from ddlqr.markov import build_data_matrices, estimate_predictor


def stack(ds, dm):
    """The Hankel stack of ``ds`` that ``dm`` factors."""
    return markov.hankel_stack(ds, dm.depth, dm.width)


def regressor(ds, dm):
    """The [u_past; y_past; u_future] rows of the stack."""
    return stack(ds, dm)[..., :dm.parts["u_future"].stop, :]


def rows(ds, dm, name):
    """The rows of the stack that ``parts`` names."""
    return stack(ds, dm)[..., dm.parts[name], :]


class TestBuildDataMatrices:
    def test_depth_one_read_off(self):
        ds = Dataset(u=[[1.0], [2.0], [3.0], [4.0]], y=[[5.0], [6.0], [7.0], [8.0]],
                     x=np.zeros((4, 1)))
        dm = build_data_matrices(ds, depth=1, width=3)
        np.testing.assert_array_equal(rows(ds, dm, "u_past"), [[1, 2, 3]])
        np.testing.assert_array_equal(rows(ds, dm, "y_past"), [[5, 6, 7]])
        np.testing.assert_array_equal(rows(ds, dm, "u_future"), [[2, 3, 4]])
        np.testing.assert_array_equal(rows(ds, dm, "y_future"), [[6, 7, 8]])
        assert regressor(ds, dm).shape == (3, 3)
        np.testing.assert_array_equal(rows(ds, dm, "x_past"), [[0, 0, 0]])

    def test_regressor_shape(self):
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=51, width=870)
        assert regressor(ds, dm).shape == (306, 870)
        assert rows(ds, dm, "y_future").shape == (102, 870)

    def test_stack_is_the_hankel_blocks(self):
        # three inputs, two outputs and three states, in a batch of two records
        rng = np.random.default_rng(12)
        ds = Dataset(u=rng.normal(size=(2, 40, 3)), y=rng.normal(size=(2, 40, 2)),
                     x=rng.normal(size=(2, 40, 3)))
        depth, width = 4, 32
        dm = build_data_matrices(ds, depth, width)
        expect = np.concatenate([
            block_hankel(ds.u, 0, depth, width), block_hankel(ds.y, 0, depth, width),
            block_hankel(ds.u, depth, depth, width), block_hankel(ds.y, depth, depth, width),
            ds.x[..., :width, :].swapaxes(-1, -2)], axis=-2)
        assert np.array_equal(stack(ds, dm), expect)
        # the factor is the R' of the stack's one QR
        assert np.array_equal(dm.factor, np.linalg.qr(expect.swapaxes(-1, -2), mode="r")
                              .swapaxes(-1, -2))
        assert dm.factor.shape == (2, 43, 32)  # 43 rows, narrower than tall
        for b in range(2):
            run = Dataset(u=ds.u[b], y=ds.y[b], x=ds.x[b])
            alone = build_data_matrices(run, depth, width)
            assert np.array_equal(stack(run, alone), expect[b])
            assert np.array_equal(alone.factor, dm.factor[b])

    def test_zero_dataset_gives_zero_matrices(self):
        ds = Dataset(u=np.zeros((40, 1)), y=np.zeros((40, 1)), x=np.zeros((40, 1)))
        dm = build_data_matrices(ds, depth=2, width=10)
        assert not regressor(ds, dm).any() and not rows(ds, dm, "y_future").any()

    def test_insufficient_length(self):
        ds = Dataset(u=np.zeros((10, 1)), y=np.zeros((10, 1)), x=np.zeros((10, 1)))
        with pytest.raises(InputError, match=r"width 12 at depth 4 needs 2\*depth \+ width - 1 = 19"
                           r" samples, the record has 10"):
            build_data_matrices(ds, depth=4, width=12)

    def test_width_below_regressor_rows(self):
        ds = prbs_dataset(scalar_model(), length=200)
        with pytest.raises(InputError, match=r"width 20 must be >= \(2p \+ q\) \* depth = 30"):
            build_data_matrices(ds, depth=10, width=20)


class TestEstimatePredictor:
    def test_scalar_markov_parameters(self):
        ds = prbs_dataset(scalar_model(), length=1022)
        toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=3))
        blocks = markov_blocks(toeplitz, 3)
        assert blocks[0][0, 0] == pytest.approx(1.72, abs=1e-8)
        assert blocks[1][0, 0] == pytest.approx(0.2408, abs=1e-8)

    def test_two_output_markov_parameters(self):
        ds = prbs_dataset(two_output_model())
        toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=11))
        np.testing.assert_allclose(markov_blocks(toeplitz, 11)[0], [[0.08, -0.01], [0.02, -0.01]],
                                   atol=1e-8)

    def test_finite_impulse_response_truncates(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=[[1.0], [0.5]], C=[[1.0, 1.0]])
        ds = prbs_dataset(model, length=400)
        toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=5))
        blocks = markov_blocks(toeplitz, 5)
        np.testing.assert_allclose(blocks[0], model.C @ model.B, atol=1e-10)
        for blk in blocks[1:]:
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
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=6)
        _, figures = estimate_predictor(dm)
        s = np.linalg.svd(np.vstack([rows(ds, dm, "u_past"), rows(ds, dm, "u_future")]),
                          compute_uv=False)
        assert figures["input_rank"] == 24 and figures["input_rank_margin"] > 1.0
        assert figures["input_rank_margin"] == pytest.approx(s[-1] / (1e-8 * s[0]), rel=1e-9)

    def test_shift_structure_of_raw_solution(self):
        """The least-squares future-input block has the shift structure on its
        own, so on noise-free data the sub-diagonal averages reproduce it."""
        ds = prbs_dataset(two_output_model())
        dm = build_data_matrices(ds, depth=8)
        toeplitz, _ = estimate_predictor(dm)
        q, p, d = 2, 2, 8
        raw, _, _ = pinv_predictor(ds, dm)
        assert raw.shape == toeplitz.shape == (q * d, p * d)
        for i in range(d - 1):
            for j in range(d - 1):
                if i > j:
                    np.testing.assert_allclose(
                        raw[i * q:(i + 1) * q, j * p:(j + 1) * p],
                        raw[(i + 1) * q:(i + 2) * q, (j + 1) * p:(j + 2) * p],
                        atol=1e-8,
                    )
        np.testing.assert_allclose(toeplitz, raw, atol=1e-8)

    def test_toeplitz_matches_blocks(self):
        """Every block sub-diagonal repeats the Markov block of the first block column."""
        ds = prbs_dataset(two_output_model())
        toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=6))
        q, p, d = 2, 2, 6
        assert toeplitz.shape == (q * d, p * d)
        blocks = markov_blocks(toeplitz, d)
        for i in range(d):
            for j in range(d):
                blk = toeplitz[i * q:(i + 1) * q, j * p:(j + 1) * p]
                if i > j:
                    np.testing.assert_array_equal(blk, blocks[i - j - 1])
                else:
                    np.testing.assert_array_equal(blk, 0.0)

    def test_stacked_consistency(self):
        """The gain's Markov stack M and Toeplitz factor S are views of the
        estimate's Toeplitz factor, equal to building them from the blocks."""
        ds = prbs_dataset(two_output_model())
        toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=6))
        q, p = 2, 2
        blocks = markov_blocks(toeplitz, 6)
        for N in range(1, 6):
            M = toeplitz[q:q * (N + 1), :p]
            S = toeplitz[:q * N, :p * N]
            np.testing.assert_array_equal(M, np.concatenate(blocks[:N]))
            np.testing.assert_array_equal(
                S, block_toeplitz_strict_lower(blocks[:N], N + 1)[:q * N, :p * N])

    def test_random_systems_noise_free_exactness(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            model = random_stable_system(rng)
            ds = prbs_dataset(model, length=600, seed=500 + trial)
            toeplitz, _ = estimate_predictor(build_data_matrices(ds, depth=12))
            truth = true_markov(model, 11)
            for got, expect in zip(markov_blocks(toeplitz, 12), truth):
                np.testing.assert_allclose(got, expect, atol=1e-8)


class TestLapackWork:
    """The predictor's SVDs are all of square blocks or triangles of the factor,
    whatever the record's width, and the width is factored once."""

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_square_svds_and_one_wide_qr(self, monkeypatch, algorithm):
        calls = []
        for name in ("svd", "qr"):
            def wrapped(a, *args, _name=name, _call=getattr(markov.np.linalg, name), **kwargs):
                calls.append((_name, sys._getframe(1).f_code.co_name, np.shape(a)))
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(markov.np.linalg, name, wrapped)
        # the regulation demo: p = q = 2 at depth 51, so p*depth = q*depth = 102
        est = estimate(prbs_dataset(two_output_model()), 51, algorithm=algorithm)
        svds = [shape for name, caller, shape in calls if name == "svd"
                and caller in ("estimate_predictor", "past_input_singular_values")]
        # L_Up,Up, L_Yp,Yp, the remainder triangle and the input triangle
        assert sorted(svds) == [(102, 102)] * 3 + [(204, 204)]
        wide = [shape for name, _, shape in calls if name == "qr" and shape[0] == est.width]
        assert wide == [(est.width, 2 * (102 + 102) + 2)]

    def test_three_null_counts_share_one_remainder_qr(self, monkeypatch):
        # one plant at depth 4 recorded noise-free, with rank-one and with full
        # state-measurement noise: L_Yp,Yp keeps q*depth - n, q*depth - n - depth and no
        # null directions, and the batch's remainders are factored by one QR
        d = 4
        rng = np.random.default_rng(5)
        u = rng.normal(size=(120, 2))
        runs = [simulate(replace(two_output_model(), E=E), u, noise_mode="measurement",
                         v=None if E is None else 0.1 * rng.normal(size=(120, E.shape[1])))
                for E in (None, np.array([[1.0], [0.0]]), np.eye(2))]
        batch = Dataset(*(np.stack([getattr(r, k) for r in runs]) for k in "uyx"))
        dm = build_data_matrices(batch, d)
        inputs = np.concatenate([rows(batch, dm, k) for k in ("u_past", "u_future")], axis=-2)
        s_in = np.linalg.svd(inputs, compute_uv=False)
        yp = dm.parts["y_past"]
        s_yp = np.linalg.svd(dm.factor[..., yp, yp], compute_uv=False)
        scale = np.maximum(s_in[:, :1], s_yp[:, :1])
        nulls = np.sum(s_yp < markov.PINV_TOL * scale, axis=-1).tolist()
        assert nulls == [6, 2, 0]
        qrs = []
        def qr(a, *args, _call=np.linalg.qr, **kwargs):
            qrs.append(np.shape(a))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(markov.np.linalg, "qr", qr)
        toeplitz, figures = estimate_predictor(dm)
        monkeypatch.undo()
        # the future-input rows, then the remainder [L_Uf,Uf, L_Uf,Yp null]'
        assert qrs == [(3, 16, 8), (3, 16, 8)]
        for b, run in enumerate(runs):
            alone, alone_figures = estimate_predictor(build_data_matrices(run, d))
            assert np.array_equal(toeplitz[b], alone)
            for name in ("input_rank", "regressor_rank", "input_rank_margin"):
                assert np.array_equal(figures[name][b], alone_figures[name]), name


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
