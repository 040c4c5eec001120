import numpy as np
import pytest

from oracles import block_diag_repeat, block_toeplitz_strict_lower, pinv
from ddlqr import InputError, SignalSpec, generate_signal
from ddlqr.markov import hankel_width, hankel_window


def block_hankel(signal, start, depth, width):
    """The window as the (depth * d, width) block-Hankel matrix it views."""
    return hankel_window(signal, start, depth, width).reshape(-1, width)


class TestBlockHankel:
    def test_scalar_read_off(self):
        got = block_hankel([1, 2, 3, 4], start=0, depth=2, width=3)
        np.testing.assert_array_equal(got, [[1, 2, 3], [2, 3, 4]])

    def test_two_dim_read_off(self):
        sig = np.array([[k, -k] for k in range(5)], dtype=float)
        got = block_hankel(sig, start=1, depth=2, width=2)
        np.testing.assert_array_equal(got, [[1, 2], [-1, -2], [2, 3], [-2, -3]])

    def test_prbs_shape_and_entries(self):
        sig = generate_signal(SignalSpec(kind="prbs", length=1022, seed=3, channels=2))
        H = block_hankel(sig, start=0, depth=51, width=700)
        assert H.shape == (102, 700)
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = int(rng.integers(51))
            j = int(rng.integers(700))
            np.testing.assert_array_equal(H[2 * i:2 * i + 2, j], sig[i + j])

    def test_entry_consistency_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            T, d = int(rng.integers(5, 40)), int(rng.integers(1, 4))
            sig = rng.normal(size=(T, d))
            k0 = int(rng.integers(0, 3))
            r = int(rng.integers(1, 4))
            L = T - k0 - r + 1
            if L < 1:
                continue
            H = block_hankel(sig, k0, r, L)
            for i in range(r):
                for j in range(L):
                    np.testing.assert_array_equal(H[i * d:(i + 1) * d, j], sig[k0 + i + j])

    def test_insufficient_samples(self):
        # the window does not check its sizes; the record rule does, for the past and
        # future windows that start at samples 0 and depth
        with pytest.raises(InputError, match="needs 2\\*depth \\+ width - 1 = 6 samples, "
                           "the record has 4"):
            hankel_width(4, 1, 1, 1, depth=1, width=5)


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(pinv([[2.0, 0.0], [0.0, 0.0]]),
                                   [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_zero_matrix(self):
        got = pinv(np.zeros((2, 5)))
        assert got.shape == (5, 2)
        np.testing.assert_array_equal(got, 0.0)

    def test_full_row_rank_least_squares(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(4, 9))
        Mp = pinv(M)
        rel = np.linalg.norm(M @ Mp @ M - M) / np.linalg.norm(M)
        assert rel < 1e-12

    def test_four_conditions_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            M = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            Mp = pinv(M)
            scale = max(np.linalg.norm(M), 1.0)
            assert np.linalg.norm(M @ Mp @ M - M) / scale < 1e-10
            assert np.linalg.norm(Mp @ M @ Mp - Mp) / max(np.linalg.norm(Mp), 1.0) < 1e-10
            assert np.linalg.norm(M @ Mp - (M @ Mp).T) < 1e-10
            assert np.linalg.norm(Mp @ M - (Mp @ M).T) < 1e-10


class TestBlockToeplitz:
    def test_scalar_impulse_blocks(self):
        # first two impulse-response blocks of the scalar demo plant
        A, B, C = 0.14, 1.72, 1.0
        blocks = [np.array([[C * B]]), np.array([[C * A * B]])]
        got = block_toeplitz_strict_lower(blocks, 3)
        np.testing.assert_allclose(
            got, [[0, 0, 0], [1.72, 0, 0], [0.2408, 1.72, 0]], atol=1e-15)

    def test_two_by_two_block_placement(self):
        A = np.array([[1.0, 0.15], [-0.2, 0.6]])
        B = np.array([[0.04, 0.01], [0.02, -0.01]])
        C = np.array([[1.0, 2.0], [0.0, 1.0]])
        CB = C @ B
        np.testing.assert_allclose(CB, [[0.08, -0.01], [0.02, -0.01]], atol=1e-15)
        got = block_toeplitz_strict_lower([CB], 2)
        expect = np.zeros((4, 4))
        expect[2:, :2] = CB
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_structure_properties(self):
        rng = np.random.default_rng(3)
        q, p, N = 2, 3, 5
        blocks = [rng.normal(size=(q, p)) for _ in range(N - 1)]
        S = block_toeplitz_strict_lower(blocks, N)
        for i in range(N):
            for j in range(N):
                blk = S[i * q:(i + 1) * q, j * p:(j + 1) * p]
                if i > j:
                    np.testing.assert_array_equal(blk, blocks[i - j - 1])
                else:
                    np.testing.assert_array_equal(blk, 0.0)

    def test_wrong_block_count(self):
        with pytest.raises(ValueError, match="need 2 blocks"):
            block_toeplitz_strict_lower([np.eye(2)], 3)


class TestBlockDiagRepeat:
    def test_scalar(self):
        np.testing.assert_array_equal(block_diag_repeat([[2.0]], 3), np.diag([2.0, 2.0, 2.0]))

    def test_identity(self):
        np.testing.assert_array_equal(block_diag_repeat(np.eye(2), 2), np.eye(4))

    def test_weight_repeat(self):
        np.testing.assert_array_equal(block_diag_repeat(20 * np.eye(2), 10), 20 * np.eye(20))

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            block_diag_repeat(np.ones((2, 3)), 2)
