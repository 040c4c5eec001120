import numpy as np
import pytest

from conftest import random_stable_system, scalar_model, two_output_model
from oracles import (
    block_diag_repeat,
    block_toeplitz_strict_lower,
    dd_lqr_p,
    exact_gain_inputs,
    textbook_gain,
    true_markov,
)
from ddlqr import (
    LqrWeights,
    StateSpaceModel,
    dare_solve,
    model_lqr_gain,
)
from ddlqr.lqr import dd_lqr_gain
from ddlqr.observability import true_observability

GAIN_SHORT = np.array([[4.2314, 7.644], [1.127, -1.8959]])
GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])


def scalar_dare_root(a, b, c, q, r):
    """Positive root of the scalar Riccati quadratic (independent oracle)."""
    qt = c * q * c
    # b^2 p^2 + (r(1 - a^2) - qt b^2) p - qt r = 0
    A2 = b * b
    B2 = r * (1 - a * a) - qt * b * b
    C2 = -qt * r
    return (-B2 + np.sqrt(B2 * B2 - 4 * A2 * C2)) / (2 * A2)


class TestWeights:
    def test_rejects_zero_r(self):
        with pytest.raises(ValueError, match="ridge"):
            LqrWeights(Q=[[1.0]], R=[[0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            LqrWeights(Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            LqrWeights(Q=[[1.0, 0.0], [0.0, -0.1]], R=np.eye(2))


class TestClosedFormGain:
    def test_reference_plant_short_horizon(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        K, _ = dd_lqr_gain(*exact_gain_inputs(model, 9), weights)
        np.testing.assert_allclose(K, GAIN_SHORT, atol=1e-4)

    def test_reference_plant_long_horizon(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        K, diagnostics = dd_lqr_gain(*exact_gain_inputs(model, 50), weights)
        np.testing.assert_allclose(K, GAIN_LONG, atol=1e-4)
        assert diagnostics["cond_bracket"] > 0

    def test_zero_dynamics_zero_gain(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2))
        weights = LqrWeights(Q=np.eye(2), R=np.eye(2))
        K, _ = dd_lqr_gain(*exact_gain_inputs(model, 5), weights)
        np.testing.assert_allclose(K, 0.0, atol=1e-14)

    def test_gamma_forms_agree(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        inputs = exact_gain_inputs(model, 6)
        lemma, _ = dd_lqr_gain(*inputs, weights)
        direct = textbook_gain(*inputs, weights, 6)
        np.testing.assert_allclose(lemma, direct, rtol=1e-8)

    def test_cond_inner_is_the_condition_number_of_mid(self):
        # mid = R_N + S' Q_N S, formed densely here; the gain takes it from eigenvalues
        plants = ((two_output_model(), 20.0, 0.2),
                  (random_stable_system(np.random.default_rng(3), 4, 2, 2), 1.0, 1e-3))
        for model, q, r in plants:
            weights = LqrWeights(Q=q * np.eye(model.n_outputs), R=r * np.eye(model.n_inputs))
            M, S, O_plus = exact_gain_inputs(model, 20)
            mid = block_diag_repeat(weights.R, 20) + S.T @ block_diag_repeat(weights.Q, 20) @ S
            cond = dd_lqr_gain(M, S, O_plus, weights)[1]["cond_inner"]
            assert cond == pytest.approx(np.linalg.cond(mid), rel=1e-10)


class TestClosedFormP:
    def test_matches_riccati_solution(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        N = 50
        blocks = true_markov(model, N + 1)
        S = block_toeplitz_strict_lower(blocks[:N], N + 1)
        O = true_observability(model, N + 1)
        P_cf = dd_lqr_p(O, S, weights, N)
        P_star = dare_solve(model, weights)
        assert np.linalg.norm(P_cf - P_star) / np.linalg.norm(P_star) < 1e-4

    def test_zero_dynamics_returns_output_weight(self):
        model = StateSpaceModel(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        weights = LqrWeights(Q=[[7.5]], R=[[0.3]])
        for N in (1, 3, 8):
            blocks = true_markov(model, N + 1)
            S = block_toeplitz_strict_lower(blocks[:N], N + 1)
            O = true_observability(model, N + 1)
            np.testing.assert_allclose(dd_lqr_p(O, S, weights, N), [[7.5]], atol=1e-10)

    def test_scalar_matches_quadratic_root(self):
        model = scalar_model()
        weights = LqrWeights(Q=[[1.0]], R=[[0.2]])
        N = 50
        blocks = true_markov(model, N + 1)
        S = block_toeplitz_strict_lower(blocks[:N], N + 1)
        O = true_observability(model, N + 1)
        P_cf = dd_lqr_p(O, S, weights, N)
        expect = scalar_dare_root(0.14, 1.72, 1.0, 1.0, 0.2)
        assert abs(P_cf[0, 0] - expect) / expect < 1e-6


class TestDareSolve:
    def test_zero_dynamics_one_step(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2))
        weights = LqrWeights(Q=3.0 * np.eye(2), R=np.eye(2))
        np.testing.assert_allclose(dare_solve(model, weights), 3.0 * np.eye(2), atol=1e-12)

    def test_scalar_quadratic_root(self):
        model = scalar_model()
        weights = LqrWeights(Q=[[1.0]], R=[[0.2]])
        P = dare_solve(model, weights)
        expect = scalar_dare_root(0.14, 1.72, 1.0, 1.0, 0.2)
        assert P[0, 0] == pytest.approx(expect, rel=1e-10)

    def test_reference_plant_gain(self):
        model = two_output_model()
        weights = LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        np.testing.assert_allclose(K, GAIN_LONG, atol=1e-4)

    def test_residual_contract(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_stable_system(rng)
            weights = LqrWeights(Q=np.diag(rng.uniform(0.5, 5.0, model.n_outputs)),
                                 R=np.diag(rng.uniform(0.5, 5.0, model.n_inputs)))
            P = dare_solve(model, weights)
            A, B, C = model.A, model.B, model.C
            gain = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
            resid = A.T @ P @ A - (A.T @ P @ B) @ gain + C.T @ weights.Q @ C - P
            assert np.linalg.norm(resid) / np.linalg.norm(P) < 1e-11
            assert np.abs(np.linalg.eigvals(A - B @ gain)).max() < 1.0

    def test_badly_conditioned_plant_meets_residual_contract(self):
        # open-loop poles -1.47 and -1.20, one cheap input, ||P|| about 1e7: the
        # doubling alone stops at a fixed-point residual of 1e-8
        model = StateSpaceModel(
            A=[[-0.5545510979239398, 1.1981281518350444, -0.13959508550015298],
               [0.27247713121356004, -1.118933990967822, -0.03533064542641336],
               [-0.3568375876630077, -0.7105017556416584, -1.1246270651876151]],
            B=[[1.2136292020702117], [1.9369059309218568], [-0.48346888979821484]],
            C=[[-0.7770309932063449, 0.15228605845536833, 1.1416213626565186]])
        weights = LqrWeights(Q=[[0.6442535217749668]], R=[[0.00702991451769358]])
        P = dare_solve(model, weights)
        A, B, C = model.A, model.B, model.C
        gain = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
        resid = A.T @ P @ A - (A.T @ P @ B) @ gain + C.T @ weights.Q @ C - P
        assert np.linalg.norm(resid) / np.linalg.norm(P) < 1e-11
        assert np.abs(np.linalg.eigvals(A - B @ gain)).max() < 1.0


class TestModelGain:
    def test_zero_p(self):
        model = two_output_model()
        K = model_lqr_gain(model, np.zeros((2, 2)), 0.2 * np.eye(2))
        np.testing.assert_array_equal(K, 0.0)

    def test_deadbeat_limit(self):
        model = scalar_model()
        weights = LqrWeights(Q=[[1.0]], R=[[1e-9]])
        K = model_lqr_gain(model, dare_solve(model, weights), weights.R)
        assert K[0, 0] == pytest.approx(0.14 / 1.72, rel=1e-6)


class TestOracleAgreement:
    def test_gain_converges_with_horizon(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = random_stable_system(rng, radius=(0.3, 0.8))
            weights = LqrWeights(Q=np.eye(model.n_outputs), R=0.5 * np.eye(model.n_inputs))
            K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
            rho = np.abs(np.linalg.eigvals(model.A)).max()
            # ~10x the dominant time constant, in samples
            N_far = max(int(np.ceil(-10.0 / np.log(max(rho, 0.1)))), 8)
            errs = []
            for N in (max(N_far // 4, 2), N_far):
                K, _ = dd_lqr_gain(*exact_gain_inputs(model, N), weights)
                errs.append(np.abs(K - K_star).max())
            assert errs[-1] <= errs[0] + 1e-12
            assert errs[-1] < 1e-4
