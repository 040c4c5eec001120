"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime limit is asserted in-line.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    markov_blocks,
    prbs_dataset,
    random_stable_system,
    scalar_model,
    two_output_model,
)
from oracles import (
    ITERATE_FLOOR,
    ITERATE_PER_COND,
    orthogonal_projector,
    pinv,
    riccati_iterate,
    true_markov,
)
from ddlqr import (
    LqrWeights,
    SignalSpec,
    TrackingScenario,
    convergence_sweep,
    dare_solve,
    estimate,
    evaluate_closed_loop,
    generate_signal,
    model_lqr_gain,
    monte_carlo_obs,
    simulate,
    synthesize,
)
from ddlqr.config import RunConfig
from ddlqr.markov import build_data_matrices, estimate_predictor, hankel_window
from ddlqr.observability import estimate_obs_alg1, estimate_obs_alg2, true_observability

GAIN_SHORT = np.array([[4.2314, 7.644], [1.127, -1.8959]])
GAIN_LONG = np.array([[4.6491, 7.5226], [1.4461, -1.9886]])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class _Criterion:
    """Context manager asserting a runtime budget and printing the verdict."""

    def __init__(self, number: int, label: str, budget_s: float | None = None):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance criterion {self.number} ({self.label}): {verdict} "
              f"[{elapsed:.2f} s]")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget:.0f} s budget "
                f"({elapsed:.1f} s)"
            )
        return False


@pytest.fixture(scope="module")
def regulation_data():
    return prbs_dataset(two_output_model(), length=1022, seed=7, amplitude=1.0)


@pytest.fixture(scope="module")
def regulation_weights():
    return LqrWeights(Q=20 * np.eye(2), R=0.2 * np.eye(2))


def test_criterion_1_long_horizon_gain(regulation_data, regulation_weights):
    with _Criterion(1, "two-output plant, horizon 50", budget_s=10.0):
        model = two_output_model()
        design = synthesize(estimate(regulation_data, 51), regulation_weights, 50)
        assert np.abs(design.K - GAIN_LONG).max() < 1e-3
        K_star = model_lqr_gain(model, dare_solve(model, regulation_weights),
                                regulation_weights.R)
        assert np.linalg.norm(design.K - K_star) / np.linalg.norm(K_star) < 1e-4


def test_criterion_2_short_horizon_gain(regulation_data, regulation_weights):
    with _Criterion(2, "two-output plant, horizon 10", budget_s=5.0):
        design = synthesize(estimate(regulation_data, 51), regulation_weights, 10)
        assert np.abs(design.K - GAIN_SHORT).max() < 1e-3


def test_criterion_3_riccati_oracle():
    with _Criterion(3, "Riccati fixed point on 100 random systems", budget_s=30.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            model = random_stable_system(rng, radius=(0.2, 0.95))
            weights = LqrWeights(
                Q=np.diag(rng.uniform(0.5, 5.0, model.n_outputs)),
                R=np.diag(rng.uniform(0.5, 5.0, model.n_inputs)),
            )
            P = dare_solve(model, weights)
            A, B, C = model.A, model.B, model.C
            K = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
            resid = A.T @ P @ A - (A.T @ P @ B) @ K + C.T @ weights.Q @ C - P
            assert np.linalg.norm(resid) / np.linalg.norm(P) < 1e-10
            assert np.abs(np.linalg.eigvals(A - B @ K)).max() < 1.0


def test_criterion_4_noisy_monte_carlo():
    with _Criterion(4, "noisy scalar Monte Carlo, 5000 runs", budget_s=20.0):
        model = scalar_model(with_noise=True)
        spec = SignalSpec(kind="prbs", length=1022, amplitude=1.0, hold=3)
        rep1, rep2 = monte_carlo_obs(
            model, spec, depth=3, runs=5000, noise_variance=0.1,
            base_seed=0, width=420, noise_mode="measurement",
        )
        ref_mean1 = np.array([0.1327, 0.01865])
        ref_mean2 = np.array([0.1223, 0.01704])
        ref_cov1 = np.array([1.365e-4, 1.938e-4])
        ref_cov2 = np.array([1.093e-4, 1.3e-4])

        m1, m2 = rep1.mean.ravel(), rep2.mean.ravel()
        assert np.all(m1 >= 0.85 * ref_mean1) and np.all(m1 <= 1.15 * ref_mean1)
        assert np.all(m2 >= 0.85 * ref_mean2) and np.all(m2 <= 1.15 * ref_mean2)
        c1, c2 = rep1.covariance_eigenvalues, rep2.covariance_eigenvalues
        assert np.all(c1 >= 0.8 * ref_cov1) and np.all(c1 <= 1.2 * ref_cov1)
        assert np.all(c2 >= 0.8 * ref_cov2) and np.all(c2 <= 1.2 * ref_cov2)
        # reported error-moment metric: strictly smaller largest eigenvalue
        # for the input-projection estimator
        assert rep2.second_moment_eigenvalues[-1] < rep1.second_moment_eigenvalues[-1]
        # cross-algorithm covariance ordering: alg2's largest eigenvalue sits
        # at or below alg1's smallest, within 15 percent slack
        assert c2[-1] <= 1.15 * c1[0]
        # harness sanity: the error moments decompose exactly
        for rep in (rep1, rep2):
            bias = rep.mean - rep.truth
            assert np.abs(rep.mse - (rep.covariance + bias @ bias.T)).max() < 1e-10
            assert np.abs(
                rep.second_moment - (rep.covariance + rep.mean @ rep.mean.T)
            ).max() < 1e-10


def test_criterion_5_noise_free_exactness():
    with _Criterion(5, "noise-free exactness on 50 random systems", budget_s=60.0):
        rng = np.random.default_rng(42)
        for trial in range(50):
            model = random_stable_system(rng)
            data = prbs_dataset(model, length=600, seed=1000 + trial)
            depth = 12
            dm = build_data_matrices(data, depth)
            s_hat, _ = estimate_predictor(dm)
            truth_markov = true_markov(model, depth - 1)
            for got, expect in zip(markov_blocks(s_hat, depth), truth_markov):
                scale = max(np.linalg.norm(np.vstack(truth_markov)), 1e-12)
                assert np.linalg.norm(got - expect) / scale < 1e-6
            truth_obs = true_observability(model, depth)
            o1, _ = estimate_obs_alg1(dm, s_hat)
            o2, _ = estimate_obs_alg2(dm)
            scale = np.linalg.norm(truth_obs)
            assert np.linalg.norm(o1 - truth_obs) / scale < 1e-6
            assert np.linalg.norm(o2 - truth_obs) / scale < 1e-6
            assert (np.linalg.norm(o1 - o2)
                    / max(np.linalg.norm(o1), 1e-12)) < 1e-8


def test_criterion_6_convergence(regulation_data, regulation_weights):
    with _Criterion(6, "gain convergence with horizon"):
        scalar = scalar_model()
        deadbeat = LqrWeights(Q=[[1.0]], R=[[1e-9]])
        data = prbs_dataset(scalar, length=1022, seed=3)
        rows = dict(convergence_sweep(scalar, estimate(data, 4), deadbeat, [2, 3]))
        assert rows[3] < 1e-6
        model = two_output_model()
        sweep = dict(convergence_sweep(
            model, estimate(regulation_data, 51), regulation_weights, [10, 50]))
        assert sweep[50] < sweep[10]


def test_criterion_7_tracking_demo():
    with _Criterion(7, "surrogate converter tracking demo", budget_s=60.0):
        cfg = RunConfig.load(CONFIGS / "ups_tracking_demo.ini")
        model = cfg.model()
        imc = cfg.imc(default_ts=model.sample_time)
        spec = cfg.signal(model)
        data = simulate(model, generate_signal(spec))
        weights = cfg.weights()
        est = estimate(data, cfg.get_int("estimation", "depth"),
                       cfg.get_int("estimation", "width"), imc=imc)
        design = synthesize(est, weights, cfg.get_int("lqr", "horizon"))
        assert design.K.shape == (1, 4)
        horizon = cfg.get_int("eval", "horizon")
        reference = cfg.signal(model, section="reference")
        metrics = evaluate_closed_loop(
            model, design.K, weights, TrackingScenario(imc=imc, reference=reference), horizon,
        )
        assert metrics.spectral_radius < 1.0
        assert metrics.steady_state_error < 0.02


def test_criterion_8_hankel_window_and_oracle_properties():
    with _Criterion(8, "Hankel-window and oracle property suite"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            M = rng.normal(size=(int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            Mp = pinv(M)
            scale = max(np.linalg.norm(M), 1.0)
            pscale = max(np.linalg.norm(Mp), 1.0)
            assert np.linalg.norm(M @ Mp @ M - M) / scale < 1e-10
            assert np.linalg.norm(Mp @ M @ Mp - Mp) / pscale < 1e-10
            assert np.linalg.norm(M @ Mp - (M @ Mp).T) < 1e-10
            assert np.linalg.norm(Mp @ M - (Mp @ M).T) < 1e-10
        for _ in range(20):
            T, d = int(rng.integers(10, 60)), int(rng.integers(1, 4))
            sig = rng.normal(size=(T, d))
            r = int(rng.integers(1, 5))
            L = T - r + 1
            H = hankel_window(sig, 0, r, L)
            for i in range(r):
                for j in range(L):
                    assert np.array_equal(H[i, :, j], sig[i + j])
        for _ in range(10):
            U = rng.normal(size=(int(rng.integers(1, 5)), 40))
            P = orthogonal_projector(U)
            assert np.abs(U @ P).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-12
            assert np.abs(P - P.T).max() < 1e-12


def test_criterion_9_sweep_rows_are_iterate_gaps(regulation_data, regulation_weights):
    with _Criterion(9, "noise-free sweep rows equal the Riccati-iterate gaps", budget_s=10.0):
        rng = np.random.default_rng(9)
        cases = [(two_output_model(), regulation_data, regulation_weights, 51,
                  [2, 3, 5, 10, 20, 30, 40, 50])]
        for seed in range(3):
            model = random_stable_system(rng, radius=(0.3, 0.9))
            weights = LqrWeights(Q=np.eye(model.n_outputs), R=np.eye(model.n_inputs))
            cases.append((model, prbs_dataset(model, length=600, seed=900 + seed), weights,
                          12, [2, 3, 6, 12]))
        for model, data, weights, depth, horizons in cases:
            K_star = model_lqr_gain(model, dare_solve(model, weights), weights.R)
            for algorithm in ("alg1", "alg2"):
                est = estimate(data, depth, algorithm=algorithm)
                for N, row in convergence_sweep(model, est, weights, horizons):
                    K_iter = model_lqr_gain(model, riccati_iterate(model, weights, N - 1),
                                            weights.R)
                    cond = synthesize(est, weights, N).diagnostics["cond_inner"]
                    bound = (ITERATE_FLOOR + ITERATE_PER_COND * cond) * np.abs(K_iter).max()
                    assert abs(row - np.abs(K_iter - K_star).max()) <= bound, (algorithm, N)
