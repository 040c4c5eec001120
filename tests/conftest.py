"""Shared test fixtures: the demo plants, random-system samplers and closed-loop
runs, and the Hypothesis profile of the whole suite: derandomized (the same examples on
every run), no example database, no deadline. A property's own ``settings``
give only its example count and health checks. The ``pytester`` plugin runs inner
sessions under the suite's own pytest settings."""

import numpy as np
from hypothesis import settings

from ddlqr import Dataset, SignalSpec, StateSpaceModel, augment_model, generate_signal, simulate
from ddlqr.experiments import _loop_run
from ddlqr.plant_sim import _apply

# the tracking demo shrunk to a short record and depth, as config overrides
UPS_SMALL_SETS = ["signal.length=800", "estimation.depth=30", "estimation.width=400",
                  "lqr.horizon=30"]

pytest_plugins = ["pytester"]

settings.register_profile("ddlqr", derandomize=True, database=None, deadline=None)
settings.load_profile("ddlqr")


def two_output_model() -> StateSpaceModel:
    """Two-state, two-input, two-output regulation demo plant."""
    return StateSpaceModel(
        A=[[1.0, 0.15], [-0.2, 0.6]],
        B=[[0.04, 0.01], [0.02, -0.01]],
        C=[[1.0, 2.0], [0.0, 1.0]],
        sample_time=1.0,
    )


def scalar_model(with_noise: bool = False) -> StateSpaceModel:
    """First-order scalar demo plant, optionally with a unit state-noise channel."""
    return StateSpaceModel(
        A=[[0.14]],
        B=[[1.72]],
        C=[[1.0]],
        E=[[1.0]] if with_noise else None,
        sample_time=1.0,
    )


def prbs_dataset(model: StateSpaceModel, length: int = 1022, seed: int = 7,
                 amplitude: float = 1.0) -> Dataset:
    """Noise-free open-loop record under a PRBS excitation."""
    spec = SignalSpec(kind="prbs", length=length, amplitude=amplitude, seed=seed,
                      channels=model.n_inputs)
    return simulate(model, generate_signal(spec))


def regulation_run(model: StateSpaceModel, K, x0, horizon: int):
    """Raw (x, u, y) of the regulation loop A - B K from x0, as ``evaluate_closed_loop`` runs it."""
    K = np.asarray(K, dtype=float)
    return _loop_run(model, K, model.A - model.B @ K, np.asarray(x0, dtype=float), steps=horizon)


def tracking_run(model: StateSpaceModel, imc, K_a, r):
    """Raw (x, u, y) of the tracking loop, as ``evaluate_closed_loop`` runs it: the closed
    ``augment_model`` loop from rest, driven by G r with G = [0; I_q (x) B_c]."""
    aug, q = augment_model(model, imc), model.n_outputs
    G = np.vstack([np.zeros((model.n_states, q)), np.kron(np.eye(q), imc.B_c)])
    return _loop_run(aug, K_a, aug.A - aug.B @ K_a, np.zeros(len(aug.A)), _apply(G, r),
                     steps=len(r))


def markov_blocks(toeplitz: np.ndarray, depth: int) -> list:
    """Markov blocks 1..depth-1 of a Toeplitz factor at ``depth``, read down its first
    block column below the zero block (batch axes kept)."""
    q, p = (size // depth for size in toeplitz.shape[-2:])
    return [toeplitz[..., k * q:(k + 1) * q, :p] for k in range(1, depth)]


def first_run_anticipates(monkeypatch) -> None:
    """Make the first Monte Carlo run unidentifiable.

    Its outputs repeat the input 3 steps ahead (y_t = u_{t+3}), so its future
    inputs lie in the span of its past outputs. The patch sits where
    ``monte_carlo_obs`` simulates a chunk of runs.
    """
    import ddlqr.experiments

    calls = []

    def patched(model, u, *args):
        data = simulate(model, u, *args)
        calls.append(None)
        if len(calls) == 1:
            data.y[0] = np.vstack([u[0, 3:], u[0, :3]])
        return data

    monkeypatch.setattr(ddlqr.experiments, "simulate", patched)


def random_stable_system(rng: np.random.Generator, n_max: int = 4, p_max: int = 2,
                         q_max: int = 2, radius: tuple = (0.3, 0.9)) -> StateSpaceModel:
    """Random stable (hence stabilizable) system with generic B and C."""
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    q = int(rng.integers(1, q_max + 1))
    A = rng.normal(size=(n, n))
    spectral = np.abs(np.linalg.eigvals(A)).max()
    A *= rng.uniform(*radius) / max(spectral, 1e-12)
    return StateSpaceModel(A=A, B=rng.normal(size=(n, p)), C=rng.normal(size=(q, n)))
