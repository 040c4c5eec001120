"""Reference implementations that the library no longer uses.

The library reads every estimate off one LQ factor of the stacked Hankel
data. These oracles compute the same quantities the direct way, from the
full Hankel matrices, with pseudo-inverses and full-width SVDs:

* ``pinv`` is the SVD pseudo-inverse with a relative singular-value cut-off;
* ``orthogonal_projector`` forms the width x width projector explicitly;
* ``pinv_predictor``, ``pinv_obs_alg1`` and ``pinv_obs_alg2`` are the
  pseudo-inverse estimators that the factor route replaced;
* ``true_markov`` gives the model's impulse-response blocks, which the
  estimated Markov parameters are checked against;
* ``block_hankel`` lays out a block-Hankel matrix sample by sample, which the
  library writes from a strided window straight into the stacked data;
* ``block_toeplitz_strict_lower`` assembles the strictly-lower block-Toeplitz
  factor from a list of blocks, which the estimate holds directly.

The library applies the N-fold block-diagonal weights Q_N and R_N block by
block and never forms Gamma = (Q_N^-1 + S R_N^-1 S')^-1. ``block_diag_repeat``
builds the weight repeats, ``textbook_gamma`` inverts Gamma as written, and
``textbook_gain`` and ``dd_lqr_p`` build the closed-form gain and Riccati
solution on it, and ``exact_gain_inputs`` gives the gain's inputs from a model.
``riccati_iterate`` steps the Riccati difference equation from zero; the
closed-form gain of order m is the Riccati gain of its m-th iterate.

The simulators all run one batched LTI kernel. ``loop_simulate``,
``loop_closed_loop``, ``loop_tracking_loop`` and ``loop_filter_imc_states``
step the plant, the regulation loop, the plant with its internal-model
controllers, and the controller filter one sample at a time, as written in
their docstrings; ``per_run_monte_carlo`` simulates and estimates one
Monte Carlo run at a time with them.

``augment_dataset`` appends the controller states to a record's outputs and states,
the data of the plant plus controller. The library never forms them: an estimate with
an internal model factors the plant's rows and the controller's start state and lifts
its fits through the filter, and must equal the estimate of this dataset without one.
"""

import warnings
from dataclasses import replace

import numpy as np

from ddlqr import (
    Dataset,
    generate_signal,
)
from ddlqr.markov import build_data_matrices, estimate_predictor, hankel_stack
from ddlqr.observability import (ALGORITHMS, estimate_obs_alg1, estimate_obs_alg2,
                                 true_observability)

PINV_TOL = 1e-12
RANK_TOL = 1e-8


def pinv(m, tol: float = PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``tol`` times the largest are treated as zero, so
    ``tol`` sets the numerical rank decision.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("cannot invert an empty matrix")
    return np.linalg.pinv(m, rcond=tol)


def orthogonal_projector(u_past: np.ndarray, tol: float = PINV_TOL) -> np.ndarray:
    """Projector onto the orthogonal complement of the rows of u_past.

    Returns the width x width matrix I - u_past' (u_past u_past')^-1 u_past,
    falling back to the pseudo-inverse form when the Gram matrix is singular.
    """
    u_past = np.atleast_2d(np.asarray(u_past, dtype=float))
    L = u_past.shape[1]
    gram = u_past @ u_past.T
    s = np.linalg.svd(gram, compute_uv=False)
    if s.size and s[0] > 0 and s[-1] >= tol * s[0]:
        coeff = np.linalg.solve(gram, u_past)
    else:
        warnings.warn("input Hankel Gram matrix is singular; using pseudo-inverse projector",
                      stacklevel=2)
        coeff = pinv(gram, tol) @ u_past
    return np.eye(L) - u_past.T @ coeff


def numerical_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol * s[0]))


def pinv_predictor(data, dm, pinv_tol: float = PINV_TOL):
    """Min-norm least-squares predictor W = y_future [u_past; y_past; u_future]^+,
    on the Hankel stack of ``data`` at the depth and width of ``dm``.

    Returns the future-input block of W, its sub-diagonal-averaged Markov
    blocks and the input rank of [u_past; u_future].
    """
    d, p, q = dm.depth, dm.n_inputs, dm.n_outputs
    stack = hankel_stack(data, d, dm.width)
    rows = {name: stack[part] for name, part in dm.parts.items()}
    W = rows["y_future"] @ pinv(stack[..., :dm.parts["u_future"].stop, :], tol=pinv_tol)
    raw = W[:, -p * d:]
    blocks = [
        np.mean([raw[(i + k + 1) * q:(i + k + 2) * q, i * p:(i + 1) * p]
                 for i in range(d - 1 - k)], axis=0)
        for k in range(d - 1)
    ]
    return raw, blocks, numerical_rank(np.vstack([rows["u_past"], rows["u_future"]]))


def true_markov(model, count: int) -> list:
    """Model-based impulse-response blocks C A^(i-1) B for i = 1..count."""
    blocks = []
    power = np.eye(model.n_states)
    for _ in range(count):
        blocks.append(model.C @ power @ model.B)
        power = model.A @ power
    return blocks


def block_hankel(signal, start: int, depth: int, width: int) -> np.ndarray:
    """The (..., depth * d, width) block-Hankel matrix of a (..., T, d) series: block
    (i, j) is sample ``signal[..., start + i + j, :]``, copied one block row at a time."""
    sig = np.asarray(signal, dtype=float)
    return np.concatenate([sig[..., start + i:start + i + width, :].swapaxes(-1, -2)
                           for i in range(depth)], axis=-2)


def block_toeplitz_strict_lower(blocks, n_blocks: int) -> np.ndarray:
    """Strictly-lower block-Toeplitz matrix of ``n_blocks`` block rows and columns.

    Block (i, j) is ``blocks[i - j - 1]`` for i > j and zero on and above the
    block diagonal, so ``blocks`` lists the first block column from the first
    sub-diagonal down: n_blocks - 1 >= 1 matrices of one shape (q, p).
    """
    if len(blocks) != n_blocks - 1:
        raise ValueError(f"need {n_blocks - 1} blocks for {n_blocks} block rows, got {len(blocks)}")
    q, p = np.shape(blocks[0])
    out = np.zeros((n_blocks, q, n_blocks, p))
    i, j = np.tril_indices(n_blocks, -1)
    out[i, :, j, :] = np.asarray(blocks, dtype=float)[i - j - 1]
    return out.reshape(q * n_blocks, p * n_blocks)


def pinv_obs_alg1(y_past, u_past, s_hat, x, tol: float = PINV_TOL) -> np.ndarray:
    """O = (y_past - s_hat u_past) x^+."""
    return (y_past - s_hat @ u_past) @ np.linalg.pinv(x, rcond=tol)


def pinv_obs_alg2(y_past, u_past, x, tol: float = PINV_TOL) -> np.ndarray:
    """O = (y_past P) (x P)^+ with P applied as M P = M - (M u_past^+) u_past."""
    u_pinv = pinv(u_past, tol)
    y_proj = y_past - (y_past @ u_pinv) @ u_past
    x_proj = x - (x @ u_pinv) @ u_past
    return y_proj @ np.linalg.pinv(x_proj, rcond=tol)


def block_diag_repeat(w, count: int) -> np.ndarray:
    """Block-diagonal matrix holding ``count`` copies of the square matrix w."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"w must be square, got shape {w.shape}")
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.kron(np.eye(count), w)


def exact_gain_inputs(model, order):
    """Model-derived Markov stack, Toeplitz factor and shifted observability."""
    blocks = true_markov(model, order)
    M = np.vstack(blocks)
    # the leading order x order block window of the Toeplitz factor of all the blocks
    S = block_toeplitz_strict_lower(blocks, order + 1)[:len(M), :order * model.n_inputs]
    O_plus = true_observability(model, order + 1)[model.n_outputs:, :]
    return M, S, O_plus


def textbook_gamma(S, QN, RN) -> np.ndarray:
    """Gamma = (QN^-1 + S RN^-1 S')^-1, inverted as written."""
    return np.linalg.inv(np.linalg.inv(QN) + S @ np.linalg.solve(RN, S.T))


def textbook_gain(M, S, O_plus, weights, horizon: int) -> np.ndarray:
    """K = [R + M' Gamma M]^-1 M' Gamma O_plus with the textbook Gamma."""
    QN = block_diag_repeat(weights.Q, horizon)
    RN = block_diag_repeat(weights.R, horizon)
    MtG = M.T @ textbook_gamma(S, QN, RN)
    return np.linalg.solve(weights.R + MtG @ M, MtG @ O_plus)


def dd_lqr_p(O, S, weights, horizon: int) -> np.ndarray:
    """Closed-form Riccati solution P = O' (Q^-1_{N+1} + S R^-1_{N+1} S')^-1 O.

    With N = ``horizon``, O stacks C .. CA^N (q*(N+1) x n) and S is the
    strictly-lower Toeplitz of the first N Markov blocks (q*(N+1) x p*(N+1)).
    """
    blocks = horizon + 1
    QN = block_diag_repeat(weights.Q, blocks)
    RN = block_diag_repeat(weights.R, blocks)
    P = O.T @ textbook_gamma(S, QN, RN) @ O
    return 0.5 * (P + P.T)


# The gain of order m matches the Riccati gain of ``riccati_iterate``'s P_m up
# to rounding that grows with the condition number of the closed form's inner
# matrix (cond_inner). Over 1500 random plants (n <= 4, p, q <= 3, rho(A) 0.3
# to 1.6, orders 1 to 12) the largest relative gap was a quarter of this bound:
# 2.9e-13 at cond_inner 18, and 3.1e-6 at 7.3e8 on an unstable plant at order 12.
ITERATE_FLOOR, ITERATE_PER_COND = 1e-12, 1e-14


def riccati_iterate(model, weights, steps: int) -> np.ndarray:
    """P_m of P_(k+1) = A'P_kA - A'P_kB (R + B'P_kB)^-1 B'P_kA + C'QC from P_0 = 0."""
    A, B, C = model.A, model.B, model.C
    P = np.zeros((model.n_states, model.n_states))
    for _ in range(steps):
        BtPA = B.T @ P @ A
        P = (A.T @ P @ A - BtPA.T @ np.linalg.solve(weights.R + B.T @ P @ B, BtPA)
             + C.T @ weights.Q @ C)
    return P


def loop_simulate(model, u, v=None, noise_mode="process"):
    """x(k+1) = A x + B u (+ E v in process mode) from x(0) = 0; y = C x."""
    u = np.asarray(u, dtype=float).reshape(len(u), -1)
    T, n = len(u), model.n_states
    x = np.empty((T, n))
    x[0] = np.zeros(n)
    for k in range(T - 1):
        x[k + 1] = model.A @ x[k] + model.B @ u[k]
        if v is not None and noise_mode == "process":
            x[k + 1] += model.E @ v[k]
    if v is not None and noise_mode == "measurement":
        x = x + v @ model.E.T
    return Dataset(u=u, y=x @ model.C.T, x=x)


def loop_closed_loop(model, K, x0, horizon):
    """u(k) = -K x(k); x(k+1) = A x + B u; y = C x."""
    n, p = model.n_states, model.n_inputs
    x = np.empty((horizon, n))
    u = np.empty((horizon, p))
    x[0] = x0
    for k in range(horizon):
        u[k] = -K @ x[k]
        if k + 1 < horizon:
            x[k + 1] = model.A @ x[k] + model.B @ u[k]
    return Dataset(u=u, y=x @ model.C.T, x=x)


def loop_tracking_loop(model, imc, K_a, r):
    """Plant plus one controller copy per output on the tracking error r - y, from rest."""
    T = len(r)
    n, p, q = model.n_states, model.n_inputs, model.n_outputs
    nc = imc.order
    x = np.zeros((T, n))
    xc = np.zeros((T, nc * q))
    u = np.empty((T, p))
    y = np.empty((T, q))
    for k in range(T):
        u[k] = -K_a @ np.concatenate([x[k], xc[k]])
        y[k] = model.C @ x[k]
        if k + 1 < T:
            x[k + 1] = model.A @ x[k] + model.B @ u[k]
            err = r[k] - y[k]
            for j in range(q):
                blk = slice(j * nc, (j + 1) * nc)
                xc[k + 1, blk] = imc.A_c @ xc[k, blk] + imc.B_c[:, 0] * err[j]
    return Dataset(u=u, y=np.hstack([y, xc]), x=np.hstack([x, xc]))


def loop_filter_imc_states(y, imc) -> np.ndarray:
    """x_c(k+1) = A_c x_c(k) - B_c y_j(k) per output channel j, channel-major."""
    T, q = y.shape
    nc = imc.order
    out = np.zeros((T, nc * q))
    for j in range(q):
        blk = slice(j * nc, (j + 1) * nc)
        for k in range(T - 1):
            out[k + 1, blk] = imc.A_c @ out[k, blk] - imc.B_c[:, 0] * y[k, j]
    return out


def augment_dataset(data, imc):
    """``data`` with the ``loop_filter_imc_states`` of its outputs appended to its
    outputs and states."""
    xc = loop_filter_imc_states(data.y, imc)
    return Dataset(u=data.u, y=np.hstack([data.y, xc]), x=np.hstack([data.x, xc]))


def per_run_monte_carlo(model, signal, depth, runs, noise_variance, base_seed=0,
                        width=None, noise_mode="measurement"):
    """Shifted-observability samples and failure counts, one run at a time.

    Draws each run as ``monte_carlo_obs`` does: ``default_rng(base_seed + r)``,
    then the excitation seed, then the state noise.
    """
    samples = {alg: [] for alg in ALGORITHMS}
    failures = dict.fromkeys(ALGORITHMS, 0)
    for r in range(runs):
        rng = np.random.default_rng(base_seed + r)
        u_seed = int(rng.integers(0, 2 ** 31))
        u = generate_signal(replace(signal, seed=u_seed))
        v = rng.normal(0.0, np.sqrt(noise_variance), size=(len(u), model.E.shape[1]))
        dm = build_data_matrices(loop_simulate(model, u, v=v, noise_mode=noise_mode),
                                 depth, width)
        for alg in ALGORITHMS:
            try:
                if alg == "alg1":
                    obs, _ = estimate_obs_alg1(dm, estimate_predictor(dm)[0])
                else:
                    obs, _ = estimate_obs_alg2(dm)
                samples[alg].append(obs[model.n_outputs:])
            except ValueError:
                failures[alg] += 1
    return samples, failures
