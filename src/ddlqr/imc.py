"""Internal-model controllers and reference-tracking augmentation.

An internal-model controller replicates the reference's signal class inside
the loop (an integrator for steps, a resonator for sinusoids). Filtering the
plant outputs through the controller produces measurable controller states,
and appending them to the plant's outputs and states turns the tracking problem
into a plain state-feedback design on the plant-plus-controller system. The
estimators do not append them to the data: ``append_imc_states`` lifts Hankel rows
of the plant outputs through the filter (see ``markov``). The filter runs every
output channel through the simulators' LTI kernel in one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant_sim import InputError, StateSpaceModel, _apply, _lti_run, as_series


@dataclass
class ImcRealization:
    """State-equation realization (A_c, B_c) of an internal-model controller."""

    A_c: np.ndarray
    B_c: np.ndarray

    def __post_init__(self):
        self.A_c = np.atleast_2d(np.asarray(self.A_c, dtype=float))
        self.B_c = np.asarray(self.B_c, dtype=float).reshape(-1, 1)
        nc = self.A_c.shape[0]
        if self.A_c.shape != (nc, nc):
            raise InputError("A_c", f"must be square, got {self.A_c.shape}")
        if len(self.B_c) != nc:
            raise InputError("B_c", f"has {len(self.B_c)} entries, expected {nc} to match A_c")

    @property
    def order(self) -> int:
        return self.A_c.shape[0]


def integrator_imc() -> ImcRealization:
    """Discrete integrator: x_c(k+1) = x_c(k) + (r(k) - y(k))."""
    return ImcRealization(A_c=[[1.0]], B_c=[1.0])


def resonant_imc(omega_n: float, Ts: float) -> ImcRealization:
    """Resonant controller tuned to omega_n rad/s at sampling time Ts.

    The companion form has characteristic polynomial
    z^2 - 2 cos(omega_n Ts) z + 1, placing both poles on the unit circle at
    the reference frequency.
    """
    if Ts <= 0:
        raise InputError("Ts", "must be positive")
    theta = omega_n * Ts
    if not 0.0 < theta < math.pi:
        side = "at or below zero" if theta <= 0.0 else "at or above Nyquist"
        raise InputError("omega_n", f"* Ts = {theta:.6g} must lie strictly inside (0, pi); the "
                         f"frequency is {side}")
    return ImcRealization(A_c=[[0.0, 1.0], [-1.0, 2.0 * math.cos(theta)]], B_c=[0.0, 1.0])


def filter_imc_states(y, imc: ImcRealization, start=0.0) -> np.ndarray:
    """Open-loop controller states obtained by filtering plant outputs.

    Per output channel j the recursion x_c(k+1) = A_c x_c(k) - B_c y_j(k)
    runs from ``start`` (zero, a zero reference, by default); channel blocks are
    stacked side by side, channel-major. Leading axes of a (..., T, q) ``y`` and of a
    (..., q * order) ``start`` batch series.
    """
    y = as_series(y)
    q, nc = y.shape[-1], imc.order
    start = np.reshape(start, np.shape(start)[:-1] + (q, nc)) if np.ndim(start) else start
    # one run per channel
    xc = _lti_run(imc.A_c, start, -_apply(imc.B_c, np.moveaxis(y, -1, -2)[..., None]))
    return np.moveaxis(xc, -3, -2).reshape(y.shape[:-1] + (q * nc,))


def append_imc_states(rows: np.ndarray, q: int, imc: ImcRealization, start=0.0) -> np.ndarray:
    """Rows [y(0); x_c(0); y(1); x_c(1); ...] from ``rows`` (..., depth * q, m), whose
    block i of q rows is y(i), with x_c the ``filter_imc_states`` of y along the blocks
    from ``start`` ((..., q * order, m); zero by default), each of the m columns apart.
    Every row of the result is a linear combination of ``rows`` and ``start``, so a least
    squares fit on the augmented rows is a lift of one on them."""
    series = np.moveaxis(rows.reshape(rows.shape[:-2] + (-1, q, rows.shape[-1])), -1, -3)
    xc = filter_imc_states(series, imc, np.swapaxes(start, -1, -2) if np.ndim(start) else start)
    lifted = np.concatenate([series, xc], axis=-1)  # (..., m, depth, q * (1 + order))
    return np.moveaxis(lifted, -3, -1).reshape(rows.shape[:-2] + (-1, rows.shape[-1]))


def augment_model(model: StateSpaceModel, imc: ImcRealization) -> StateSpaceModel:
    """Open-loop model of the plant plus one controller copy per output.

    Its state is [x; x_c] with

        A_a = [[A, 0], [-C (x) B_c, I_q (x) A_c]],   B_a = [B; 0],
        C_a = [[C, 0], [0, I]],

    where (x) is the Kronecker product, so the controller block integrates
    -y channel-wise.
    """
    n, p, q = model.n_states, model.n_inputs, model.n_outputs
    nc = imc.order
    na = n + nc * q
    A_a = np.zeros((na, na))
    A_a[:n, :n] = model.A
    A_a[n:, :n] = -np.kron(model.C, imc.B_c)
    A_a[n:, n:] = np.kron(np.eye(q), imc.A_c)
    B_a = np.vstack([model.B, np.zeros((nc * q, p))])
    C_a = np.zeros((q + nc * q, na))
    C_a[:q, :n] = model.C
    C_a[q:, n:] = np.eye(nc * q)
    return StateSpaceModel(A=A_a, B=B_a, C=C_a, sample_time=model.sample_time)
