"""Normalized entropy-viscosity commutator driving the high-order viscosity.

The indicator measures local production of the Harten entropy relative to a
worst-case bound and returns a per-node factor alpha in [0, 1].  Constant or
smooth data yields alpha close to zero; strong shocks yield alpha close to
one.

The accumulator takes whole stencil blocks as the stepper holds them: the
neighbour axis is the second to last, before the state components, and the
per-neighbour terms are added into the running sums one slot after the other
(a loop over the stencil), so a block of rows gives the bits of a loop over
its nodes.
"""

from __future__ import annotations

import numpy as np

from . import physics
from .physics import AIR, GasConstants, component_sum

__all__ = ["IndicatorAccumulator", "DENOMINATOR_FLOOR"]

# Below this denominator the field is locally constant to machine precision
# and no viscosity is needed.
DENOMINATOR_FLOOR = 1e-300


class IndicatorAccumulator:
    """Accumulates the commutator sums for one node (or a batch of nodes).

    All arrays broadcast over leading axes, so a batch of rows can be
    processed with one accumulator.  Pass the whole stencil: the j-arrays
    have one more axis than the i-arrays, the neighbour axis, which is the
    last one before the state (or space) components: (k, nvar) neighbour
    states for one node, (n, L, nvar) for a batch of n rows of L slots.  A
    neighbour j = i contributes zero.
    """

    def __init__(self, gas: GasConstants = AIR):
        self.gas = gas
        self._ready = False

    def reset(self, U_i: np.ndarray, eta_over_rho_i: np.ndarray):
        """Start the sums of the nodes U_i, whose eta / rho is eta_over_rho_i."""
        self.eor_i = eta_over_rho_i
        self.etaprime_i = physics.harten_entropy_derivative(U_i, self.gas)
        self.a = np.zeros(U_i.shape[:-1], dtype=U_i.dtype)
        self.b = np.zeros(U_i.shape, dtype=U_i.dtype)
        self._ready = True

    def accumulate(
        self, U_j: np.ndarray, c_ij: np.ndarray, eta_over_rho_j: np.ndarray, fdc: np.ndarray,
    ):
        """Add the contributions of the stencil neighbors j along axis -2
        (axis -1 of eta_over_rho_j), one neighbour after the other.

        fdc is the flux contraction (f_j - f_i) . c_ij of every neighbor, of
        the shape of U_j, with the components of each product added left to
        right (physics.component_sum); the stepper passes the contraction
        that rowkernels.flux_contraction writes for the low-order update.
        """
        if not self._ready:
            raise RuntimeError("accumulate called before reset")
        eor_i = np.asarray(self.eor_i)[..., None]
        a_term = (eta_over_rho_j - eor_i) * component_sum(U_j[..., 1:-1] * c_ij)
        for k in range(U_j.shape[-2]):
            self.a += a_term[..., k]
            self.b += fdc[..., k, :]

    def result(self) -> np.ndarray:
        """Normalized ratio alpha = N / D clamped to [0, 1]; 0 when D vanishes."""
        numer = np.abs(
            self.a - component_sum(self.etaprime_i * self.b) + self.eor_i * self.b[..., 0]
        )
        weights = np.abs(self.etaprime_i.copy())
        weights[..., 0] = np.abs(self.etaprime_i[..., 0] - self.eor_i)
        denom = np.abs(self.a) + component_sum(weights * np.abs(self.b))
        safe = np.where(denom > DENOMINATOR_FLOOR, denom, 1.0)
        alpha = np.clip(numer / safe, 0.0, 1.0)
        return np.where(denom > DENOMINATOR_FLOOR, alpha, 0.0)
