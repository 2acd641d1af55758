"""Normalized entropy-viscosity commutator driving the high-order viscosity.

The indicator measures local production of the Harten entropy relative to a
worst-case bound and returns a per-node factor alpha in [0, 1].  Constant or
smooth data yields alpha close to zero; strong shocks yield alpha close to
one.

The commutator's slot sums a and b of each node are formed by step 1's
compiled kernel (rowkernels.flux_contraction) in its one walk over the row's
stencil; the accumulator takes them per row and forms alpha from them.
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
    """Accumulates the commutator sums for one node (or a batch of nodes)."""

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

    def accumulate(self, a: np.ndarray, b: np.ndarray):
        """Add the stencil sums of the nodes, a of the shape of eta_over_rho_i
        and b of U_i: a = sum_j (eta_j / rho_j - eta_i / rho_i) (m_j . c_ij)
        and b = sum_j (f_j - f_i) . c_ij, as rowkernels.flux_contraction
        returns them."""
        if not self._ready:
            raise RuntimeError("accumulate called before reset")
        self.a += a
        self.b += b

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
