"""Normalized entropy-viscosity commutator driving the high-order viscosity.

The indicator measures local production of the Harten entropy relative to a
worst-case bound and returns a per-node factor alpha in [0, 1].  Constant or
smooth data yields alpha close to zero; strong shocks yield alpha close to
one.

Its row work is compiled, its one pow() included: step 0's kernel forms
the rows' eta' scale (rho eps)^(-gamma / (gamma + 1)) / (gamma + 1);
step 1's kernel (rowkernels.Binding.flux_contraction) forms the
commutator's slot sums a and b of each row in its one walk over the row's
stencil; the accumulator adds them per row, and its result is one more
compiled walk over the rows (rowkernels.Binding.indicator).
tests/oracles.py keeps the numpy form of alpha, which gives the same bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IndicatorAccumulator", "DENOMINATOR_FLOOR"]

# Below this denominator the field is locally constant to machine precision
# and no viscosity is needed.
DENOMINATOR_FLOOR = 1e-300


class IndicatorAccumulator:
    """Accumulates the commutator sums of the rows [lo, hi) of a bound rank."""

    def __init__(self):
        self._ready = False

    def reset(self, bound, lo, hi):
        """Start the sums of the rows [lo, hi) of bound (rowkernels.Binding),
        whose U, eta / rho (eor) and eta' scale (eta_scale) it holds."""
        self.bound, self.rows = bound, (lo, hi)
        self.a = np.zeros(hi - lo)
        self.b = np.zeros((hi - lo, bound.nvar))
        self._ready = True

    def accumulate(self, a: np.ndarray, b: np.ndarray):
        """Add the stencil sums of the rows, a of shape (rows,) and b of
        (rows, nvar): a = sum_j (eta_j / rho_j - eta_i / rho_i) (m_j . c_ij)
        and b = sum_j (f_j - f_i) . c_ij, as flux_contraction returns them."""
        if not self._ready:
            raise RuntimeError("accumulate called before reset")
        self.a += a
        self.b += b

    def result(self) -> np.ndarray:
        """Normalized ratio alpha = N / D clamped to [0, 1], 0 when D vanishes,
        written into the rows' alpha; returns a view of those entries."""
        lo, hi = self.rows
        self.bound.indicator(lo, hi, self.a, self.b, DENOMINATOR_FLOOR)
        return self.bound.arrays["alpha"][lo:hi]
