"""Convex limiting on density bounds and a specific-entropy minimum.

Given a base state U_i and an update direction P_ij, the limiter returns the
largest step t in [0, 1] (up to a fixed number of bracketing quadratic
Newton iterations) such that U_i + t P_ij stays inside the local density
interval and above the local specific-entropy bound.  The constraint
function

    Psi(U) = rho * eps - phi_min * rho^(gamma+1)

is 3-convex along rays (third derivative of fixed negative sign), which the
quadratic Newton update exploits to keep a valid bracket at all times
(Guermond, Nazarov, Popov & Tomas, SISC 2018).

The compiled limiter (rowkernels.LimiterChunk, rowkernels.c) has one entry
per valid slot whose P is not all +-0, and gives every other valid slot 1.
One C call makes a chunk's entries and tests them at t_R, and each Newton
round is one more, its pow() levels raised by np.power's own loop.
tests/oracles.py keeps the numpy form of the limiter, which gives the same
bits.
"""

from __future__ import annotations

from . import rowkernels
from .physics import AIR

__all__ = ["limiter_compute", "quadratic_newton_step", "PSI_SIGN", "TOL_SCALE"]

# Psi is concave-cubic along rays where the entropy constraint activates.
PSI_SIGN = -1.0
# Relative tolerance on Psi, scaled by the magnitude of rho eps at t = 0.
TOL_SCALE = 1e-10


def limiter_compute(bound, lo, hi, max_newton=2, gas=AIR):
    """Largest admissible step factors l in [0, 1] of the updates
    U[i] + l[i, s] P[i, s] of the valid slots s < card[i] of the rows
    [lo, hi) of a bound rank (rowkernels.Binding), U its U_next, written into
    its l; returns the factors of the chunk's entries.

    First clamps the right bracket endpoint by the density interval
    [rho_min[i], rho_max[i]], then performs up to max_newton bracketing
    quadratic Newton iterations on the entropy constraint with the bound
    phi_min[i].  An entry leaves the iteration when Psi(t_R) >= 0 (l = t_R)
    or Psi(t_L) <= tol (l = t_L), and without Newton iterations takes t_R
    or 0.  A slot whose P is all +-0 takes 1; pads are not written.
    """
    chunk = rowkernels.LimiterChunk(bound, lo, hi)
    chunk.start(TOL_SCALE, max_newton > 0, gas)
    for k in range(max_newton):
        if not chunk.open:
            break
        quadratic_newton_step(chunk, last=k + 1 == max_newton, gas=gas)
    return chunk.factors


def quadratic_newton_step(chunk, last=False, gas=AIR):
    """One bracketing quadratic Newton iteration of the chunk's open
    entries, followed, unless it is the last, by the test at their new t_R;
    returns the number of entries still open."""
    return chunk.round(PSI_SIGN, not last, gas)
