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

The compiled stages of rowkernels (LimiterChunk) walk a chunk's rows one
entry at a time: the density clamp gives t_R, Psi(t_R) >= 0 closes an entry
at t_R, Psi(t_L) <= tol closes it at t_L, and every other entry takes a
Newton step and stays open.  Each pow() level, rho^(gamma+1) in Psi and
rho^gamma in dPsi/dt, runs between two stages as one physics.power call on
the packed densities of the open entries.  A chunk has one entry per valid
slot whose P is not all +-0; every other valid slot takes 1, as its limited
update min(l_ij, l_ji) P_ij and its rescaled P_ij stay +-0 whatever its
factor.  tests/oracles.py keeps the numpy form of the limiter, which gives
the same bits.
"""

from __future__ import annotations

from . import rowkernels
from .physics import AIR, power

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
    or Psi(t_L) <= tol (l = t_L).  With max_newton = 0 the test at the
    density-clamped t_R still runs: l = t_R where Psi(t_R) >= 0 and 0
    elsewhere.  A slot whose P is all +-0 takes 1; pads are not written.
    """
    gp1 = gas.gamma + 1.0
    chunk = rowkernels.LimiterChunk(bound, lo, hi)
    rho_R = chunk.start(TOL_SCALE)
    # the test at t_R runs once even without Newton iterations
    for _ in range(max(max_newton, 1)):
        if not len(rho_R):
            break
        rho_L, rho_LR = chunk.test(power(rho_R, gp1), max_newton > 0)
        if not len(rho_L):
            break
        rho_R = quadratic_newton_step(chunk, power(rho_L, gp1), power(rho_LR, gas.gamma), gas)
    return chunk.scatter()


def quadratic_newton_step(chunk, w_L, g, gas=AIR):
    """One bracketing quadratic Newton iteration of the chunk's open
    entries, w_L their densities at t_L to the power gamma + 1 and g those at
    t_L and then t_R to the power gamma; returns the densities of the entries
    still open at their new t_R."""
    return chunk.newton(w_L, g, gas.gamma + 1.0, PSI_SIGN)
