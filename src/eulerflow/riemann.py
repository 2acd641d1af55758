"""Low-order graph viscosity from a guaranteed maximal wavespeed.

d_ij = max(lambda_ij |c_ij|, lambda_ji |c_ji|), where lambda_ij bounds the
maximal wavespeed of the 1D Riemann problem on (rho, v.n, p) of U_i and U_j
along the unit normal n = n_ij = c_ij / |c_ij| (Guermond & Popov, JCP 2016).
The bound takes the closed-form two-rarefaction star pressure, with its base
clamped at zero so that strongly receding flow gives p* = 0, and no Newton
step, so it is one-sided: never below the exact maximal wavespeed.

Only v.n depends on the edge: step 0 writes v, p and c of every node.  Where
c_ji is bitwise -c_ij, as the assembly stores every pair with an end off the
boundary, the problem along n_ji is the mirror image of the one along n_ij,
so such an edge evaluates one direction, oriented by pressure so that d_ij
does not depend on which end is the row; every other edge evaluates both.
The compiled stages of rowkernels run the arithmetic over a chunk's upper
edges; the two pow() levels of each direction, (p_L / p_R)^(-(gamma - 1) /
(2 gamma)) and the base to 2 gamma / (gamma - 1), run between them in one
physics.power call each, so a chunk evaluates 2 pow values per direction.
tests/oracles.py keeps the numpy form of the bound, which gives the same
bits.
"""

from __future__ import annotations

from . import rowkernels
from .physics import AIR, AdmissibilityError, power

__all__ = ["d_ij_low"]


def d_ij_low(bound, e0, e1, gas=AIR):
    """d_ij of the upper edges e0:e1 of a bound rank (rowkernels.Binding),
    written into their slots of d and returned as an (e1 - e0,) array.

    Edge e is slot up_slot[e] of row up_row[e] of the padded slot arrays
    cols and d; n_up, norm_up and nT_up, normT_up are the unit normals and
    norms of its c_ij and c_ji, with the unit normal e_1 where a norm is 0.
    The node states vpc of both ends are those step 0's stage wrote.
    Raises AdmissibilityError, before anything is written, when a node
    state has rho <= 0 or p <= 0.
    """
    states, q, bad = bound.wavespeed_project(e0, e1)
    if bad:
        raise AdmissibilityError("projected state requires rho > 0 and p > 0")
    q = power(q, -gas.gm1_over_2g)
    rowkernels.wavespeed_base(states, q, gas)
    q = power(q, gas.two_g_over_gm1)
    return bound.wavespeed_bound(e0, e1, states, q, gas)
