"""Low-order graph viscosity from a guaranteed maximal wavespeed.

d_ij = max(lambda_ij |c_ij|, lambda_ji |c_ji|), where lambda_ij bounds the
maximal wavespeed of the 1D Riemann problem on (rho, v.n, p) of U_i and U_j
along the unit normal n = n_ij = c_ij / |c_ij| (Guermond & Popov, JCP 2016).
The bound takes the closed-form two-rarefaction star pressure, with its base
clamped at zero so that strongly receding flow gives p* = 0, and no Newton
step, so it is one-sided: never below the exact maximal wavespeed.

Where c_ji is bitwise -c_ij, as the assembly stores every pair with an end
off the boundary, the problem along n_ji is the mirror image of the one
along n_ij, so such an edge evaluates one direction, oriented by pressure,
and every other edge both; the solver's setup lists the edges of two
directions and stores the geometry of their c_ji alone.  A chunk's upper
edges are one compiled call (rowkernels.Binding.wavespeed, from the node
states of step 0 and the gas of the binding), which raises the two pow()
levels of each direction with np.power's own loop.  tests/oracles.py keeps
the numpy form of the bound, which gives the same bits.
"""

from __future__ import annotations

from .physics import AdmissibilityError

__all__ = ["d_ij_low"]


def d_ij_low(bound, e0, e1):
    """d_ij of the upper edges e0:e1 of a bound rank (rowkernels.Binding),
    written into their slots of d and returned as an (e1 - e0,) array.

    Edge e is slot up_slot[e] of row up_row[e] of cols and d, with the
    unit normal and norm of its c_ij in n_up and norm_up (e_1 where a norm
    is 0); an edge listed in two_edge has those of its c_ji in nT_two and
    normT_two.  Raises AdmissibilityError, before anything is written, when
    a node state of step 0 has rho <= 0 or p <= 0.
    """
    out, directions = bound.wavespeed(e0, e1)
    if directions < 0:
        raise AdmissibilityError("projected state requires rho > 0 and p > 0")
    return out
