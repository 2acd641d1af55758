"""Convex limiting on density bounds and a specific-entropy minimum.

Given a base state U and an update direction P, the limiter returns the
largest step t in [0, 1] (up to a fixed number of bracketing quadratic
Newton iterations) such that U + t P stays inside the local density interval
and above the local specific-entropy bound.  The constraint function

    Psi(U) = rho * eps - phi_min * rho^(gamma+1)

is 3-convex along rays (third derivative of fixed negative sign), which the
quadratic Newton update exploits to keep a valid bracket at all times.

A batch of entries is evaluated together at t_R.  Entries whose step is already
final leave the batch, and the Newton iterations run only on the gathered
operands of the entries still open.  Every operation is elementwise per entry,
so an entry's result does not depend on the batch it was computed in.

Psi along the ray, Psi(U + t P), is evaluated one state component at a
time: each component of U + t P is formed as a 1-D array of the batch and
added into the result, left to right as physics.component_sum adds, with
no (..., d+2) temporary.  The batch's states come in as strided or
broadcast (..., d+2) blocks, and the per-component arrays spare every
operation a walk over that short axis; the values are those of
psi_entropy(U + t[..., None] * P) bit for bit.
"""

from __future__ import annotations

import numpy as np

from .physics import AIR, GasConstants, component_sum, power, sum_left_to_right

__all__ = [
    "psi_entropy",
    "dpsi_dt",
    "quadratic_newton_step",
    "limiter_compute",
    "PSI_SIGN",
    "TOL_SCALE",
]

# Psi is concave-cubic along rays where the entropy constraint activates.
PSI_SIGN = -1.0
# Relative tolerance on Psi, scaled by the magnitude of Psi at t = 0.
TOL_SCALE = 1e-10
_TINY = float(np.finfo(np.float64).tiny)


def _rho_eps(U: np.ndarray) -> np.ndarray:
    rho = U[..., 0]
    mom = U[..., 1:-1]
    E = U[..., -1]
    return rho * E - 0.5 * component_sum(mom * mom)


def psi_entropy(U: np.ndarray, phi_min: np.ndarray, gas: GasConstants = AIR) -> np.ndarray:
    """Psi = rho*eps - phi_min * rho^(gamma+1); nonnegative iff phi(U) >= phi_min."""
    rho = U[..., 0]
    return _rho_eps(U) - phi_min * power(rho, gas.gamma + 1.0)


def _psi_on_ray(
    U: np.ndarray, P: np.ndarray, t: np.ndarray, phi_min: np.ndarray, gas: GasConstants
) -> np.ndarray:
    """psi_entropy(U + t[..., None] * P, phi_min), one component at a time."""
    def at(k):
        return U[..., k] + t * P[..., k]

    rho = at(0)
    mom = (at(k) for k in range(1, U.shape[-1] - 1))
    rho_eps = rho * at(-1) - 0.5 * sum_left_to_right(m * m for m in mom)
    return rho_eps - phi_min * power(rho, gas.gamma + 1.0)


def dpsi_dt(
    U: np.ndarray,
    P: np.ndarray,
    t: np.ndarray,
    phi_min: np.ndarray,
    gas: GasConstants = AIR,
) -> np.ndarray:
    """Closed-form derivative of t -> Psi(U + t P)."""
    V = U + t[..., None] * P
    rho, mom, E = V[..., 0], V[..., 1:-1], V[..., -1]
    rho_p, mom_p, E_p = P[..., 0], P[..., 1:-1], P[..., -1]
    return (
        rho_p * E
        + rho * E_p
        - component_sum(mom * mom_p)
        - phi_min * (gas.gamma + 1.0) * power(rho, gas.gamma) * rho_p
    )


def quadratic_newton_step(t_L, t_R, Psi_L, Psi_R, dPsi_L, dPsi_R, sign=PSI_SIGN):
    """One bracketing quadratic Newton update via divided differences.

    Roundoff safeguards: the discriminant is clamped at zero, endpoints with
    a vanishing denominator are left unchanged, and the new bracket is
    clamped into the old one.
    """
    eps = _TINY * (1.0 + t_R)
    with np.errstate(over="ignore", invalid="ignore"):
        scaling = 1.0 / (t_R - t_L + eps)
        d11 = dPsi_L
        d12 = (Psi_R - Psi_L) * scaling
        d22 = dPsi_R
        d112 = (d12 - d11) * scaling
        d122 = (d22 - d12) * scaling
        lam_L = np.maximum(dPsi_L * dPsi_L - 4.0 * Psi_L * d112, 0.0)
        lam_R = np.maximum(dPsi_R * dPsi_R - 4.0 * Psi_R * d122, 0.0)
        den_L = dPsi_L + sign * np.sqrt(lam_L)
        den_R = dPsi_R + sign * np.sqrt(lam_R)
        new_L = np.where(
            np.abs(den_L) > eps, t_L - 2.0 * Psi_L / np.where(den_L, den_L, 1.0), t_L
        )
        new_R = np.where(
            np.abs(den_R) > eps, t_R - 2.0 * Psi_R / np.where(den_R, den_R, 1.0), t_R
        )
    # collapsed brackets can overflow the divided differences; keep such
    # entries at their old endpoints
    new_L = np.where(np.isfinite(new_L), new_L, t_L)
    new_R = np.where(np.isfinite(new_R), new_R, t_R)
    new_L = np.clip(new_L, t_L, t_R)
    new_R = np.clip(new_R, t_L, t_R)
    # the local quadratic models can cross when Psi is not exactly
    # quadratic; reordering keeps the bracket property
    return np.minimum(new_L, new_R), np.maximum(new_L, new_R)


def limiter_compute(
    U: np.ndarray,
    P: np.ndarray,
    rho_min: np.ndarray,
    rho_max: np.ndarray,
    phi_min: np.ndarray,
    max_newton: int = 2,
    gas: GasConstants = AIR,
) -> np.ndarray:
    """Largest admissible step factor l in [0, 1] for the update U + l P.

    First clamps the right bracket endpoint by the density interval, then
    performs up to max_newton bracketing quadratic Newton iterations on the
    entropy constraint.  An entry leaves the iteration when Psi(t_R) >= 0
    (l = t_R) or Psi(t_L) <= tol (l = t_L); each iteration gathers the entries
    still open and runs the Newton update on those only.  With max_newton = 0
    the test at the density-clamped t_R still runs: l = t_R where
    Psi(t_R) >= 0 and 0 elsewhere.  The factor of each entry is the same as
    with a single entry.

    An entry with P = 0 (of either sign) never reaches a Newton update: its
    factor is t_R where Psi(U) >= 0 and 0 elsewhere, so it depends on its
    base state and bounds alone.
    """
    shape = np.broadcast_shapes(
        U.shape[:-1], P.shape[:-1],
        np.shape(rho_min), np.shape(rho_max), np.shape(phi_min),
    )
    batch_shape = shape or (1,)
    tol = TOL_SCALE * np.abs(_rho_eps(U))
    U, P = (np.broadcast_to(a, batch_shape + a.shape[-1:]) for a in (U, P))
    rho_min, rho_max, phi_min, tol = (
        np.broadcast_to(a, batch_shape) for a in (rho_min, rho_max, phi_min, tol)
    )

    rho_u = U[..., 0]
    rho_p = P[..., 0]
    abs_rho_p = np.maximum(np.abs(rho_p), _TINY)
    t_R = np.ones(batch_shape, dtype=U.dtype)
    # the unselected quotients of entries with a vanishing rho_p may overflow
    with np.errstate(over="ignore"):
        over = rho_u + t_R * rho_p > rho_max
        t_R = np.where(over, np.abs(rho_max - rho_u) / abs_rho_p, t_R)
        under = rho_u + t_R * rho_p < rho_min
        t_R = np.where(under, np.abs(rho_min - rho_u) / abs_rho_p, t_R)
    t_R = np.clip(t_R, 0.0, 1.0)
    t_L = np.zeros_like(t_R)

    # index of the open entries into t_L: all of them (Ellipsis) until the
    # first narrowing, then a tuple of index arrays
    open_ix = ...
    U_o, P_o, phi_o, tol_o, tL, tR = U, P, phi_min, tol, t_L, t_R
    # the test at t_R runs once even without Newton iterations
    for _ in range(max(max_newton, 1)):
        Psi_R = _psi_on_ray(U_o, P_o, tR, phi_o, gas)
        closed = Psi_R >= 0.0
        t_L[open_ix] = np.where(closed, tR, tL)
        if not max_newton:
            break
        open_ix, (U_o, P_o, phi_o, tol_o, tL, tR, Psi_R) = _narrow(
            open_ix, ~closed, U_o, P_o, phi_o, tol_o, tL, tR, Psi_R
        )
        Psi_L = _psi_on_ray(U_o, P_o, tL, phi_o, gas)
        open_ix, (U_o, P_o, phi_o, tol_o, tL, tR, Psi_R, Psi_L) = _narrow(
            open_ix, Psi_L > tol_o, U_o, P_o, phi_o, tol_o, tL, tR, Psi_R, Psi_L
        )
        if tL.size == 0:
            break
        dPsi_L = dpsi_dt(U_o, P_o, tL, phi_o, gas)
        dPsi_R = dpsi_dt(U_o, P_o, tR, phi_o, gas)
        tL, tR = quadratic_newton_step(tL, tR, Psi_L, Psi_R, dPsi_L, dPsi_R)
        t_L[open_ix] = tL
    return t_L.reshape(shape)


def _narrow(open_ix, keep, *operands):
    """Index and gathered operands of the open entries where keep holds."""
    open_ix = np.nonzero(keep) if open_ix is Ellipsis else tuple(ix[keep] for ix in open_ix)
    return open_ix, [a[keep] for a in operands]
