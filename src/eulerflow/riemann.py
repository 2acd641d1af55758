"""Guaranteed wavespeed upper bound for the 1D Riemann problem.

The bound follows the two-rarefaction approximation: a closed-form star
pressure estimate feeds extreme characteristic speeds that are provably at
least as large as the exact maximal wavespeed.  No Newton refinement of the
star pressure is performed; the estimate is intentionally one-sided.

All functions are vectorized and branch-free (selects instead of branches),
so a batch of state pairs runs with identical control flow per lane.

Directions, momenta and c vectors are handled one component at a time: the
projection and the normalization of c_ij work on per-component arrays of
the batch, such as U[..., 1 + k] and n[..., k], and add them left to right
with physics.sum_left_to_right.  An (E, d) block with d = 1 to 3 would make
every product and sum walk a strided short axis; the per-component arrays
give the same values bit for bit at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import AIR, AdmissibilityError, GasConstants, power, sum_left_to_right

__all__ = [
    "Projected1DState",
    "project",
    "two_rarefaction_pstar",
    "psi",
    "lambda_max",
    "d_ij_low",
]


def _pos(x):
    """Positive part (|x| + x) / 2, evaluated branch-free."""
    return 0.5 * (np.abs(x) + x)


def _neg_magnitude(x):
    """Magnitude of the negative part, (|x| - x) / 2, branch-free."""
    return 0.5 * (np.abs(x) - x)


@dataclass
class Projected1DState:
    """1D state obtained by projecting momentum onto a unit direction.

    The tangential kinetic energy is removed from the total energy, so the
    projected internal energy (and pressure) equals that of the source state.
    """

    rho: np.ndarray
    m: np.ndarray
    E: np.ndarray
    u: np.ndarray
    p: np.ndarray
    c: np.ndarray


def _components(x: np.ndarray) -> list:
    return [x[..., k] for k in range(np.shape(x)[-1])]


def project(U: np.ndarray, n: np.ndarray, gas: GasConstants = AIR) -> Projected1DState:
    """Project a (d+2)-state onto direction n: rho, n.m, E - |m - (n.m)n|^2/(2 rho)."""
    return _project(U, _components(n), gas)


def _project(U: np.ndarray, n: list, gas: GasConstants) -> Projected1DState:
    """project with the direction given as the list of its components."""
    rho = U[..., 0]
    mom = [U[..., 1 + k] for k in range(len(n))]
    E = U[..., -1]
    m_t = sum_left_to_right(m * n_k for m, n_k in zip(mom, n))
    tang = (m - m_t * n_k for m, n_k in zip(mom, n))
    E_t = E - 0.5 * sum_left_to_right(t * t for t in tang) / rho
    u = m_t / rho
    p = gas.gm1 * (E_t - 0.5 * m_t * m_t / rho)
    if np.any(rho <= 0.0) or np.any(p <= 0.0):
        raise AdmissibilityError("projected state requires rho > 0 and p > 0")
    c = np.sqrt(gas.gamma * p / rho)
    return Projected1DState(rho=rho, m=m_t, E=E_t, u=u, p=p, c=c)


def two_rarefaction_pstar(
    Li: Projected1DState, Rj: Projected1DState, gas: GasConstants = AIR
) -> np.ndarray:
    """Closed-form star pressure assuming two rarefaction waves.

    The base of the power is clamped at zero so strongly receding flow
    (near-vacuum) yields p* = 0 instead of a negative base.
    """
    num = Li.c + Rj.c - 0.5 * gas.gm1 * (Rj.u - Li.u)
    den = Li.c * power(Li.p / Rj.p, -gas.gm1_over_2g) + Rj.c
    base = np.maximum(num / den, 0.0)
    return Rj.p * power(base, gas.two_g_over_gm1)


def _f_wave(S: Projected1DState, p: np.ndarray, gas: GasConstants) -> np.ndarray:
    # shock branch for p >= p_tilde, rarefaction branch otherwise
    shock = np.sqrt(2.0) * (p - S.p) / np.sqrt(S.rho * ((gas.gamma + 1.0) * p + gas.gm1 * S.p))
    rare = (power(p / S.p, gas.gm1_over_2g) - 1.0) * (2.0 * S.c / gas.gm1)
    return np.where(p >= S.p, shock, rare)


def psi(
    p: np.ndarray, Li: Projected1DState, Rj: Projected1DState, gas: GasConstants = AIR
) -> np.ndarray:
    """Monotone increasing depressurization function psi(p) = f_i + f_j + u_j - u_i."""
    return _f_wave(Li, p, gas) + _f_wave(Rj, p, gas) + (Rj.u - Li.u)


def _lambda_max_projected(
    Li: Projected1DState, Rj: Projected1DState, gas: GasConstants
) -> np.ndarray:
    p_max = np.maximum(Li.p, Rj.p)
    p_tr = two_rarefaction_pstar(Li, Rj, gas)
    p_star = np.where(psi(p_max, Li, Rj, gas) < 0.0, p_tr, np.minimum(p_max, p_tr))
    gp1_over_2g = (gas.gamma + 1.0) / (2.0 * gas.gamma)
    lam1 = Li.u - Li.c * np.sqrt(1.0 + gp1_over_2g * _pos((p_star - Li.p) / Li.p))
    lam3 = Rj.u + Rj.c * np.sqrt(1.0 + gp1_over_2g * _pos((p_star - Rj.p) / Rj.p))
    return np.maximum(_neg_magnitude(lam1), _pos(lam3))


def lambda_max(
    Ui: np.ndarray, Uj: np.ndarray, n: np.ndarray, gas: GasConstants = AIR
) -> np.ndarray:
    """Upper bound on the maximal wavespeed of the Riemann problem along n."""
    n = _components(n)
    return _lambda_max_projected(_project(Ui, n, gas), _project(Uj, n, gas), gas)


def _unit(c: np.ndarray):
    """Components of c / |c|, e_1 where c = 0, and |c|."""
    c = _components(c)
    norm = np.sqrt(sum_left_to_right(c_k * c_k for c_k in c))
    safe = np.where(norm, norm, 1.0)
    nonzero = norm > 0.0
    n = [np.where(nonzero, c_k / safe, 1.0 if k == 0 else 0.0) for k, c_k in enumerate(c)]
    return n, norm


def d_ij_low(
    Ui: np.ndarray,
    Uj: np.ndarray,
    c_ij: np.ndarray,
    c_ji: np.ndarray,
    gas: GasConstants = AIR,
) -> np.ndarray:
    """Graph viscosity d_ij = max(lambda(n_ij)|c_ij|, lambda(n_ji)|c_ji|).

    Zero-length c vectors contribute zero; the select keeps the control flow
    lane-uniform.
    """
    n_ij, norm_ij = _unit(c_ij)
    n_ji, norm_ji = _unit(c_ji)
    lam_ij = _lambda_max_projected(_project(Ui, n_ij, gas), _project(Uj, n_ij, gas), gas)
    lam_ji = _lambda_max_projected(_project(Uj, n_ji, gas), _project(Ui, n_ji, gas), gas)
    return np.maximum(
        np.where(norm_ij > 0.0, lam_ij * norm_ij, 0.0),
        np.where(norm_ji > 0.0, lam_ji * norm_ji, 0.0),
    )
