"""Conserved-state algebra and equation of state for a polytropic ideal gas.

States are stored array-of-struct: the last axis holds (rho, m_1..m_d, E),
so a field of N nodes in d space dimensions is an (N, d+2) float64 array.
All functions broadcast over leading axes.

Sums over a state or space axis (length 1 to 5) go through component_sum,
which adds the components as whole arrays, left to right in index order.
A numpy reduce over so short an inner axis pays its per-row setup on every
row and runs an order of magnitude slower; the explicit adds give the same
bits as numpy's sum, which adds a short axis in the same order starting
from +0.0.  Kernels that hold the components as separate arrays add them
with sum_left_to_right, which component_sum is built on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GasConstants",
    "AIR",
    "AdmissibilityError",
    "power",
    "set_power_function",
    "n_variables",
    "sum_left_to_right",
    "component_sum",
    "internal_energy",
    "pressure",
    "flux",
    "is_admissible",
]


@dataclass(frozen=True)
class GasConstants:
    """Ratio of specific heats, a finite real number > 1, plus derived constants."""

    gamma: float = 7.0 / 5.0
    gm1: float = field(init=False)
    gp1_inv: float = field(init=False)
    gm1_over_2g: float = field(init=False)
    two_g_over_gm1: float = field(init=False)

    def __post_init__(self):
        gamma = self.gamma
        if not (isinstance(gamma, numbers.Real) and np.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma must be a finite real number > 1, got {gamma!r}")
        object.__setattr__(self, "gm1", self.gamma - 1.0)
        object.__setattr__(self, "gp1_inv", 1.0 / (self.gamma + 1.0))
        object.__setattr__(self, "gm1_over_2g", (self.gamma - 1.0) / (2.0 * self.gamma))
        object.__setattr__(self, "two_g_over_gm1", 2.0 * self.gamma / (self.gamma - 1.0))


AIR = GasConstants()


class AdmissibilityError(ValueError):
    """Raised when a state violates rho > 0 or internal energy > 0."""


# The numpy forms of the kernels (tests/oracles.py) raise to powers in this
# one swappable place; the compiled kernels call np.power's loop instead.
_pow = np.power


def power(x, y):
    """Evaluate x**y through the pluggable power implementation."""
    return _pow(x, y)


def set_power_function(fn=None):
    """Replace the power implementation of power().

    Passing None restores numpy's default.
    """
    global _pow
    _pow = np.power if fn is None else fn


def n_variables(dim: int) -> int:
    return dim + 2


def sum_left_to_right(terms, out=None) -> np.ndarray:
    """terms[0] + terms[1] + ..., added left to right from +0.0.

    terms may be a generator, so that each term is formed only when it is
    added; the sum is written into out when one is given.  The +0.0 start
    makes a sum of negative zeros +0.0, as numpy's sum does, and changes no
    other value.
    """
    terms = iter(terms)
    out = np.add(next(terms), 0.0, out=out)
    for term in terms:
        out += term
    return out


def component_sum(x: np.ndarray, out=None) -> np.ndarray:
    """x[..., 0] + x[..., 1] + ..., added left to right (sum_left_to_right).

    On a last axis shorter than 8 this is numpy's sum over that axis, bit for
    bit: numpy adds so few values in index order.
    """
    return sum_left_to_right((x[..., k] for k in range(x.shape[-1])), out=out)


def _split(U: np.ndarray):
    return U[..., 0], U[..., 1:-1], U[..., -1]


def internal_energy(U: np.ndarray) -> np.ndarray:
    """epsilon = E - |m|^2 / (2 rho)."""
    rho, m, E = _split(U)
    return E - 0.5 * component_sum(m * m) / rho


def pressure(U: np.ndarray, gas: GasConstants = AIR) -> np.ndarray:
    """p = (gamma - 1) * epsilon."""
    return gas.gm1 * internal_energy(U)


def flux(U: np.ndarray, gas: GasConstants = AIR) -> np.ndarray:
    """Euler flux f(U) = (m, v (x) m + p I, v (E + p)), shape (..., d+2, d)."""
    rho, m, E = _split(U)
    d = m.shape[-1]
    v = m / rho[..., None]
    p = pressure(U, gas)
    out = np.empty(U.shape + (d,), dtype=U.dtype)
    out[..., 0, :] = m
    out[..., 1:-1, :] = v[..., :, None] * m[..., None, :]
    for k in range(d):
        out[..., 1 + k, k] += p
    out[..., -1, :] = v * (E + p)[..., None]
    return out


def is_admissible(U: np.ndarray) -> np.ndarray:
    """Pointwise admissibility: rho > 0 and internal energy > 0."""
    return (U[..., 0] > 0.0) & (internal_energy(U) > 0.0)
