"""Invariant-domain-preserving collocation solver for the compressible Euler
equations, with convex limiting, graph viscosity, a padded stencil slot
view and simulated-rank ghost exchange."""

from . import (
    assembly,
    config,
    exchange,
    indicator,
    limiter,
    mesh,
    output,
    perf,
    physics,
    problems,
    riemann,
    sparsity,
    stepper,
)
from .physics import AIR, AdmissibilityError, GasConstants
from .stepper import BoundaryConditions, Solver

__version__ = "1.0.0"

__all__ = [
    "assembly", "config", "exchange", "indicator", "limiter", "mesh",
    "output", "perf", "physics", "problems", "riemann", "sparsity", "stepper",
    "AIR", "AdmissibilityError", "GasConstants", "BoundaryConditions",
    "Solver", "__version__",
]
