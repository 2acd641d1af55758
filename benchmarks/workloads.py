"""Benchmark workloads and their seeded input generator.

A workload fixes the problem, its refinement and the solver settings.  The
seed only changes the initial data: the solver receives a state array and
never sees the seed.

- ``cyl2d-shock``: Mach 3 flow past a disc, one rank, one worker.  The
  single-threaded baseline; the limiter's Newton loop is busy and stencils
  are padded (ratio about 1.24).
- ``smooth-periodic``: a smooth density wave in a periodic box.  Every
  stencil has 9 entries (no padding), there are no boundaries and the
  limiter mostly exits early; the exact solution gives an accuracy check.
- ``cyl2d-ranks``: the ``cyl2d-shock`` problem on 4 simulated ranks with 2
  worker threads and overlapped ghost exchange.  Same kernels, different
  driving code; its states must be bitwise equal to ``cyl2d-shock``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from eulerflow import problems
from eulerflow.physics import AIR


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    refine: int
    solver: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("cyl2d-shock", "cylinder2d", 4,
                 dict(ranks=1, workers=1, overlap=True, limiter_passes=2)),
        Workload("smooth-periodic", "periodic-smooth", 2,
                 dict(ranks=1, workers=1, overlap=True, limiter_passes=2)),
        Workload("cyl2d-ranks", "cylinder2d", 4,
                 dict(ranks=4, workers=2, overlap=True, limiter_passes=2)),
    ]
}

# the same inputs under both solver settings must give bitwise equal states
BITWISE_PAIRS = {"cyl2d-shock": "cyl2d-ranks", "cyl2d-ranks": "cyl2d-shock"}

# relative density amplitude of the seeded perturbation on the cylinder
CYLINDER_PERTURBATION = 0.02
# the eight reflections/rotations of one advection velocity: every seed
# sees the same speed relative to the grid, so accuracy is comparable
_SMOOTH_SPEEDS = (1.0, 0.5)
_SMOOTH_AMPLITUDE = 0.3


@dataclass
class Inputs:
    """Generated problem: mesh, boundary data and initial states."""

    setup: problems.ProblemSetup
    U0: np.ndarray
    exact: Optional[Callable] = None  # exact(points, t) -> states, when known


def node_points(mesh) -> np.ndarray:
    """Coordinates of each reduced (periodically identified) node."""
    pts = np.zeros((mesh.n_nodes, mesh.dim))
    pts[mesh.reduced_index] = mesh.points
    return pts


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Build the mesh and the seeded initial data of a workload."""
    rng = np.random.default_rng(seed)
    if workload.problem == "cylinder2d":
        setup = problems.make_problem("cylinder2d", refine=workload.refine)
        U0 = _perturbed_channel(setup.U0, node_points(setup.mesh), rng)
        return Inputs(setup=setup, U0=U0)
    if workload.problem == "periodic-smooth":
        velocity, phase = _smooth_parameters(rng)
        setup = problems.periodic_smooth(refine=workload.refine, velocity=velocity)
        exact = _advected_wave(velocity, phase)
        return Inputs(setup=setup, U0=exact(node_points(setup.mesh), 0.0), exact=exact)
    raise ValueError(f"no generator for problem {workload.problem!r}")


def _perturbed_channel(U_ff: np.ndarray, points: np.ndarray, rng) -> np.ndarray:
    """Scale the density by a smooth positive field; keep velocity and pressure."""
    x, y = points[:, 0], points[:, 1]
    wave = np.zeros(len(points))
    for _ in range(3):
        kx, ky = rng.integers(1, 4, size=2)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        wave += np.sin(np.pi * (kx * x / 2.0 + ky * y) + ph)
    scale = 1.0 + CYLINDER_PERTURBATION * wave / 3.0
    U = U_ff.copy()
    rho = U[:, 0] * scale
    vel = U[:, 1:-1] / U[:, :1]
    p = AIR.gm1 * (U[:, -1] - 0.5 * (U[:, 1:-1] * vel).sum(axis=1))
    U[:, 0] = rho
    U[:, 1:-1] = rho[:, None] * vel
    U[:, -1] = p / AIR.gm1 + 0.5 * rho * (vel * vel).sum(axis=1)
    return U


def _smooth_parameters(rng):
    a, b = _SMOOTH_SPEEDS
    if rng.integers(2):
        a, b = b, a
    signs = rng.choice([-1.0, 1.0], size=2)
    velocity = (signs[0] * a, signs[1] * b)
    phase = rng.uniform(0.0, 1.0, size=2)
    return velocity, phase


def _advected_wave(velocity, phase, p0: float = 1.0):
    """Exact solution: a density wave carried at constant velocity and pressure."""
    v = np.asarray(velocity, dtype=np.float64)
    ph = np.asarray(phase, dtype=np.float64)

    def exact(points, t):
        xi = points[:, 0] - v[0] * t + ph[0]
        eta = points[:, 1] - v[1] * t + ph[1]
        rho = 1.0 + _SMOOTH_AMPLITUDE * np.sin(2.0 * np.pi * xi) * np.sin(2.0 * np.pi * eta)
        U = np.zeros((len(points), 4))
        U[:, 0] = rho
        U[:, 1:3] = rho[:, None] * v
        U[:, 3] = p0 / AIR.gm1 + 0.5 * rho * (v @ v)
        return U

    return exact
