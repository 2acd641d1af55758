"""Ready-made problem setups: meshes, initial data and boundary conditions."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import mesh as meshmod
from .mesh import Mesh
from .physics import AIR, GasConstants
from .stepper import BoundaryConditions

__all__ = ["PROBLEMS", "ProblemSetup", "make_problem", "mach3_channel", "periodic_smooth", "sod1d"]

_GEOM_TOL = 1e-9


@dataclass
class ProblemSetup:
    name: str
    mesh: Mesh
    U0: np.ndarray                      # per reduced node
    boundary: Optional[BoundaryConditions]
    exact: Optional[Callable] = None    # exact(points, t) -> states, when known


def _farfield(dim: int, gas: GasConstants) -> np.ndarray:
    """Mach 3 flow in +x: rho = 1.4, p = 1, |u| = 3 (unit sound speed)."""
    rho, u, p = 1.4, 3.0, 1.0
    U = np.zeros(dim + 2)
    U[0] = rho
    U[1] = rho * u
    U[-1] = p / gas.gm1 + 0.5 * rho * u * u
    return U


def mach3_channel(dim: int = 2, refine: int = 0, gas: GasConstants = AIR) -> ProblemSetup:
    """Supersonic channel flow past a disc-shaped obstacle.

    Inflow nodes (x = 0) carry the farfield state, the outflow (x = 4) is
    left free, and all remaining boundary nodes are slip walls with
    measure-weighted nodal normals.
    """
    m = meshmod.cylinder_channel_mesh(dim)
    for _ in range(refine):
        m = meshmod.refine(m)
    faces, normals, measures = meshmod.boundary_faces(m)
    red = m.reduced_index
    x_out = m.domain[0][1] if m.domain else 4.0
    fx = m.points[faces, 0]
    inflow = np.all(fx < _GEOM_TOL, axis=1)
    # faces on the outflow are left free (do-nothing)
    slip = ~inflow & ~np.all(fx > x_out - _GEOM_TOL, axis=1)

    n_nodes = m.n_nodes
    is_inflow = np.zeros(n_nodes, dtype=bool)
    is_inflow[red[faces[inflow]]] = True
    is_slip = np.zeros(n_nodes, dtype=bool)
    is_slip[red[faces[slip]]] = True
    is_slip &= ~is_inflow
    # np.add.at adds face after face, so each nodal sum keeps the face order
    acc = np.zeros((n_nodes, m.dim))
    np.add.at(acc, red[faces[slip]], (measures[slip, None] * normals[slip])[:, None, :])
    slip_nodes = np.nonzero(is_slip)[0]
    nrm = acc[slip_nodes]
    length = np.linalg.norm(nrm, axis=1, keepdims=True)
    nrm = nrm / np.where(length > 0.0, length, 1.0)

    ff = _farfield(m.dim, gas)
    bc = BoundaryConditions(
        inflow_nodes=np.nonzero(is_inflow)[0],
        farfield=ff,
        slip_nodes=slip_nodes,
        slip_normals=nrm,
    )
    U0 = np.tile(ff, (n_nodes, 1))
    return ProblemSetup(name=f"cylinder{m.dim}d", mesh=m, U0=U0, boundary=bc)


def periodic_smooth(
    n: int = 32,
    refine: int = 0,
    velocity=(1.0, 0.5),
    gas: GasConstants = AIR,
) -> ProblemSetup:
    """Smooth density wave advected through a fully periodic unit box.

    With constant velocity and constant pressure the density is transported
    exactly, giving a closed-form reference solution for accuracy studies.
    """
    n = n * (2**refine)
    m = meshmod.rectangle_mesh(n, n, periodic=(True, True))
    v = np.asarray(velocity, dtype=np.float64)
    p0 = 1.0

    def density(points, t):
        xi = points[:, 0] - v[0] * t
        eta = points[:, 1] - v[1] * t
        return 1.0 + 0.3 * np.sin(2.0 * np.pi * xi) * np.sin(2.0 * np.pi * eta)

    def exact(points, t):
        rho = density(points, t)
        U = np.zeros((len(points), 4))
        U[:, 0] = rho
        U[:, 1] = rho * v[0]
        U[:, 2] = rho * v[1]
        U[:, 3] = p0 / gas.gm1 + 0.5 * rho * (v @ v)
        return U

    rep_pts = np.zeros((m.n_nodes, 2))
    rep_pts[m.reduced_index] = m.points
    U0 = exact(rep_pts, 0.0)
    return ProblemSetup(
        name="periodic-smooth", mesh=m, U0=U0, boundary=None, exact=exact
    )


def sod1d(n: int = 100, refine: int = 0, gas: GasConstants = AIR) -> ProblemSetup:
    """Classic shock tube as a y-periodic strip of quads."""
    n = n * (2**refine)
    m = meshmod.rectangle_mesh(n, 1, x_range=(0.0, 1.0), y_range=(0.0, 1.0 / n),
                               periodic=(False, True))
    rep_pts = np.zeros((m.n_nodes, 2))
    rep_pts[m.reduced_index] = m.points
    left = rep_pts[:, 0] < 0.5
    U0 = np.zeros((m.n_nodes, 4))
    U0[:, 0] = np.where(left, 1.0, 0.125)
    U0[:, 3] = np.where(left, 1.0, 0.1) / gas.gm1
    return ProblemSetup(name="sod1d", mesh=m, U0=U0, boundary=None)


# the named problems, each a factory that takes refine= and gas=
PROBLEMS = {
    "cylinder2d": functools.partial(mach3_channel, 2),
    "cylinder3d": functools.partial(mach3_channel, 3),
    "periodic-smooth": periodic_smooth,
    "sod1d": sod1d,
}


def make_problem(name: str, refine: int = 0, gas: GasConstants = AIR) -> ProblemSetup:
    if name not in tuple(PROBLEMS):
        raise ValueError(f"unknown problem {name!r}, choose from {tuple(PROBLEMS)}")
    return PROBLEMS[name](refine=refine, gas=gas)
