"""Precomputation of the stencil-graph matrices of the Q1 discretization.

Assembles, once before the time loop, the consistent mass matrix m_ij, its
lumped diagonal m_i (with precomputed inverse) and the vector-valued matrix
c_ij = integral(phi_i grad phi_j), both on a shared sparsity pattern given
by the node stencil graph.  Quadrature is tensor-product 2-point Gauss,
exact for affine cells.  c_ij + c_ji is the boundary integral of
phi_i phi_j n, exactly zero unless both nodes lie on the boundary; on every
other pair c_ij is stored as (c_ij - c_ji) / 2 and c_ji as its negation, bit
for bit, which the wavespeed (riemann.d_ij_low) relies on to evaluate one
direction of such an edge.

The assembly uses numpy alone.  The pairs of nodes of every cell are the
element entries, in element order (cell, row node, column node); one sort
of their keys row * n + column gives the CSR pattern, with sorted columns,
and the entry of each element entry.  An entry's element values are added
left to right in element order, starting from the first, as scipy's COO to
CSR conversion adds them where its sort keeps that order, which it does on
every 2D mesh tried; so the bits do not depend on a library's sort.  Each
value array is summed on its own, and freed, one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _REF_CORNERS, Mesh, boundary_faces
from .physics import sum_left_to_right

__all__ = ["PrecomputedMatrices", "element_matrices", "element_entries", "summed", "assemble"]


@dataclass
class PrecomputedMatrices:
    """Stencil-graph matrices on a canonical CSR pattern with sorted columns."""

    n: int
    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    m: np.ndarray        # consistent mass, per nnz
    c: np.ndarray        # (nnz, dim)
    m_lumped: np.ndarray  # (n,)
    inv_m: np.ndarray     # (n,)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def card(self) -> np.ndarray:
        return np.diff(self.indptr)

    def csr(self, values: np.ndarray):
        """values on the pattern as a scipy.sparse CSR matrix, for inspection;
        the solver does not need scipy."""
        import scipy.sparse as sp

        return sp.csr_matrix((values, self.indices, self.indptr), shape=(self.n, self.n))


def _quadrature(dim: int):
    g = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    pts = np.stack(np.meshgrid(*([g] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    w = np.full(len(pts), 0.5**dim)
    return pts, w


def _shape_values(dim: int, xi: np.ndarray):
    """Q1 shape values and reference gradients at one point xi."""
    corners = _REF_CORNERS[dim]
    nv = len(corners)
    N = np.ones(nv)
    dN = np.zeros((nv, dim))
    for a, corner in enumerate(corners):
        facs = np.where(corner, xi, 1.0 - xi)
        N[a] = facs.prod()
        for k in range(dim):
            dfac = 1.0 if corner[k] else -1.0
            others = np.delete(facs, k)
            dN[a, k] = dfac * others.prod()
    return N, dN


def element_matrices(mesh: Mesh):
    """m and c of every cell: (m_loc, c_loc), m_loc[m, a, b] the entry of
    the nodes a and b of cell m and c_loc a list of one such array per
    direction.  Raises ValueError for a cell whose Jacobian determinant is
    not positive at a quadrature point."""
    d = mesh.dim
    nv = mesh.cells.shape[1]
    pts_cells = mesh.points[mesh.cells]  # (M, nv, d)
    m_loc = np.zeros((len(mesh.cells), nv, nv))
    c_loc = [np.zeros_like(m_loc) for _ in range(d)]
    for xi, w in zip(*_quadrature(d)):
        N, dN = _shape_values(d, xi)
        J = np.einsum("mak,al->mkl", pts_cells, dN)
        detJ = np.linalg.det(J)
        if np.any(detJ <= 0.0):
            raise ValueError("degenerate cell: non-positive Jacobian determinant")
        Jinv = np.linalg.inv(J)
        # physical gradients sum_l dN[a, l] Jinv[m, l, k], added left to right
        # from +0.0 as np.einsum("al,mlk->mak", dN, Jinv) adds them, at a third
        # of its cost
        grad = sum_left_to_right(dN[None, :, l, None] * Jinv[:, None, l, :] for l in range(d))
        scale = (w * detJ)[:, None, None]
        m_loc += scale * (N[:, None] * N[None, :])
        scale_N = scale * N[None, :, None]
        for k, c_k in enumerate(c_loc):
            c_k += scale_N * grad[:, None, :, k]
    return m_loc, c_loc


def element_entries(cells: np.ndarray, n: int):
    """The CSR pattern of the pairs of nodes of every cell, cells holding
    node ids in [0, n): (indptr, indices, where, mirror), indices sorted
    within each row; where[m, a, b] is the entry of the pair of nodes a and
    b of cell m, and mirror[k] the entry (j, i) of entry k = (i, j)."""
    cells = cells.astype(np.int64)
    keys = (cells[:, :, None] * n + cells[:, None, :]).ravel()
    keys, where = np.unique(keys, return_inverse=True)
    rows = keys // n
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    indices = (keys - rows * n).astype(np.int32)
    where = where.reshape(len(cells), cells.shape[1], -1)
    # the pair (b, a) of a cell is the mirror of its pair (a, b)
    mirror = np.empty(len(keys), dtype=np.int64)
    mirror[where] = where.transpose(0, 2, 1)
    return indptr, indices, where, mirror


def summed(where: np.ndarray, values: np.ndarray, nnz: int) -> np.ndarray:
    """The sum of the values of each entry, where and values of the same
    shape: each entry's values added left to right in their order, from the
    first one on (a start of -0.0 leaves every first value as it is)."""
    out = np.full(nnz, -0.0)
    np.add.at(out, where.ravel(), values.ravel())
    return out


def assemble(mesh: Mesh) -> PrecomputedMatrices:
    """Assemble m_ij, c_ij and the lumped mass over the stencil graph."""
    d = mesh.dim
    red = mesh.reduced_index
    n = mesh.n_nodes
    m_loc, c_loc = element_matrices(mesh)
    indptr, indices, where, mirror = element_entries(red[mesh.cells], n)
    nnz = len(indices)
    m = summed(where, m_loc, nnz)
    del m_loc
    c = np.empty((nnz, d))
    for k in range(d):
        c[:, k] = summed(where, c_loc.pop(0), nnz)
    del where
    # enforce exact symmetry of m
    m = 0.5 * (m + m[mirror])
    rows_of = np.repeat(np.arange(n), np.diff(indptr))
    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[red[boundary_faces(mesh)[0]]] = True
    skew = 0.5 * (c - c[mirror])
    lower = indices < rows_of
    skew[lower] = -skew[mirror[lower]]
    kept = on_boundary[rows_of] & on_boundary[indices]
    skew[kept] = c[kept]
    m_lumped = np.add.reduceat(m, indptr[:-1])
    if np.any(m_lumped <= 0.0):
        raise ValueError("non-positive lumped mass entry")
    return PrecomputedMatrices(
        n=n,
        dim=d,
        indptr=indptr,
        indices=indices,
        m=m,
        c=skew,
        m_lumped=m_lumped,
        inv_m=1.0 / m_lumped,
    )
