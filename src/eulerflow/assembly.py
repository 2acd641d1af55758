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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _REF_CORNERS, Mesh, boundary_faces

__all__ = ["PrecomputedMatrices", "assemble"]


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

    def connectivity(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (np.ones(self.nnz, dtype=np.int8), self.indices, self.indptr), shape=(self.n, self.n)
        )

    def csr(self, values: np.ndarray) -> sp.csr_matrix:
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


def assemble(mesh: Mesh) -> PrecomputedMatrices:
    """Assemble m_ij, c_ij and the lumped mass over the stencil graph."""
    d = mesh.dim
    cells = mesh.cells
    red = mesh.reduced_index
    n = mesh.n_nodes
    nv = cells.shape[1]
    pts_cells = mesh.points[cells]  # (M, nv, d)

    qpts, qw = _quadrature(d)
    rows = np.repeat(red[cells], nv, axis=1).ravel()
    cols = np.tile(red[cells], (1, nv)).ravel()

    m_loc = np.zeros((len(cells), nv, nv))
    c_loc = np.zeros((len(cells), nv, nv, d))
    for xi, w in zip(qpts, qw):
        N, dN = _shape_values(d, xi)
        J = np.einsum("mak,al->mkl", pts_cells, dN)
        detJ = np.linalg.det(J)
        if np.any(detJ <= 0.0):
            raise ValueError("degenerate cell: non-positive Jacobian determinant")
        Jinv = np.linalg.inv(J)
        grad = np.einsum("al,mlk->mak", dN, Jinv)  # physical gradients
        scale = (w * detJ)[:, None, None]
        m_loc += scale * (N[:, None] * N[None, :])
        c_loc += scale[..., None] * N[None, :, None, None] * grad[:, None, :, :]

    shape = (n, n)
    m_mat = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    c_mats = [
        sp.coo_matrix((c_loc[..., k].ravel(), (rows, cols)), shape=shape).tocsr()
        for k in range(d)
    ]
    del m_loc, c_loc, rows, cols
    for mat in [m_mat] + c_mats:
        mat.sort_indices()

    indptr = m_mat.indptr.copy()
    indices = m_mat.indices.copy()
    for mat in c_mats:
        if not (np.array_equal(mat.indptr, indptr) and np.array_equal(mat.indices, indices)):
            raise AssertionError("assembled matrices disagree on the sparsity pattern")
    # the pattern is symmetric, so its transpose, with the entries numbered,
    # has the same sorted pattern and holds the number of each entry's mirror
    mirror = sp.csr_matrix((np.arange(len(indices)), indices, indptr), shape=shape).T.tocsr().data
    # enforce exact symmetry of m
    m = 0.5 * (m_mat.data + m_mat.data[mirror])
    c = np.stack([mat.data for mat in c_mats], axis=-1)
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

