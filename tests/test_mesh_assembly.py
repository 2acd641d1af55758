"""Meshes, refinement, boundary extraction and the assembled matrices."""

import numpy as np
import pytest

from eulerflow import assembly, mesh, problems
from eulerflow.assembly import assemble
from eulerflow.mesh import (
    DISC_CENTER,
    DISC_RADIUS,
    boundary_faces,
    cylinder_channel_mesh,
    rectangle_mesh,
    refine,
)
from eulerflow.stepper import Solver

import oracles


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----- meshes ----------------------------------------------------------------

def test_rectangle_counts_and_periodicity():
    m = rectangle_mesh(4, 3)
    assert m.n_nodes == 5 * 4
    assert len(m.cells) == 12
    mp = rectangle_mesh(4, 3, periodic=(True, True))
    assert mp.n_nodes == 4 * 3
    assert len(mp.cells) == 12
    # wrapped points map to the same reduced id
    red = mp.reduced_index.reshape(5, 4)
    assert np.array_equal(red[0], red[4])


def test_channel_mesh_node_counts():
    m2 = cylinder_channel_mesh(2)
    assert m2.n_nodes == 104
    assert len(m2.cells) == 80
    m3 = cylinder_channel_mesh(3)
    assert m3.n_nodes == 208
    assert len(m3.cells) == 80


@pytest.mark.parametrize("dim", [2, 3])
def test_refine_multiplies_cells_and_snaps_to_disc(dim):
    m = cylinder_channel_mesh(dim)
    r = refine(m)
    assert len(r.cells) == len(m.cells) * 2**dim
    # nodes flagged on the obstacle circle sit at the exact radius
    center, radius = r.disc
    d = np.linalg.norm(r.points[:, :2] - center, axis=1)
    on_circle = np.abs(d - radius) < 1e-12
    assert on_circle.sum() > 0
    # original circle nodes are preserved
    d0 = np.linalg.norm(m.points[:, :2] - center, axis=1)
    assert (np.abs(d0 - radius) < 1e-12).sum() <= on_circle.sum()


def test_disc_geometry_constants():
    assert np.allclose(DISC_CENTER, [0.6, 0.0])
    assert DISC_RADIUS == 0.25


def test_boundary_faces_unit_square():
    m = rectangle_mesh(3, 3)
    faces, normals, measures = boundary_faces(m)
    assert measures.sum() == pytest.approx(4.0)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    # all outward normals are axis-aligned on a square
    assert np.allclose(np.abs(normals).max(axis=1), 1.0)


def test_boundary_faces_channel_include_obstacle():
    m = cylinder_channel_mesh(2)
    faces, normals, measures = boundary_faces(m)
    centers = np.array([m.points[list(f)].mean(axis=0) for f in faces])
    on_disc = np.linalg.norm(centers - DISC_CENTER, axis=1) < 2 * DISC_RADIUS
    assert on_disc.any()
    # obstacle normals point away from the fluid, toward the disc center
    for f, n in zip(faces[on_disc], normals[on_disc]):
        mid = m.points[list(f)].mean(axis=0)
        assert np.dot(n, DISC_CENTER - mid) > 0.0


def test_refine_rejects_periodic():
    with pytest.raises(ValueError):
        refine(rectangle_mesh(2, 2, periodic=(True, False)))


# ----- vectorized mesh code against the loop references -----------------------

def _close(a, b):
    """Agreement to 4 eps of the largest magnitude: means and norms may round
    differently from the loop code, by an ulp or so."""
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= 4 * np.finfo(np.float64).eps * np.abs(b).max(initial=0.0)


def _check_faces(m):
    faces, normals, measures = boundary_faces(m)
    ref_faces, ref_normals, ref_measures = oracles.boundary_faces_reference(m)
    # the loop code returns shape (0,) when no face is found
    assert len(faces) == len(ref_faces)
    assert np.array_equal(faces.reshape(ref_faces.shape), ref_faces)
    _close(normals.reshape(ref_normals.shape), ref_normals)
    _close(measures, ref_measures)


@pytest.mark.parametrize("dim, levels", [(2, 3), (3, 2)])
def test_refine_and_faces_match_loop_reference(dim, levels):
    m = cylinder_channel_mesh(dim)
    for _ in range(levels):
        r = refine(m)
        ref = oracles.refine_reference(m)
        assert r.n_nodes == ref.n_nodes
        assert np.array_equal(r.cells, ref.cells)
        _close(r.points, ref.points)
        _check_faces(r)
        m = r


def test_boundary_faces_are_searched_once_per_mesh(monkeypatch):
    # the channel problem finds its boundary faces, and the assembly of its
    # mesh reads them from the mesh instead of searching again; the kept
    # arrays cannot be written through
    setup = problems.mach3_channel(2, refine=1)
    found = boundary_faces(setup.mesh)
    assert setup.mesh.boundary is found
    assert not any(a.flags.writeable for a in found)
    refined = refine(setup.mesh)

    def no_search(keys):
        raise AssertionError("the boundary faces were searched again")

    monkeypatch.setattr(mesh, "_runs", no_search)
    assert boundary_faces(setup.mesh) is found
    assemble(setup.mesh)
    # a refined mesh is a new mesh, whose faces are searched anew
    assert refined.boundary is None
    with pytest.raises(AssertionError, match="searched again"):
        boundary_faces(refined)


@pytest.mark.parametrize("nx, ny, x_range, y_range, periodic", [
    (5, 4, (0.0, 1.0), (0.0, 1.0), (False, False)),
    (4, 3, (0.0, 2.0), (-1.0, 1.0), (True, False)),
    (6, 1, (0.0, 1.0), (0.0, 1.0 / 6.0), (False, True)),
    (4, 4, (0.0, 1.0), (0.0, 1.0), (True, True)),
])
def test_rectangle_mesh_matches_loop_reference(nx, ny, x_range, y_range, periodic):
    m = rectangle_mesh(nx, ny, x_range, y_range, periodic)
    assert np.array_equal(m.cells, oracles.rectangle_cells_reference(nx, ny))
    _check_faces(m)


@pytest.mark.parametrize("dim, level", [(2, 2), (3, 1)])
def test_channel_boundary_matches_loop_reference(dim, level):
    setup = problems.mach3_channel(dim, refine=level)
    m = setup.mesh
    is_inflow, is_slip, acc = oracles.channel_boundary_reference(
        m, *boundary_faces(m), x_out=m.domain[0][1]
    )
    bc = setup.boundary
    assert np.array_equal(bc.inflow_nodes, np.nonzero(is_inflow)[0])
    assert np.array_equal(bc.slip_nodes, np.nonzero(is_slip)[0])
    nrm = acc[bc.slip_nodes]
    assert np.array_equal(bc.slip_normals, nrm / np.linalg.norm(nrm, axis=1, keepdims=True))


# ----- assembled matrices -----------------------------------------------------

def _gauss_reference_cell(points, order=5):
    """Independent high-order quadrature of m, c on one bilinear quad."""
    from numpy.polynomial.legendre import leggauss
    g, w = leggauss(order)
    g = 0.5 * (g + 1.0)
    w = 0.5 * w
    m_ref = np.zeros((4, 4))
    c_ref = np.zeros((4, 4, 2))
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def shapes(x, y):
        N = np.array([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y])
        dN = np.array([
            [-(1 - y), -(1 - x)], [(1 - y), -x], [y, x], [-y, (1 - x)],
        ])
        return N, dN

    for gx, wx in zip(g, w):
        for gy, wy in zip(g, w):
            N, dN = shapes(gx, gy)
            J = points.T @ dN
            detJ = np.linalg.det(J)
            grad = dN @ np.linalg.inv(J)
            m_ref += wx * wy * detJ * np.outer(N, N)
            c_ref += wx * wy * detJ * N[:, None, None] * grad[None, :, :]
    return m_ref, c_ref


def test_single_cell_against_independent_quadrature():
    # one skewed quad so the Jacobian is not constant
    pts = np.array([[0.0, 0.0], [1.1, 0.1], [1.3, 0.9], [-0.1, 1.0]])
    m = mesh.Mesh(points=pts, cells=np.array([[0, 1, 2, 3]]), dim=2)
    mat = assemble(m)
    m_ref, c_ref = _gauss_reference_cell(pts)
    for i in range(4):
        for j in range(4):
            sl = slice(mat.indptr[i], mat.indptr[i + 1])
            k = int(np.nonzero(mat.indices[sl] == j)[0][0])
            assert mat.m[sl][k] == pytest.approx(m_ref[i, j], rel=1e-12)
            assert np.allclose(mat.c[sl][k], c_ref[i, j], rtol=1e-12, atol=1e-15)


def test_unit_square_mass_matrix_values():
    # classic Q1 mass matrix of the unit square: (1/36) [[4,2,1,2], ...]
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = mesh.Mesh(points=pts, cells=np.array([[0, 1, 2, 3]]), dim=2)
    mat = assemble(m)
    expect = np.array([[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]) / 36.0
    dense = mat.csr(mat.m).toarray()
    assert np.allclose(dense, expect, rtol=1e-14)


@pytest.mark.parametrize("make", [
    lambda: rectangle_mesh(5, 4),
    lambda: rectangle_mesh(4, 4, periodic=(True, True)),
    lambda: cylinder_channel_mesh(2),
    lambda: cylinder_channel_mesh(3),
])
def test_matrix_invariants(make):
    m = make()
    mat = assemble(m)
    # lumped mass = row sums, total mass = mesh volume
    msum = np.asarray(mat.csr(mat.m).sum(axis=1)).ravel()
    assert np.allclose(msum, mat.m_lumped, rtol=1e-13)
    # c rows sum to zero (partition of unity)
    for k in range(mat.dim):
        rowsum = np.asarray(mat.csr(mat.c[:, k]).sum(axis=1)).ravel()
        assert np.abs(rowsum).max() < 1e-13
    # mass symmetric
    M = mat.csr(mat.m)
    assert abs(M - M.T).max() == 0.0


def test_c_antisymmetric_on_periodic_mesh():
    # a periodic mesh has no boundary: c_ji = -c_ij on every pair
    mat = assemble(rectangle_mesh(4, 4, periodic=(True, True)))
    for k in range(2):
        C = mat.csr(mat.c[:, k])
        assert abs(C + C.T).max() == 0.0


@pytest.mark.parametrize("make", [
    lambda: rectangle_mesh(5, 4),
    lambda: cylinder_channel_mesh(2),
    lambda: cylinder_channel_mesh(3),
    lambda: refine(cylinder_channel_mesh(3)),
])
def test_c_antisymmetric_off_the_boundary(make, monkeypatch):
    # c_ij + c_ji is the boundary integral of phi_i phi_j n, zero unless both
    # nodes lie on the boundary: there c_ij is (c_ij - c_ji) / 2 of the
    # assembled values and c_ji its negation, bit for bit, and a pair of
    # boundary nodes keeps its assembled values (those of an assembly that
    # takes every node for a boundary node).  Every node of the one-layer 3D
    # channel lies on the boundary
    m = make()
    mat = assemble(m)
    monkeypatch.setattr(assembly, "boundary_faces", lambda mesh: (mesh.cells, None, None))
    raw = assemble(m).c
    on_boundary = np.zeros(mat.n, dtype=bool)
    on_boundary[oracles.boundary_faces_reference(m)[0]] = True
    rows = np.repeat(np.arange(mat.n), mat.card)
    mirror = {(i, j): k for k, (i, j) in enumerate(zip(rows, mat.indices))}
    T = np.array([mirror[j, i] for i, j in zip(rows, mat.indices)])
    kept = on_boundary[rows] & on_boundary[mat.indices]
    assert kept.any() and kept.all() == (m.dim == 3 and len(m.cells) == 80)
    assert same_bits(mat.c[kept], raw[kept])
    skewed = ~kept & (mat.indices > rows)
    assert same_bits(mat.c[skewed], 0.5 * (raw[skewed] - raw[T[skewed]]))
    assert same_bits(mat.c[T[skewed]], -mat.c[skewed])
    assert (mat.c[~kept & (mat.indices == rows)] == 0.0).all()
    assert np.abs(mat.c - raw).max() < 1e-15


# every 2D mesh of the tests' problems and two plain rectangles, and 3D meshes
MESHES_2D = {
    **{f"cylinder2d-{r}": lambda r=r: problems.make_problem("cylinder2d", refine=r).mesh
       for r in range(3)},
    **{f"periodic-smooth-{r}": lambda r=r: problems.make_problem("periodic-smooth", refine=r).mesh
       for r in range(2)},
    "sod1d": lambda: problems.make_problem("sod1d").mesh,
    "rectangle": lambda: rectangle_mesh(5, 4),
    "periodic-rectangle": lambda: rectangle_mesh(4, 4, periodic=(True, True)),
}
MESHES_3D = {f"cylinder3d-{r}": lambda r=r: problems.make_problem("cylinder3d", refine=r).mesh
             for r in range(2)}


def element_layout(m):
    """The node ids of the cells, the keys row * n + column of their element
    entries, the pattern and entries of assembly.element_entries, and each
    element value array."""
    cells = m.reduced_index[m.cells]
    keys = cells[:, :, None] * m.n_nodes + cells[:, None, :]
    m_loc, c_loc = assembly.element_matrices(m)
    return keys, assembly.element_entries(cells, m.n_nodes), [m_loc, *c_loc]


@pytest.mark.parametrize("make", [*MESHES_2D.values(), *MESHES_3D.values()],
                         ids=[*MESHES_2D, *MESHES_3D])
def test_entries_sum_their_element_values_left_to_right_in_element_order(make):
    m = make()
    n = m.n_nodes
    keys, (indptr, indices, where, mirror), values = element_layout(m)
    # the pattern is the distinct pairs, ascending by row, then column; where
    # names each element entry's pair, and mirror the pair (j, i) of (i, j)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    pattern = rows * n + indices
    assert np.array_equal(pattern, np.unique(keys))
    assert np.array_equal(pattern[where], keys)
    assert np.array_equal(pattern[mirror], indices.astype(np.int64) * n + rows)
    for v in values:
        want = oracles.summed_in_element_order(keys, v)
        assert same_bits(assembly.summed(where, v, len(indices)),
                         np.array([want[k] for k in pattern.tolist()]))


@pytest.mark.parametrize("make", MESHES_2D.values(), ids=MESHES_2D)
def test_assembly_equals_that_of_scipys_csr_on_2d_meshes(make, monkeypatch):
    # the matrices equal bit for bit those assembled from scipy's COO to CSR
    # conversion of the same element values.  scipy's sort of a row of more
    # than 16 element entries (a node of 5 cells) may reorder duplicates: on
    # cylinder2d refine 0 one diagonal c entry sums to other bits, which
    # c_ii = 0 of the skew-symmetric part then drops
    import scipy.sparse as sp

    m = make()
    n = m.n_nodes
    keys, (indptr, indices, _, _), _ = element_layout(m)
    got = assemble(m)

    def scipy_summed(where, values, nnz):
        csr = sp.coo_matrix((values.ravel(), (keys.ravel() // n, keys.ravel() % n)),
                            shape=(n, n)).tocsr()
        csr.sort_indices()
        assert np.array_equal(csr.indptr, indptr) and np.array_equal(csr.indices, indices)
        return csr.data

    monkeypatch.setattr(assembly, "summed", scipy_summed)
    want = assemble(m)
    for name in ("indptr", "indices", "m", "c", "m_lumped", "inv_m"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("make", [MESHES_2D["cylinder2d-1"], MESHES_2D["sod1d"],
                                  *MESHES_3D.values()], ids=["cylinder2d-1", "sod1d", *MESHES_3D])
def test_element_matrices_equal_their_einsum_form_bitwise(make):
    # the gradients' sums over 2 or 3 terms, added left to right from +0.0,
    # are those np.einsum forms
    m = make()
    m_loc, c_loc = assembly.element_matrices(m)
    want_m, want_c = oracles.element_matrices_einsum(m)
    assert same_bits(m_loc, want_m)
    assert same_bits(np.stack(c_loc, axis=-1), want_c)


def test_a_value_of_minus_zero_alone_sums_to_minus_zero():
    # each sum starts from the entry's first value, not from +0.0
    where = np.array([0, 1, 1, 2, 2])
    got = assembly.summed(where, np.array([-0.0, -0.0, -0.0, -0.0, 0.0]), 3)
    assert same_bits(got, np.array([-0.0, -0.0, 0.0]))


def test_total_mass_is_domain_volume():
    mat = assemble(rectangle_mesh(5, 3, x_range=(0.0, 2.0), y_range=(0.0, 1.5)))
    assert mat.m_lumped.sum() == pytest.approx(3.0, rel=1e-13)


def test_derived_quantities():
    # the correction kernel forms b_ij = delta_ij - m_ij / m_j and
    # b_ji = delta_ij - m_ij / m_i from the one slot m_ij, which needs
    # m_ij = m_ji in the mirror slot; b_ji has vanishing row sums
    # sum_j (delta_ij - m_ij / m_i) = 1 - m_i / m_i on complete (owned) rows
    s = Solver(assemble(rectangle_mesh(6, 6, periodic=(True, True))), ranks=2)
    for rk in s.ranks:
        n_lo = rk.numbering.n_lo
        assert np.array_equal(rk.m_slot, rk.m_slot[rk.cols, rk.trans_slot])
        delta = (rk.cols == np.arange(len(rk.cols))[:, None]).astype(np.float64)
        b_ji = delta - rk.m_slot * rk.inv_m[:, None]
        rowsum = np.where(rk.valid, b_ji, 0.0)[:n_lo].sum(axis=1)
        assert np.abs(rowsum).max() < 1e-13
