"""Quadrilateral/hexahedral meshes for the solver benchmarks.

Provides periodic rectangle meshes (for conservation and accuracy tests) and
the supersonic channel-with-disc benchmark: a coarse block-structured mesh of
a channel [0,4] x [-1,1] with a disc of radius 0.25 removed at (0.6, 0),
optionally extruded to 3D, plus uniform refinement that snaps new boundary
nodes onto the circular arc.

Cell vertex ordering is counterclockwise for quads and the standard
bottom-face-then-top-face ordering for hexahedra.

Refinement and boundary extraction are table driven: each gathers the node
sets of all child corners (or all cell faces) at once and finds the distinct
sets as the runs of equal rows of one lexicographic sort.  Refinement
numbers the new nodes in order of first appearance over (cell, child,
corner), and boundary faces come in order of first appearance over (cell,
local face).  This is the order a cell-by-cell walk produces; the node ids
fix the Cuthill-McKee order and with it the solver's results, so the
numbering must not change with the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Mesh",
    "rectangle_mesh",
    "cylinder_channel_mesh",
    "refine",
    "boundary_faces",
    "DISC_CENTER",
    "DISC_RADIUS",
]

DISC_CENTER = np.array([0.6, 0.0])
DISC_RADIUS = 0.25
_SNAP_TOL = 1e-9


@dataclass
class Mesh:
    """Unstructured quad/hex mesh.

    points/cells refer to the full (non-identified) node set; periodic
    meshes carry reduced_index, which maps every full node to its
    representative id in [0, n_nodes).  disc holds the (center, radius)
    manifold used for boundary snapping during refinement.  boundary keeps
    what boundary_faces found.
    """

    points: np.ndarray
    cells: np.ndarray
    dim: int
    reduced_index: Optional[np.ndarray] = None
    disc: Optional[tuple] = None
    domain: Optional[tuple] = None
    boundary: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.reduced_index is None:
            self.reduced_index = np.arange(len(self.points))

    @property
    def n_nodes(self) -> int:
        return int(self.reduced_index.max()) + 1


def rectangle_mesh(
    nx: int,
    ny: int,
    x_range=(0.0, 1.0),
    y_range=(0.0, 1.0),
    periodic=(False, False),
) -> Mesh:
    """Tensor-product quad mesh with optional periodic identification."""
    xs = np.linspace(*x_range, nx + 1)
    ys = np.linspace(*y_range, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([X.ravel(), Y.ravel()])

    base = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    cells = np.column_stack([base, base + ny + 1, base + ny + 2, base + 1])

    # periodic identification: wrap the last grid line onto the first
    rep_i = np.arange(nx + 1)
    rep_j = np.arange(ny + 1)
    if periodic[0]:
        rep_i[nx] = 0
    if periodic[1]:
        rep_j[ny] = 0
    rep = rep_i[:, None] * (ny + 1) + rep_j[None, :]
    full_rep = rep.ravel()
    # compress representative ids to a contiguous range
    uniq, reduced = np.unique(full_rep, return_inverse=True)
    return Mesh(
        points=points,
        cells=cells,
        dim=2,
        reduced_index=reduced,
        domain=(x_range, y_range),
    )


def _square_perimeter_ccw(xs, ys):
    """Perimeter node coordinates of the tensor sub-grid, counterclockwise."""
    pts = []
    for x in xs[:-1]:
        pts.append((x, ys[0]))
    for y in ys[:-1]:
        pts.append((xs[-1], y))
    for x in xs[:0:-1]:
        pts.append((x, ys[-1]))
    for y in ys[:0:-1]:
        pts.append((xs[0], y))
    return np.asarray(pts)


def cylinder_channel_mesh(dim: int = 2) -> Mesh:
    """Coarse channel mesh [0,4] x [-1,1] with a disc of radius 0.25 removed.

    The 2D mesh has 104 nodes and 80 cells: a graded tensor grid with the
    block around the disc replaced by a two-ring O-grid.  The 3D variant
    extrudes one cell layer over z in [-1,1], giving 208 nodes.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    xs = np.array([0.0, 0.1, 0.35, 0.6, 0.85, 1.1, 2.0, 3.0, 4.0])
    ys = np.array([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    sq_x = (0.1, 1.1)
    sq_y = (-0.5, 0.5)

    coords = {}
    points = []

    def node(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in coords:
            coords[key] = len(points)
            points.append((x, y))
        return coords[key]

    def inside_square_strict(x, y):
        return sq_x[0] < x < sq_x[1] and sq_y[0] < y < sq_y[1]

    cells = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            if inside_square_strict(cx, cy):
                continue
            cells.append(
                [
                    node(xs[i], ys[j]),
                    node(xs[i + 1], ys[j]),
                    node(xs[i + 1], ys[j + 1]),
                    node(xs[i], ys[j + 1]),
                ]
            )

    # O-grid between the square perimeter and the disc boundary
    sq_xs = xs[(xs >= sq_x[0] - 1e-12) & (xs <= sq_x[1] + 1e-12)]
    sq_ys = ys[(ys >= sq_y[0] - 1e-12) & (ys <= sq_y[1] + 1e-12)]
    perim = _square_perimeter_ccw(sq_xs, sq_ys)
    n_per = len(perim)
    outer = [node(x, y) for x, y in perim]
    center = DISC_CENTER
    mid_ids = []
    circ_ids = []
    for x, y in perim:
        v = np.array([x, y]) - center
        r = np.linalg.norm(v)
        d = v / r
        r_mid = 0.5 * (r + DISC_RADIUS)
        mid_ids.append(node(*(center + r_mid * d)))
        circ_ids.append(node(*(center + DISC_RADIUS * d)))
    for k in range(n_per):
        kn = (k + 1) % n_per
        cells.append([outer[k], outer[kn], mid_ids[kn], mid_ids[k]])
        cells.append([mid_ids[k], mid_ids[kn], circ_ids[kn], circ_ids[k]])

    points = np.asarray(points, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    domain = ((0.0, 4.0), (-1.0, 1.0))

    if dim == 2:
        return Mesh(points=points, cells=cells, dim=2, disc=(DISC_CENTER.copy(), DISC_RADIUS), domain=domain)

    # extrude one layer over z in [-1, 1]
    n = len(points)
    pts3 = np.concatenate(
        [
            np.column_stack([points, np.full(n, -1.0)]),
            np.column_stack([points, np.full(n, 1.0)]),
        ]
    )
    hexes = np.concatenate([cells, cells + n], axis=1)
    return Mesh(
        points=pts3,
        cells=hexes,
        dim=3,
        disc=(DISC_CENTER.copy(), DISC_RADIUS),
        domain=((0.0, 4.0), (-1.0, 1.0), (-1.0, 1.0)),
    )


def _on_disc(points_xy: np.ndarray, disc) -> np.ndarray:
    center, radius = disc
    r = np.linalg.norm(points_xy - center, axis=-1)
    return np.abs(r - radius) < _SNAP_TOL


# child octant corner positions in reference coordinates, per dimension
_REF_CORNERS = {
    2: np.array([(0, 0), (1, 0), (1, 1), (0, 1)]),
    3: np.array(
        [
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (1, 1, 1),
            (0, 1, 1),
        ]
    ),
}


def _parent_table(d: int) -> np.ndarray:
    """table[child, corner]: the parent corners whose mean is that corner of
    that child, padded with 2^d."""
    ref = _REF_CORNERS[d]
    twice = ref[:, None, :] + ref[None, :, :]
    gen = np.all(np.abs(twice[:, :, None, :] - 2 * ref) <= 1, axis=-1)
    return np.where(gen, np.arange(len(ref)), len(ref))


_PARENTS = {d: _parent_table(d) for d in _REF_CORNERS}


def _distinct_sorted(ids: np.ndarray, sentinel: int) -> np.ndarray:
    """Each row's distinct ids ascending, padded with sentinel (> every id).

    Two rows come out equal exactly when they hold the same set of ids.
    """
    keys = np.sort(ids, axis=1)
    repeated = keys[:, 1:] == keys[:, :-1]
    if repeated.any():
        keys[:, 1:][repeated] = sentinel
        keys.sort(axis=1)
    return keys


def _runs(keys: np.ndarray):
    """The rows of keys in lexicographic order, as the stable sort's order
    and a mask of where each run of equal rows starts in it."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    return order, np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1))


def refine(mesh: Mesh) -> Mesh:
    """Split every cell into 2^d children; snap new disc-boundary nodes.

    New nodes are numbered after the old ones in order of first appearance
    over (cell, child, corner).  A new node is the mean of its distinct
    parent nodes, projected radially back onto the disc circle when all of
    them lie on it, keeping the curved boundary under refinement.
    """
    n = len(mesh.points)
    if not np.array_equal(mesh.reduced_index, np.arange(n)):
        raise ValueError("refinement of periodically identified meshes is not supported")
    n_children = 2**mesh.dim
    cells = np.column_stack([mesh.cells, np.full(len(mesh.cells), n)])
    keys = _distinct_sorted(cells[:, _PARENTS[mesh.dim]].reshape(-1, n_children), n)
    ids = keys[:, 0].copy()
    new = np.flatnonzero(keys[:, 1] < n)
    sets = keys[new]
    # the distinct parent sets, numbered by first appearance as a cell walk
    # numbers them: a run of equal sets starts with its first appearance
    order, starts = _runs(sets)
    first = order[starts]
    number = np.empty(len(first), dtype=np.int64)
    number[np.argsort(first)] = np.arange(len(first))
    ids[new[order]] = n + number[np.cumsum(starts) - 1]
    parents = sets[np.sort(first)]

    # the sentinel id n stands for a zero point that lies on the disc
    ext = np.vstack([mesh.points, np.zeros(mesh.points.shape[1])])
    points = ext[parents].sum(axis=1) / (parents < n).sum(axis=1)[:, None]
    if mesh.disc is not None:
        center, radius = mesh.disc
        snap = np.append(_on_disc(mesh.points[:, :2], mesh.disc), True)[parents].all(axis=1)
        v = points[snap, :2] - center
        points[snap, :2] = center + radius * v / np.linalg.norm(v, axis=1, keepdims=True)

    return Mesh(
        points=np.concatenate([mesh.points, points]),
        cells=ids.reshape(-1, n_children),
        dim=mesh.dim,
        disc=mesh.disc,
        domain=mesh.domain,
    )


# local faces of the reference cell, ordered so the induced normal points
# outward; for quads these are edges
_LOCAL_FACES = {
    2: [(0, 1), (1, 2), (2, 3), (3, 0)],
    3: [
        (0, 3, 2, 1),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ],
}


def boundary_faces(mesh: Mesh):
    """Boundary faces with outward normals and measures.

    Returns (faces, normals, measures): faces is an (n_bf, 2 or 4) array of
    full node ids, normals are unit outward vectors, measures are edge
    lengths or face areas (bilinear faces approximated by two triangles).
    The mesh is searched once: the read-only arrays are kept in
    mesh.boundary, which later calls return.
    """
    if mesh.boundary is not None:
        return mesh.boundary
    loc = np.asarray(_LOCAL_FACES[mesh.dim])
    all_faces = mesh.cells[:, loc].reshape(-1, loc.shape[1])
    keys = _distinct_sorted(mesh.reduced_index[all_faces], mesh.n_nodes)
    # a face is on the boundary when no other face has its node set: the
    # runs of length one
    order, starts = _runs(keys)
    starts = np.flatnonzero(starts)
    once = np.sort(order[starts[np.diff(starts, append=len(keys)) == 1]])
    faces = all_faces[once]
    pts = mesh.points[faces]
    if mesh.dim == 2:
        t = pts[:, 1] - pts[:, 0]
        normals = np.column_stack([t[:, 1], -t[:, 0]])
    else:
        normals = 0.5 * np.cross(pts[:, 2] - pts[:, 0], pts[:, 3] - pts[:, 1])
    measures = np.linalg.norm(normals, axis=1)
    normals /= np.where(measures > 0.0, measures, 1.0)[:, None]
    outward = pts.mean(axis=1) - mesh.points[mesh.cells[once // len(loc)]].mean(axis=1)
    normals[np.einsum("ij,ij->i", normals, outward) < 0.0] *= -1.0
    mesh.boundary = (faces, normals, measures)
    for a in mesh.boundary:
        a.flags.writeable = False
    return mesh.boundary
