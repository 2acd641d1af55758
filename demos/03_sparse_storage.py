"""Padded slot view of the stencil graph.

The kernels read every stencil matrix as a dense (rows, width) slot view:
row i lists its columns ordered by node id, and rows shorter than the widest
stencil are padded with slots that point at row i itself and carry zero
values.  One sort of the assembled CSR entries by the key row * n + column
builds the view (the solver sorts by Cuthill-McKee id; this demo keeps the
mesh numbering) and records each slot's offset in the assembled CSR, from
which the matrix values are gathered.  A precomputed mirror slot gives O(1)
access to the entry (j, i) of every stored (i, j), which the solver needs
for the skew-symmetric transport terms and the symmetrized limiter.

Run:  python3 demos/03_sparse_storage.py
"""

import numpy as np

from eulerflow import problems
from eulerflow.assembly import assemble
from eulerflow.mesh import rectangle_mesh
from eulerflow.sparsity import build_pattern

for name, mesh in [
    ("periodic 12 x 12 grid", rectangle_mesh(12, 12, periodic=(True, True))),
    ("12 x 12 grid with boundary", rectangle_mesh(12, 12)),
    ("channel with a disc", problems.mach3_channel(2, refine=1).mesh),
]:
    matrices = assemble(mesh)
    view = build_pattern(matrices.connectivity(), np.arange(matrices.n)).padded()
    card = view.valid.sum(axis=1)
    print(f"{name}: {matrices.n} rows, {matrices.nnz} entries, "
          f"stencil sizes {card.min()}..{card.max()}, width {view.width}, "
          f"padding ratio {view.cols.size / matrices.nnz:.2f}")

# values are gathered into the view through the CSR offsets, pads hold zeros
matrices = assemble(rectangle_mesh(12, 12))
view = build_pattern(matrices.connectivity(), np.arange(matrices.n)).padded()
m_slot = np.where(view.valid, matrices.m[view.src], 0.0)
dense = matrices.csr(matrices.m).toarray()
back = np.zeros_like(dense)
back[np.nonzero(view.valid)[0], view.cols[view.valid]] = m_slot[view.valid]
assert np.array_equal(back, dense)

# mirror lookup: slot (i, s) holds (i, j), slot (j, trans_slot[i, s]) holds (j, i)
i = 0
s = int(np.argmax(view.valid[i] & (view.cols[i] != i)))
j, t = int(view.cols[i, s]), int(view.trans_slot[i, s])
print(f"\nentry ({i},{j}) sits in slot {s} of row {i}; "
      f"its mirror ({j},{i}) sits in slot {t} of row {j}")
assert view.cols[j, t] == i and m_slot[j, t] == dense[j, i]
pad = ~view.valid
assert (view.cols[pad] == np.nonzero(pad)[0]).all() and (m_slot[pad] == 0.0).all()
print("dense round-trip, mirror lookups and pad slots verified bitwise")
