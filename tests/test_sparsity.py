"""Local renumbering and the padded slot view against a dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from eulerflow import sparsity
from eulerflow.sparsity import build_pattern, renumber

import oracles


def random_stencil_graph(rng, n, extra=3):
    """Symmetric connectivity with full diagonal and varying cardinality."""
    dense = np.eye(n, dtype=bool)
    for i in range(n):
        for j in rng.integers(0, n, rng.integers(1, extra + 1)):
            dense[i, j] = dense[j, i] = True
    return dense


def whole_view(dense, order=None):
    """The padded view of the whole graph in the ids order gives (old id ->
    new id, default the identity), as the solver builds it in global
    Cuthill-McKee ids."""
    order = np.arange(len(dense)) if order is None else order
    return build_pattern(sp.csr_matrix(dense.astype(np.int8)), order).padded()


def slot_view(dense, export_set=(), n_owned=None, order=None):
    """Numbering and slot view of the renumbered rows, selected from the whole
    view as the solver selects a rank's rows; each row's slots are ordered by
    the ids order gives."""
    n = len(dense)
    order = np.arange(n) if order is None else order
    numbering = renumber(n, export_set, n_owned=n if n_owned is None else n_owned)
    return numbering, whole_view(dense, order).select(order[numbering.inv])


def test_roundtrip_against_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(4, 32))
        dense_pat = random_stencil_graph(rng, n)
        n_owned = int(rng.integers(1, n + 1))
        exports = rng.choice(n_owned, int(rng.integers(0, n_owned + 1)), replace=False)
        order = rng.permutation(n)
        width = int(dense_pat.sum(axis=1).max())
        numbering, pv = slot_view(dense_pat, exports, n_owned, order)
        pat_new = dense_pat[np.ix_(numbering.inv, numbering.inv)]
        cols, valid, trans_slot = oracles.slot_view_reference(
            pat_new, order[numbering.inv], width)
        assert pv.width == width
        assert np.array_equal(pv.cols, cols)
        assert np.array_equal(pv.valid, valid)
        assert np.array_equal(pv.trans_slot, trans_slot)
        assert np.array_equal(pv.cols[np.arange(n), pv.diag_slot], np.arange(n))
        # src is the offset of the slot's entry in the input CSR, of the
        # diagonal entry for a pad
        conn = sp.csr_matrix(dense_pat.astype(np.int8))
        entry_row = np.repeat(np.arange(n), np.diff(conn.indptr))
        rows = np.broadcast_to(np.arange(n)[:, None], pv.cols.shape)
        assert np.array_equal(entry_row[pv.src], numbering.inv[rows])
        assert np.array_equal(conn.indices[pv.src], numbering.inv[np.where(valid, pv.cols, rows)])

        rows = np.arange(n)[:, None]
        for ncomp in (1, 2, 4):
            shape = (n, n) if ncomp == 1 else (n, n, ncomp)
            mask = pat_new if ncomp == 1 else pat_new[:, :, None]
            values = rng.normal(size=shape) * mask
            slots = values[rows, pv.cols] * (valid if ncomp == 1 else valid[..., None])
            back = np.zeros_like(values)
            back[np.nonzero(valid)[0], pv.cols[valid]] = slots[valid]
            assert np.array_equal(back, values)
            # the mirror slot holds (j, i)
            mirrored = slots[pv.cols, pv.trans_slot]
            assert np.array_equal(mirrored[valid], values.swapaxes(0, 1)[rows, pv.cols][valid])


def test_row_order_does_not_change_content():
    rng = np.random.default_rng(29)
    dense_pat = random_stencil_graph(rng, 24)
    values = rng.normal(size=(24, 24)) * dense_pat
    outputs = []
    order = rng.permutation(24)
    for exports, n_owned in (((), 24), (np.arange(0, 24, 3), 24), ([17, 2, 7], 18)):
        numbering, pv = slot_view(dense_pat, exports, n_owned, order)
        old_rows = numbering.inv[:, None]
        slots = np.where(pv.valid, values[old_rows, numbering.inv[pv.cols]], 0.0)
        # slot rows in the old row order, columns as old ids
        outputs.append((slots[numbering.perm], numbering.inv[pv.cols][numbering.perm]))
    for slots, cols in outputs[1:]:
        assert np.array_equal(slots, outputs[0][0])
        assert np.array_equal(cols, outputs[0][1])


def test_markers_and_permutation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        n_owned = int(rng.integers(1, n + 1))
        exports = rng.choice(n_owned, int(rng.integers(0, n_owned + 1)), replace=False)
        nb = renumber(n, exports, n_owned=n_owned)
        assert 0 <= nb.n_e <= nb.n_lo <= nb.n_lr == n
        assert nb.n_e == len(exports) and nb.n_lo == n_owned
        # the permutation is a bijection and perm inverts inv
        assert np.array_equal(np.sort(nb.inv), np.arange(n))
        assert np.array_equal(nb.perm[nb.inv], np.arange(n))


def test_padded_view_pads_reference_self():
    rng = np.random.default_rng(55)
    dense_pat = random_stencil_graph(rng, 12)
    pv = whole_view(dense_pat)
    card = dense_pat.sum(axis=1)
    assert pv.width == card.max() > card.min()
    for i in range(12):
        assert pv.valid[i, : card[i]].all()
        assert not pv.valid[i, card[i]:].any()
        assert (pv.cols[i, card[i]:] == i).all()
        assert np.array_equal(pv.trans_slot[i, card[i]:], np.arange(card[i], pv.width))
        assert (pv.src[i, card[i]:] == pv.src[i, pv.diag_slot[i]]).all()
    # the transpose gather is an involution on valid slots
    back_r = pv.cols[pv.cols, pv.trans_slot]
    back_s = pv.trans_slot[pv.cols, pv.trans_slot]
    rows = np.broadcast_to(np.arange(12)[:, None], pv.cols.shape)
    slots = np.broadcast_to(np.arange(pv.width)[None, :], pv.cols.shape)
    assert np.array_equal(back_r[pv.valid], rows[pv.valid])
    assert np.array_equal(back_s[pv.valid], slots[pv.valid])


def test_select_makes_pads_of_the_slots_it_cuts():
    rng = np.random.default_rng(56)
    dense_pat = random_stencil_graph(rng, 16)
    pv = whole_view(dense_pat)
    rows = np.array([9, 2, 14, 5, 0, 7])
    sel = pv.select(rows)
    kept = dense_pat[rows][:, rows]
    for i, old in enumerate(rows):
        cut = ~np.isin(pv.cols[old], rows)
        # a cut slot points at its own row, is its own mirror and takes the
        # diagonal's offset; every other slot stays where it was
        assert np.array_equal(sel.valid[i], pv.valid[old] & ~cut)
        assert (sel.cols[i, cut] == i).all()
        assert np.array_equal(sel.trans_slot[i, cut], np.flatnonzero(cut))
        assert (sel.src[i, cut] == pv.src[old, pv.diag_slot[old]]).all()
        assert np.array_equal(rows[sel.cols[i, ~cut]], pv.cols[old, ~cut])
        assert np.array_equal(sel.src[i, ~cut], pv.src[old, ~cut])
        assert sel.valid[i].sum() == kept[i].sum()


def test_export_rows_come_first():
    exports = np.array([17, 3, 25, 9])
    numbering = renumber(30, exports, n_owned=26)
    assert numbering.n_e == 4 and numbering.n_lo == 26 and numbering.n_lr == 30
    assert np.array_equal(numbering.inv[:4], np.sort(exports))
    # the other owned rows keep their order
    rest = np.setdiff1d(np.arange(26), exports)
    assert np.array_equal(numbering.inv[4:26], rest)
    assert np.array_equal(numbering.perm[numbering.inv], np.arange(30))
    # a row listed for two destination ranks is exported once
    assert renumber(30, [3, 3, 9], n_owned=26).n_e == 2


def test_ghost_rows_keep_identity_order():
    numbering = renumber(20, [13, 0, 5], n_owned=14)
    assert np.array_equal(numbering.inv[14:], np.arange(14, 20))
    assert numbering.n_lo == 14


def test_missing_transpose_entry_rejected():
    dense = np.eye(3, dtype=bool)
    dense[0, 1] = True  # no (1, 0) mirror
    with pytest.raises(ValueError):
        slot_view(dense)


def test_missing_diagonal_rejected():
    dense = np.ones((3, 3), dtype=bool)
    dense[2, 2] = False
    with pytest.raises(ValueError):
        slot_view(dense)


def test_the_view_holds_narrow_indices_cast_without_wrapping():
    # row ids in int32 and slot numbers in uint8, from one checked cast that
    # raises where a value would wrap
    dense = random_stencil_graph(np.random.default_rng(3), 30)
    pv = whole_view(dense)
    sel = pv.select(np.arange(0, 30, 2))
    for view in (pv, sel):
        assert view.cols.dtype == sparsity.ROW == np.int32
        assert view.trans_slot.dtype == view.diag_slot.dtype == sparsity.SLOT == np.uint8
    assert sparsity.narrow(np.array([0, 255]), np.uint8).dtype == np.uint8
    for values, dtype in (([256], np.uint8), ([-1], np.uint8), ([2**31], np.int32),
                          ([-2**31 - 1], np.int32)):
        with pytest.raises(ValueError, match="do not fit"):
            sparsity.narrow(np.array(values), dtype)
    assert sparsity.narrow(np.zeros(0, dtype=np.int64), np.uint8).dtype == np.uint8


def test_views_too_wide_or_too_large_for_the_index_types_are_rejected():
    # a row length up to the width must fit uint8, and every flat slot
    # row * width + slot int32, where the limiter keeps its scratch indices
    sparsity.check_width(2**31 // 255, 255)
    with pytest.raises(ValueError, match="wider than the 255"):
        sparsity.check_width(1, 256)
    with pytest.raises(ValueError, match="flat slots"):
        sparsity.check_width(2**31 // 255 + 1, 255)
    with pytest.raises(ValueError, match="flat slots"):
        sparsity.check_width(2**28, 8)
