"""Local row numbering and the padded slot view of the stencil graph.

`build_pattern` renumbers an assembled CSR pattern, given as any object
with the CSR arrays indptr and indices, with one numpy sort by the key new
row * n + new column, which orders each row's columns by new id and records
every entry's offset in the assembled CSR.  `SparsityPattern.padded`
lays the rows out as a dense (rows, width) slot view for the vectorized
kernels, with the slot of every entry's mirror (j, i) and its CSR offset.
The solver builds one such view of the whole stencil, in global
Cuthill-McKee ids, and `PaddedView.select` cuts each rank's view out of it.
A view holds its indices in the compiled kernels' types: row ids in ROW
(int32) and slot numbers in SLOT (uint8), cast by `narrow`, which raises
instead of wrapping, and `check_width` rejects a view too large for them.

A rank's local rows are its owned rows in the global Cuthill-McKee order,
then its ghost rows in ascending global id.  `renumber` keeps that order and
only moves the exported rows (those other ranks hold as ghosts) to the
front, so the numbering markers satisfy n_e <= n_lo <= n_lr: exported rows
[0, n_e), the other owned rows [n_e, n_lo), ghost rows [n_lo, n_lr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalNumbering",
    "SparsityPattern",
    "PaddedView",
    "ROW",
    "SLOT",
    "narrow",
    "check_width",
    "renumber",
    "build_pattern",
]

# the index types of a padded view: a row id, and a flat slot
# row * width + slot, fit ROW; a slot number and a row length fit SLOT
ROW, SLOT = np.int32, np.uint8


def narrow(values, dtype) -> np.ndarray:
    """values as an array of the integer dtype; raises ValueError where a
    value lies outside its range, where a cast would wrap."""
    values = np.asarray(values)
    info = np.iinfo(dtype)
    if values.size and (values.min() < info.min or values.max() > info.max):
        raise ValueError(f"index values in [{values.min()}, {values.max()}] do not fit "
                         f"{np.dtype(dtype)}")
    return values.astype(dtype)


def check_width(rows: int, width: int):
    """Raise ValueError unless a view of rows rows of width slots fits the
    index types: a row of up to width slots, and every flat slot."""
    if width > np.iinfo(SLOT).max:
        raise ValueError(f"a stencil of {width} slots is wider than the "
                         f"{np.iinfo(SLOT).max} that a slot number of {np.dtype(SLOT)} holds")
    if rows * width > np.iinfo(ROW).max:
        raise ValueError(f"{rows} rows of {width} slots have more flat slots than "
                         f"{np.dtype(ROW)} holds")


@dataclass
class LocalNumbering:
    """Permutation old -> new with the exported / owned / ghost markers."""

    perm: np.ndarray
    inv: np.ndarray
    n_e: int
    n_lo: int
    n_lr: int


def renumber(n_rows: int, export_set, n_owned: int) -> LocalNumbering:
    """Exported owned rows first, then the other owned rows, then the ghosts.

    export_set is an array or list of owned row ids; rows at indices >=
    n_owned are ghost rows.  Every group keeps the relative order of its rows.
    """
    exported = np.zeros(n_owned, dtype=bool)
    exported[np.asarray(export_set, dtype=np.int64)] = True
    inv = np.concatenate([
        np.flatnonzero(exported),
        np.flatnonzero(~exported),
        np.arange(n_owned, n_rows, dtype=np.int64),
    ])
    perm = np.empty(n_rows, dtype=np.int64)
    perm[inv] = np.arange(n_rows)
    return LocalNumbering(
        perm=perm, inv=inv, n_e=int(exported.sum()), n_lo=n_owned, n_lr=n_rows,
    )


@dataclass
class SparsityPattern:
    """CSR pattern in new ids, each row's columns ascending; src is the
    offset of every entry in the CSR the pattern was built from."""

    indptr: np.ndarray
    cols: np.ndarray
    src: np.ndarray

    def padded(self) -> "PaddedView":
        """The (n_rows, width) slot view, width the widest row.

        Raises ValueError when a row lacks its diagonal, when a stored
        (i, j) has no stored mirror (j, i) and when check_width rejects the
        view.
        """
        n, nnz, card = len(self.indptr) - 1, len(self.cols), np.diff(self.indptr)
        width = int(card.max(initial=0))
        check_width(n, width)
        row = np.repeat(np.arange(n, dtype=np.int64), card)
        slot = np.arange(nnz, dtype=np.int64) - self.indptr[row]

        cols = np.repeat(np.arange(n, dtype=np.int64)[:, None], width, axis=1)
        cols[row, slot] = self.cols
        valid = np.zeros((n, width), dtype=bool)
        valid[row, slot] = True

        diag_slot = np.full(n, -1, dtype=np.int64)
        on_diag = self.cols == row
        diag_slot[row[on_diag]] = slot[on_diag]
        if np.any(diag_slot < 0):
            raise ValueError("every stencil must contain its own row")
        src = np.repeat(self.src[self.indptr[:-1] + diag_slot][:, None], width, axis=1)
        src[row, slot] = self.src

        # the entries are sorted by the key row * n + col, so the mirror
        # (j, i) of every (i, j) is one binary search away
        keys = row * n + self.cols
        mirror = self.cols * n + row
        hit = np.minimum(np.searchsorted(keys, mirror), nnz - 1)
        if not np.array_equal(keys[hit], mirror):
            raise ValueError("a stored entry (i, j) has no stored transpose (j, i)")
        trans_slot = np.repeat(np.arange(width, dtype=np.int64)[None, :], n, axis=0)
        trans_slot[row, slot] = slot[hit]
        return PaddedView(
            width=width, cols=narrow(cols, ROW), valid=valid, diag_slot=narrow(diag_slot, SLOT),
            trans_slot=narrow(trans_slot, SLOT), src=src,
        )


def build_pattern(pattern, perm: np.ndarray) -> SparsityPattern:
    """The CSR pattern (any object with indptr and indices) in the ids that
    perm (old id -> new id) gives.

    One sort by the key perm[row] * n + perm[col] orders the rows and each
    row's columns by new id; the sort order is the offset of every entry in
    the pattern.
    """
    indptr = np.asarray(pattern.indptr)
    n = len(indptr) - 1
    perm = np.asarray(perm, dtype=np.int64)
    keys = np.repeat(perm * n, np.diff(indptr)) + perm[pattern.indices]
    src = np.argsort(keys)
    keys = keys[src]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return SparsityPattern(indptr=indptr, cols=keys % n, src=src)


@dataclass
class PaddedView:
    """Dense (n_rows, width) slot view of a pattern for vectorized kernels.

    The mirror of slot (i, s) is slot trans_slot[i, s] of row cols[i, s].
    Padding slots reference the row itself and are their own mirror, so
    gathered state differences and zero-filled matrix values contribute
    exactly zero.
    """

    width: int
    cols: np.ndarray        # (n, width) ROW column ids, pad -> row id
    valid: np.ndarray       # (n, width) bool
    diag_slot: np.ndarray   # (n,) SLOT
    trans_slot: np.ndarray  # (n, width) SLOT
    src: np.ndarray         # (n, width) CSR offset of the entry, pad -> diagonal's

    def select(self, rows: np.ndarray) -> "PaddedView":
        """The view of the given rows, renumbered 0, 1, ... in that order.

        A slot whose column is not among rows becomes a pad where it stands:
        it points at its own row, is its own mirror and takes the diagonal's
        CSR offset.  Every other slot
        keeps its index, so an edge between two selected rows sits in the
        same slot as in self.
        """
        n_sel = len(rows)
        new_id = np.full(len(self.cols), -1, dtype=np.int64)
        new_id[rows] = np.arange(n_sel)
        cols = new_id[self.cols[rows]]
        cut = cols < 0
        cut_rows, cut_slots = np.nonzero(cut)
        cols[cut] = cut_rows
        trans_slot = self.trans_slot[rows]
        trans_slot[cut] = narrow(cut_slots, SLOT)
        diag_slot = self.diag_slot[rows]
        src = self.src[rows]
        src[cut] = src[cut_rows, diag_slot[cut_rows]]
        return PaddedView(
            width=self.width, cols=narrow(cols, ROW), valid=self.valid[rows] & ~cut,
            diag_slot=diag_slot, trans_slot=trans_slot, src=src,
        )
