"""Local row numbering and the padded slot view of the stencil graph.

`build_pattern` gives each row its columns ordered by a sort key, and
`SparsityPattern.padded` lays the rows out as a dense (rows, width) slot view
for the vectorized kernels, with the slot of every entry's mirror (j, i).
The solver builds one such view of the whole stencil, in global
Cuthill-McKee ids, and `PaddedView.select` cuts each rank's view out of it.

A rank's local rows are its owned rows in the global Cuthill-McKee order,
then its ghost rows in ascending global id.  `renumber` keeps that order and
only moves the exported rows (those other ranks hold as ghosts) to the
front, so the numbering markers satisfy n_e <= n_lo <= n_lr: exported rows
[0, n_e), the other owned rows [n_e, n_lo), ghost rows [n_lo, n_lr).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LocalNumbering",
    "SparsityPattern",
    "PaddedView",
    "renumber",
    "build_pattern",
]


@dataclass
class LocalNumbering:
    """Permutation old -> new with the exported / owned / ghost markers."""

    perm: np.ndarray
    inv: np.ndarray
    n_e: int
    n_lo: int
    n_lr: int


def renumber(n_rows: int, export_set=(), n_owned: Optional[int] = None) -> LocalNumbering:
    """Exported owned rows first, then the other owned rows, then the ghosts.

    export_set is an array or list of owned row ids; rows at indices >=
    n_owned are ghost rows.  Every group keeps the relative order of its rows.
    """
    n_owned = n_rows if n_owned is None else n_owned
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
    """CSR pattern over renumbered local rows, columns ordered by a key."""

    numbering: LocalNumbering
    indptr: np.ndarray
    cols: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.numbering.n_lr

    @property
    def nnz(self) -> int:
        return len(self.cols)

    @property
    def card(self) -> np.ndarray:
        return np.diff(self.indptr)

    def padded(self, pad_to: Optional[int] = None) -> "PaddedView":
        """The (n_rows, width) slot view; width is the widest row or pad_to.

        Raises ValueError when pad_to is narrower than the widest row, when
        a row lacks its diagonal, or when a stored (i, j) has no stored
        mirror (j, i).
        """
        n, card = self.n_rows, self.card
        width = int(card.max(initial=0))
        if pad_to is not None:
            if pad_to < width:
                raise ValueError("pad_to smaller than the widest row")
            width = pad_to
        row = np.repeat(np.arange(n, dtype=np.int64), card)
        slot = np.arange(self.nnz, dtype=np.int64) - self.indptr[row]

        cols = np.repeat(np.arange(n, dtype=np.int64)[:, None], width, axis=1)
        cols[row, slot] = self.cols
        valid = np.zeros((n, width), dtype=bool)
        valid[row, slot] = True

        diag_slot = np.full(n, -1, dtype=np.int64)
        on_diag = self.cols == row
        diag_slot[row[on_diag]] = slot[on_diag]
        if np.any(diag_slot < 0):
            raise ValueError("every stencil must contain its own row")

        # the mirror of (i, j) is found among the entries sorted by (row, col)
        keys = row * n + self.cols
        order = np.argsort(keys)
        hit = np.searchsorted(keys[order], self.cols * n + row)
        hit = np.minimum(hit, self.nnz - 1)
        if not np.array_equal(keys[order[hit]], self.cols * n + row):
            raise ValueError("a stored entry (i, j) has no stored transpose (j, i)")
        trans_slot = np.repeat(np.arange(width, dtype=np.int64)[None, :], n, axis=0)
        trans_slot[row, slot] = slot[order[hit]]
        return PaddedView(
            width=width, cols=cols, valid=valid, diag_slot=diag_slot, trans_slot=trans_slot,
        )


def build_pattern(
    connectivity: sp.spmatrix,
    numbering: LocalNumbering,
    col_key: Optional[np.ndarray] = None,
) -> SparsityPattern:
    """Pattern of the connectivity in new ids; each row's columns sorted by col_key.

    connectivity is given in old ids; col_key maps a *new* id to its sort
    key, defaulting to the new id.
    """
    coo = sp.coo_matrix(connectivity)
    n = numbering.n_lr
    if col_key is None:
        col_key = np.arange(n, dtype=np.int64)
    rows = numbering.perm[coo.row]
    cols = numbering.perm[coo.col]
    order = np.lexsort((col_key[cols], rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparsityPattern(numbering=numbering, indptr=indptr, cols=cols[order])


@dataclass
class PaddedView:
    """Dense (n_rows, width) slot view of a pattern for vectorized kernels.

    The mirror of slot (i, s) is slot trans_slot[i, s] of row cols[i, s].
    Padding slots reference the row itself and are their own mirror, so
    gathered state differences and zero-filled matrix values contribute
    exactly zero.
    """

    width: int
    cols: np.ndarray        # (n, width) column ids, pad -> row id
    valid: np.ndarray       # (n, width) bool
    diag_slot: np.ndarray   # (n,)
    trans_slot: np.ndarray  # (n, width)

    def select(self, rows: np.ndarray) -> "PaddedView":
        """The view of the given rows, renumbered 0, 1, ... in that order.

        A slot whose column is not among rows becomes a pad where it stands:
        it points at its own row and is its own mirror.  Every other slot
        keeps its index, so an edge between two selected rows sits in the
        same slot as in self.
        """
        n_sel = len(rows)
        new_id = np.full(len(self.cols), -1, dtype=np.int64)
        new_id[rows] = np.arange(n_sel)
        cols = new_id[self.cols[rows]]
        cut = cols < 0
        cols[cut] = np.nonzero(cut)[0]
        trans_slot = self.trans_slot[rows]
        trans_slot[cut] = np.nonzero(cut)[1]
        return PaddedView(
            width=self.width, cols=cols, valid=self.valid[rows] & ~cut,
            diag_slot=self.diag_slot[rows], trans_slot=trans_slot,
        )
