"""Simulated-rank partitioning, ghost synchronization and the overlapped loop.

Ranks are simulated in-process: the index range (in Cuthill-McKee order) is
split into contiguous owned ranges, each rank additionally holding one ghost
layer of locally relevant indices.  A sync is a start and a finish, as in a
message-passing backend without network transport: `Communicator.stage`
snapshots what a rank sends, and `Communicator.deliver` copies every staged
send into ghost storage and counts the volume for the performance report.
`overlapped_loop` is the solver's one row loop, one call per phase over
every rank: it runs the rows other ranks need on all ranks as one batch,
starts the sync of all ranks, then runs the interior rows of all ranks as a
second batch on the caller's worker pool while the sync is in flight;
without a sync the first batch is empty.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "Partition",
    "partition",
    "Communicator",
    "allreduce_min",
    "overlapped_loop",
]


@dataclass
class Partition:
    """Contiguous split of the Cuthill-McKee order into simulated ranks.

    All index sets are expressed in the permuted (CM) numbering; cm_perm maps
    original ids to CM ids.
    """

    n: int
    n_ranks: int
    cm_perm: np.ndarray                 # original -> cm id
    cm_inv: np.ndarray                  # cm id -> original
    ranges: List[tuple]                 # per rank (start, end) in cm ids
    ghosts: List[np.ndarray]            # per rank, sorted ascending cm ids
    exports: List[Dict[int, np.ndarray]]  # per rank: dest rank -> owned cm ids

    def owner_of(self, cm_ids: np.ndarray) -> np.ndarray:
        starts = np.array([s for s, _ in self.ranges])
        return np.searchsorted(starts, cm_ids, side="right") - 1


def partition(connectivity: sp.spmatrix, n_ranks: int) -> Partition:
    """Balanced contiguous split of the CM order with one ghost layer."""
    if n_ranks < 1:
        raise ValueError("rank count must be >= 1")
    conn = sp.csr_matrix(connectivity)
    n = conn.shape[0]
    sym = (conn + conn.T).tocsr()
    rcm = reverse_cuthill_mckee(sym, symmetric_mode=True)
    cm_inv = np.asarray(rcm[::-1], dtype=np.int64)
    cm_perm = np.empty(n, dtype=np.int64)
    cm_perm[cm_inv] = np.arange(n)

    base, extra = divmod(n, n_ranks)
    ranges = []
    start = 0
    for r in range(n_ranks):
        size = base + (1 if r < extra else 0)
        ranges.append((start, start + size))
        start += size

    # ghosts: columns of the owned rows that lie outside the owned range
    ghosts = []
    for s, e in ranges:
        cols = np.unique(cm_perm[conn[cm_inv[s:e]].indices])
        ghosts.append(cols[(cols < s) | (cols >= e)])

    part = Partition(
        n=n,
        n_ranks=n_ranks,
        cm_perm=cm_perm,
        cm_inv=cm_inv,
        ranges=ranges,
        ghosts=ghosts,
        exports=[dict() for _ in range(n_ranks)],
    )
    for r, gh in enumerate(ghosts):
        owners = part.owner_of(gh)
        for owner in np.unique(owners):
            part.exports[int(owner)][r] = gh[owners == owner]
    return part


class Communicator:
    """Staged sync over simulated ranks.

    Staged sends support the communication-hiding loop split: `stage`
    snapshots the exported values, `deliver` copies them into ghost storage.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.sync_count = 0
        self.sync_volume = 0
        self._staged: Dict[int, list] = {}
        self._lock = threading.Lock()

    def stage(self, rank: int, items: list):
        """Snapshot exported values of one rank (the 'send')."""
        with self._lock:
            self._staged[rank] = items

    def deliver(self, apply_fn: Callable[[int, list], int]):
        """Apply all staged sends; apply_fn returns the copied element count.
        The delivery counts as a sync when some rank staged a send."""
        sent = False
        for rank in range(self.n_ranks):
            items = self._staged.pop(rank, None)
            if not items:
                continue
            sent = True
            self.sync_volume += apply_fn(rank, items)
        self.sync_count += sent


def allreduce_min(values) -> float:
    """Minimum over per-rank values, identical on every rank."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("allreduce over empty value set")
    return float(arr.min())


def overlapped_loop(
    jobs: List[Tuple[Callable[[int, int], None], int, int]],
    start_sync: Optional[Callable[[], None]],
    pool: Optional[Executor],
    chunk_size: int,
):
    """One phase's row loop over every rank, with communication hiding.

    jobs holds one (body, n_e, n) per rank.  The chunks of rows [0, n_e) of
    every job run as one batch, then start_sync is called once (unless it
    is None), then the chunks of rows [n_e, n) of every job run as a second
    batch.  A batch is one pool.map when a pool is given, and runs in order
    otherwise.
    """

    def run(chunk):
        body, lo, hi = chunk
        body(lo, hi)

    def batch(ranges):
        chunks = [(body, s, min(s + chunk_size, hi))
                  for body, lo, hi in ranges for s in range(lo, hi, chunk_size)]
        list((map if pool is None else pool.map)(run, chunks))

    batch([(body, 0, n_e) for body, n_e, _ in jobs])
    if start_sync is not None:
        start_sync()
    batch([(body, n_e, n) for body, n_e, n in jobs])
