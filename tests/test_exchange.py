"""Simulated-rank partitioning, staging communicator and overlap loop."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from eulerflow import exchange
from eulerflow.assembly import assemble
from eulerflow.mesh import rectangle_mesh


def test_partition_covers_and_ghosts_match_stencils():
    for m in [rectangle_mesh(8, 8, periodic=(True, True)), rectangle_mesh(8, 7)]:
        conn = assemble(m).connectivity()
        for n_ranks in range(1, 6):
            _check_partition(conn, exchange.partition(conn, n_ranks))


def _check_partition(conn, part):
    covered = np.concatenate([np.arange(s, e) for s, e in part.ranges])
    assert np.array_equal(np.sort(covered), np.arange(part.n))
    # permuted connectivity reproduces the ghost sets
    pm = sp.csr_matrix(
        (np.ones(part.n), (part.cm_perm, np.arange(part.n))), shape=(part.n, part.n)
    )
    conn_cm = (pm @ conn @ pm.T).tocsr()
    for r, (s, e) in enumerate(part.ranges):
        cols = np.unique(conn_cm.indices[conn_cm.indptr[s]:conn_cm.indptr[e]])
        expect = cols[(cols < s) | (cols >= e)]
        assert np.array_equal(part.ghosts[r], expect)
        assert np.all(np.diff(part.ghosts[r]) > 0)


def test_exports_mirror_ghosts():
    mat = assemble(rectangle_mesh(6, 6))
    part = exchange.partition(mat.connectivity(), 3)
    for r in range(3):
        for g in part.ghosts[r]:
            owner = int(part.owner_of(np.array([g]))[0])
            assert owner != r
            assert g in part.exports[owner][r]


def test_owner_of_ranges():
    mat = assemble(rectangle_mesh(5, 5))
    part = exchange.partition(mat.connectivity(), 4)
    for r, (s, e) in enumerate(part.ranges):
        ids = np.arange(s, e)
        assert (part.owner_of(ids) == r).all()


def test_single_rank_has_no_ghosts():
    mat = assemble(rectangle_mesh(4, 4))
    part = exchange.partition(mat.connectivity(), 1)
    assert len(part.ghosts[0]) == 0
    assert part.ranges == [(0, part.n)]


def test_communicator_stage_deliver_counts_volume():
    comm = exchange.Communicator(2)
    comm.stage(0, [("x", np.arange(5.0))])
    comm.stage(1, [("y", np.arange(3.0))])
    seen = []

    def apply(rank, items):
        total = 0
        for name, vals in items:
            seen.append((rank, name))
            total += vals.size
        return total

    comm.deliver(apply)
    assert comm.sync_count == 1
    assert comm.sync_volume == 8
    assert set(seen) == {(0, "x"), (1, "y")}


def test_allreduce_min():
    assert exchange.allreduce_min([3.0, 1.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        exchange.allreduce_min([])


@pytest.mark.parametrize("workers", [1, 4])
def test_overlapped_loop_covers_rows_once_and_fires_once(workers):
    if workers == 1:
        _check_overlapped_loop(None)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        _check_overlapped_loop(pool)


def _check_overlapped_loop(pool):
    n_e, n_lo = 6, 21
    hits = np.zeros(n_lo, dtype=int)
    fired_at = []

    def body(lo, hi):
        hits[lo:hi] += 1

    def sync():
        fired_at.append(hits.copy())

    fired = exchange.overlapped_loop(n_e, n_lo, body, sync,
                                     pool=pool, chunk_size=4)
    assert fired == 1
    assert (hits == 1).all()
    assert len(fired_at) == 1
    snap = fired_at[0]
    # all exported rows were complete when the sync started
    assert (snap[:n_e] == 1).all()


def test_overlapped_loop_sequential_order():
    calls = []
    exchange.overlapped_loop(
        3, 8, lambda lo, hi: calls.append(("body", lo, hi)),
        lambda: calls.append(("sync",)), pool=None, chunk_size=2,
    )
    names = [c[0] for c in calls]
    sync_pos = names.index("sync")
    covered_before = set()
    for c in calls[:sync_pos]:
        covered_before.update(range(c[1], c[2]))
    assert covered_before == set(range(0, 3))
    covered_after = set()
    for c in calls[sync_pos + 1:]:
        covered_after.update(range(c[1], c[2]))
    assert covered_after == set(range(3, 8))


def test_overlapped_loop_empty_pre_region_still_fires():
    calls = []
    fired = exchange.overlapped_loop(0, 5, lambda lo, hi: calls.append((lo, hi)),
                                     lambda: calls.append("sync"), pool=None)
    assert fired == 1
    assert calls == ["sync", (0, 5)]
    assert exchange.overlapped_loop(0, 0, lambda lo, hi: None, None) == 1


def test_overlapped_loop_without_sync_covers_rows_once_on_a_pool():
    # the solver's phases without a synced array run through this path; the
    # lock makes a chunk run twice count twice
    n = 37
    hits = np.zeros(n, dtype=int)
    lock = threading.Lock()

    def body(lo, hi):
        with lock:
            hits[lo:hi] += 1

    with ThreadPoolExecutor(max_workers=4) as pool:
        fired = exchange.overlapped_loop(0, n, body, None, pool=pool, chunk_size=4)
    assert fired == 1
    assert (hits == 1).all()
