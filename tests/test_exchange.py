"""Simulated-rank partitioning, staging communicator and overlap loop."""

import functools
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


def test_a_delivery_without_sends_is_not_a_sync():
    comm = exchange.Communicator(2)
    applied = []

    def apply(rank, items):
        applied.append(rank)
        return sum(vals.size for _, vals in items)

    comm.deliver(apply)
    comm.stage(0, [])
    comm.stage(1, [])
    comm.deliver(apply)
    assert (comm.sync_count, comm.sync_volume, applied) == (0, 0, [])
    comm.stage(0, [])
    comm.stage(1, [("y", np.arange(3.0))])
    comm.deliver(apply)
    assert (comm.sync_count, comm.sync_volume, applied) == (1, 3, [1])


def test_allreduce_min():
    assert exchange.allreduce_min([3.0, 1.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        exchange.allreduce_min([])


# (n_e, n) of each job: one rank, and three ranks of which one exports no
# row and one has no interior row
JOBS = ([(6, 21)], [(6, 21), (0, 5), (9, 9)])


def run_loop(sizes, workers, sync=True):
    """overlapped_loop over one job per (n_e, n) of sizes at chunk size 4, on
    no pool (workers None) or a pool of that many workers.  Returns the event
    log: ("start", job, lo, hi) and ("end", job, lo, hi) around each chunk,
    ("sync",) for start_sync."""
    log = []

    def body(k, lo, hi):
        log.append(("start", k, lo, hi))
        log.append(("end", k, lo, hi))

    jobs = [(functools.partial(body, k), n_e, n) for k, (n_e, n) in enumerate(sizes)]
    start_sync = functools.partial(log.append, ("sync",)) if sync else None
    if workers is None:
        exchange.overlapped_loop(jobs, start_sync, None, 4)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            exchange.overlapped_loop(jobs, start_sync, pool, 4)
    return log


def rows_run(log, sizes):
    """How often each row of each job ran, from the log's chunk ends."""
    hits = [np.zeros(n, dtype=int) for _, n in sizes]
    for event in log:
        if event[0] == "end":
            _, k, lo, hi = event
            hits[k][lo:hi] += 1
    return hits


@pytest.mark.parametrize("workers", [1, 4])
def test_overlapped_loop_covers_rows_once_and_fires_once(workers):
    # workers 1 runs without a pool
    for sizes in JOBS:
        log = run_loop(sizes, None if workers == 1 else workers)
        assert all((hits == 1).all() for hits in rows_run(log, sizes))
        assert log.count(("sync",)) == 1
        at = log.index(("sync",))
        # before the sync every exported row of every job is done and no
        # interior row has started
        done = rows_run(log[:at], sizes)
        assert all((hits[:n_e] == 1).all() for hits, (n_e, _) in zip(done, sizes))
        assert all(lo < sizes[k][0] for _, k, lo, _ in log[:at])


def chunk_events(ranges):
    """The log of running the chunks of (job, lo, hi) of ranges in order."""
    return [event for k, lo, hi in ranges for s in range(lo, hi, 4)
            for event in (("start", k, s, min(s + 4, hi)), ("end", k, s, min(s + 4, hi)))]


def test_overlapped_loop_sequential_order():
    # without a pool the chunks run in job order, each job's rows ascending;
    # on a pool each batch holds the same chunks
    for sizes in JOBS:
        exported = chunk_events([(k, 0, n_e) for k, (n_e, _) in enumerate(sizes)])
        interior = chunk_events([(k, n_e, n) for k, (n_e, n) in enumerate(sizes)])
        assert run_loop(sizes, None) == exported + [("sync",)] + interior
        log = run_loop(sizes, 4)
        at = log.index(("sync",))
        assert sorted(log[:at]) == sorted(exported)
        assert sorted(log[at + 1:]) == sorted(interior)


def test_overlapped_loop_empty_pre_region_still_fires():
    for workers in (None, 4):
        for sizes in ([(0, 5)], [(0, 5), (0, 0), (0, 9)]):
            log = run_loop(sizes, workers)
            assert log[0] == ("sync",) and log.count(("sync",)) == 1
            assert all((hits == 1).all() for hits in rows_run(log, sizes))
        assert run_loop([], workers) == [("sync",)]


def test_overlapped_loop_without_sync_covers_rows_once_on_a_pool():
    # the solver's phases without a synced array run through this path
    for workers in (None, 4):
        for sizes in ([(0, 37)], [(0, 37), (0, 5), (0, 14)]):
            log = run_loop(sizes, workers, sync=False)
            assert ("sync",) not in log
            assert all((hits == 1).all() for hits in rows_run(log, sizes))
