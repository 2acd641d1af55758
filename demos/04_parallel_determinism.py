"""Bitwise-deterministic parallel execution.

The solver partitions the Cuthill-McKee row order into simulated ranks with
one ghost layer, exchanges ghost data through a staging communicator,
and overlaps the exchange with the interior row loop.  All configurations
produce bitwise identical states: sums are evaluated slot by slot in a
globally fixed order, and rows are padded to the global maximal cardinality
so reductions see the same operand sequence everywhere.

Run:  python3 demos/04_parallel_determinism.py
"""

import time

import numpy as np

from eulerflow import problems
from eulerflow.assembly import assemble
from eulerflow.stepper import Solver

setup = problems.mach3_channel(dim=2, refine=2)
matrices = assemble(setup.mesh)
print(f"mesh: {matrices.n} nodes; 15 RK steps per configuration\n")

CONFIGS = [
    dict(workers=1, ranks=1),
    dict(workers=4, ranks=1),
    dict(workers=1, ranks=4),
    dict(workers=4, ranks=4),
    dict(workers=4, ranks=4, overlap=False),
]


def run(**kw):
    solver = Solver(matrices, boundary=setup.boundary, chunk_size=256, **kw)
    solver.set_state(setup.U0)
    t0 = time.perf_counter()
    for _ in range(15):
        solver.ssp_rk3_step()
    return solver.get_state(), time.perf_counter() - t0, solver


reference, _, _ = run()
for cfg in CONFIGS:
    state, elapsed, solver = run(**cfg)
    label = (f"workers={cfg['workers']} ranks={cfg['ranks']} "
             f"overlap={'on' if cfg.get('overlap', True) else 'off'}")
    same = np.array_equal(state, reference)
    print(f"{label:36s} {elapsed:6.2f} s  bitwise equal: {same}  "
          f"(ghost syncs: {solver.comm.sync_count}, "
          f"values moved: {solver.comm.sync_volume})")
    assert same
print("\nall configurations reproduce the single-rank run bit for bit")
