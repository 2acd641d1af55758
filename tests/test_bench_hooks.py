"""The traced benchmark run still attaches to the solver's layers.

benchmarks/spans.py replaces module attributes and class methods that the
stepper calls; a rename on the solver side would silently leave a layer
untraced.  This takes one traced SSP-RK3 step and checks that every layer
recorded spans and that uninstalling restores the original objects.
"""

import concurrent.futures
import importlib.util
import sys
from pathlib import Path

import numpy as np

from eulerflow import exchange, indicator, limiter, physics, riemann, sparsity, stepper
from eulerflow.assembly import assemble
from eulerflow.mesh import rectangle_mesh

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

TRACED = [
    (sparsity, "renumber"),
    (sparsity, "build_pattern"),
    (sparsity.SparsityPattern, "padded"),
    (exchange, "overlapped_loop"),
    (exchange.Communicator, "deliver"),
    (riemann, "d_ij_low"),
    (indicator.IndicatorAccumulator, "accumulate"),
    (limiter, "limiter_compute"),
    (limiter, "quadratic_newton_step"),
    (stepper, "ThreadPoolExecutor"),
    (concurrent.futures, "ThreadPoolExecutor"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_step_records_every_layer():
    spans = load_spans()
    mat = assemble(rectangle_mesh(6, 6, periodic=(True, True)))
    rng = np.random.default_rng(3)
    U = np.tile([1.0, 0.2, -0.1, 2.5], (mat.n, 1))
    U[:, 0] += 0.2 * rng.random(mat.n)

    originals = [getattr(owner, attr) for owner, attr in TRACED]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        solver = stepper.Solver(mat, ranks=2, workers=2, chunk_size=8)
        solver.set_state(U)
        solver.ssp_rk3_step()
    finally:
        tracer.uninstall()

    calls = tracer.calls()
    # the setup spans that sparsity.build_s sums
    for name in ("sparsity.renumber", "sparsity.build_pattern", "sparsity.padded"):
        assert calls.get(name, 0) > 0, name
    for name in ("exchange.overlapped_loop", "exchange.deliver", "riemann.d_ij_low",
                 "indicator.accumulate", "limiter.limiter_compute",
                 "limiter.quadratic_newton_step"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counts["exchange.doubles"] > 0
    assert tracer.counts["stepper.pools"] == 1
    for (owner, attr), original in zip(TRACED, originals):
        assert getattr(owner, attr) is original, attr
    assert physics._pow is np.power


def test_second_limiter_pass_runs_on_fewer_lanes_than_the_stencil():
    # a limiter pass evaluates the valid slots whose correction is not all
    # +-0: at most the owned off-diagonal valid slots in the first pass, as
    # the diagonal's correction is +0, and fewer in the second, where every
    # slot whose factor was 1 has a zero correction left
    spans = load_spans()
    mat = assemble(rectangle_mesh(6, 6, periodic=(True, True)))
    rng = np.random.default_rng(3)
    U = np.tile([1.0, 0.2, -0.1, 2.5], (mat.n, 1))
    U[:, 0] += 0.2 * rng.random(mat.n)

    lanes = {}
    for passes in (1, 2):
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            solver = stepper.Solver(mat, limiter_passes=passes)
            solver.set_state(U)
            solver.euler_step()
        finally:
            tracer.uninstall()
        lanes[passes] = tracer.counts["limiter.lanes"]
    rk = solver.ranks[0]
    n_lo = rk.numbering.n_lo
    assert lanes[1] <= rk.card[:n_lo].sum() - n_lo
    second = lanes[2] - lanes[1]
    assert 0 < second < lanes[1]
