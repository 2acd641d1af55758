"""Checks of the benchmark's seeded input generator and span arithmetic."""

import dataclasses

import numpy as np
import pytest

from eulerflow import physics

import spans
import workloads


def _small(name):
    # the generator does not depend on the refinement level; keep tests quick
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, refine=min(w.refine, 2))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_bitwise_identical_inputs(name):
    a = workloads.make_inputs(_small(name), seed=7)
    b = workloads.make_inputs(_small(name), seed=7)
    assert a.U0.tobytes() == b.U0.tobytes()
    other = workloads.make_inputs(_small(name), seed=8)
    assert a.U0.tobytes() != other.U0.tobytes()


@pytest.mark.parametrize("name", ["cyl2d-shock", "smooth-periodic"])
def test_generated_states_are_admissible(name):
    for seed in range(20):
        U0 = workloads.make_inputs(_small(name), seed).U0
        assert physics.is_admissible(U0).all()


def test_smooth_exact_solution_matches_initial_data():
    inputs = workloads.make_inputs(_small("smooth-periodic"), seed=3)
    pts = workloads.node_points(inputs.setup.mesh)
    np.testing.assert_array_equal(inputs.exact(pts, 0.0), inputs.U0)


def test_self_time_subtracts_union_of_children():
    tracer = spans.Tracer()
    parent = spans.Span(0, "p", 0.0, 10.0, None, 1)
    tracer.spans = [
        parent,
        spans.Span(1, "c", 1.0, 4.0, 0, 2),
        spans.Span(2, "c", 3.0, 5.0, 0, 3),   # overlaps the first child
        spans.Span(3, "c", 9.0, 12.0, 0, 2),  # runs past the parent's end
    ]
    self_s = tracer.self_times()
    assert self_s["p"] == pytest.approx(10.0 - (4.0 + 1.0))
    assert self_s["c"] == pytest.approx(3.0 + 2.0 + 3.0)
