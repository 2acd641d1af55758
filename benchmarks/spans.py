"""In-memory span recorder and the wrappers that trace eulerflow's layers.

The traced run replaces module attributes and class methods that the
stepper calls with wrappers that record a span per call (name, start, end,
parent, thread) and count work at the same boundary.  Nothing inside
``eulerflow`` is edited; ``uninstall`` restores every original object.
Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from eulerflow import exchange, indicator, limiter, physics, riemann, sparsity, stepper


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Records spans and counters; thread-safe for the solver's worker pools."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # ----- recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name and return its result."""
        stack = self._stack()
        span = Span(next(self._ids), name, 0.0, 0.0,
                    stack[-1] if stack else None, threading.get_ident())
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, **increments):
        with self._lock:
            for key, value in increments.items():
                self.counts[key] += value

    # ----- patching ----------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None):
        """Trace owner.attr; after(result) may count the work a call did."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        self.patch(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        physics.set_power_function(None)

    # ----- analysis ----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - _covered(s, children.get(s.id, ()))
        return dict(out)

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def reset(self):
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def write(self, path: str):
        """Write the recorded spans as JSON lines, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                }) + "\n")


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    reach = span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def install(tracer: Tracer):
    """Wrap the public functions of each layer on the measured path."""
    t = tracer

    # setup path, inside Solver.__init__ (the run spans mesh, assembly and init)
    t.wrap(exchange, "partition", "exchange.partition")
    t.wrap(sparsity, "renumber", "sparsity.renumber")
    t.wrap(sparsity, "build_pattern", "sparsity.build_pattern")
    t.wrap(sparsity.SparsityPattern, "padded", "sparsity.padded")

    # step path
    def count_slots(result):
        t.count(**{"riemann.slots": np.size(result)})

    t.wrap(riemann, "d_ij_low", "riemann.d_ij_low", count_slots)

    for method in ("reset", "accumulate", "result"):
        t.wrap(indicator.IndicatorAccumulator, method, f"indicator.{method}")

    def count_lanes(result):
        t.count(**{"limiter.lanes": result.size,
                   "limiter.limited": int(np.count_nonzero(result < 1.0))})

    t.wrap(limiter, "limiter_compute", "limiter.limiter_compute", count_lanes)
    t.wrap(limiter, "quadratic_newton_step", "limiter.quadratic_newton_step")
    t.wrap(physics, "flux", "physics.flux")

    def counting_power(x, y):
        out = np.power(x, y)
        t.count(**{"physics.pow_calls": 1, "physics.pow_elems": np.size(out)})
        return out

    physics.set_power_function(counting_power)

    t.wrap(exchange, "overlapped_loop", "exchange.overlapped_loop")

    deliver = exchange.Communicator.deliver

    @functools.wraps(deliver)
    def traced_deliver(comm, apply_fn):
        before = comm.sync_volume
        t.call("exchange.deliver", deliver, comm, apply_fn)
        moved = comm.sync_volume - before
        if moved:
            t.count(**{"exchange.syncs": 1, "exchange.doubles": moved})

    t.patch(exchange.Communicator, "deliver", traced_deliver)

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            t.count(**{"stepper.pools": 1})
            super().__init__(*args, **kwargs)

    # the stepper binds the class at import; overlapped_loop imports it per call
    t.patch(stepper, "ThreadPoolExecutor", CountedPool)
    t.patch(concurrent.futures, "ThreadPoolExecutor", CountedPool)
