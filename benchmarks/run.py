"""eulerflow benchmark: SSP-RK3 step time, setup time and memory per workload.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload cyl2d-shock --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one process each
    python3 benchmarks/run.py --seed 1 --trace 1  # traced run: per-layer metrics

Each workload is a closed loop that calls ``Solver.ssp_rk3_step`` back to
back from one process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the layers' public functions (see spans.py) and reports per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object; a full report goes to benchmarks/out/.  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WARMUP_STEPS = 2      # untimed; the digest checkpoint is taken after them
MIN_TIMED_STEPS = 3
SETUP_REPEATS = 3
# relative drift of total mass and energy allowed on the periodic box
CONSERVATION_TOL = 1e-12
# L1 density error after the warm-up steps; 1.4e-7 to 4.9e-7 over 11 seeds
L1_BOUND = 1e-6


@dataclass
class Setup:
    inputs: object
    matrices: object
    solver: object
    times: dict


def setup(workload, seed: int, tracer=None) -> Setup:
    """Mesh and initial data, assembly, Solver.__init__ and set_state, timed."""
    times = {}

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = tracer.call(name, fn, *args, **kwargs) if tracer else fn(*args, **kwargs)
        times[name] = time.perf_counter() - t0
        return out

    inputs = timed("mesh.build", workloads.make_inputs, workload, seed)
    matrices = timed("assembly.assemble", assembly.assemble, inputs.setup.mesh)
    solver = timed("stepper.init", stepper.Solver, matrices,
                   boundary=inputs.setup.boundary, **workload.solver)
    timed("stepper.set_state", solver.set_state, inputs.U0)
    return Setup(inputs, matrices, solver, times)


def digest(U) -> str:
    return hashlib.sha256(U.astype("<f8").tobytes()).hexdigest()


class StepLoop:
    """Steps a solver, times every RK3 step and substep, and checks every step."""

    def __init__(self, st: Setup):
        self.st = st
        self.solver = st.solver
        self.t = 0.0
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.broken = False
        self.substep_times = []
        m = st.matrices.m_lumped
        self.totals0 = m @ st.inputs.U0 if st.inputs.exact is not None else None
        # ssp_rk3_step calls self.euler_step, so an instance attribute times
        # each forward-Euler substep at the cost of two clock reads
        euler_step = functools.partial(type(self.solver).euler_step, self.solver)

        def timed_euler_step(*args, **kwargs):
            t0 = time.perf_counter()
            tau = euler_step(*args, **kwargs)
            self.substep_times.append(time.perf_counter() - t0)
            return tau

        self.solver.euler_step = timed_euler_step

    def step(self):
        """One SSP-RK3 step; returns its wall time, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            tau = self.solver.ssp_rk3_step()
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            # the solver keeps the failed state, so stepping on is meaningless
            self.broken = True
            return self._fail(f"step {self.steps + 1} raised {exc!r}")
        dt = time.perf_counter() - t0
        self.steps += 1
        self.t += tau
        problem = self._check(self.solver.get_state())
        return self._fail(f"step {self.steps}: {problem}") if problem else dt

    def _fail(self, text):
        self.failed += 1
        self.problems.append(text)
        return None

    def _check(self, U):
        if not physics.is_admissible(U).all():
            return "inadmissible state"
        if self.totals0 is not None:
            drift = np.abs(self.st.matrices.m_lumped @ U - self.totals0)
            rel = drift / np.abs(self.totals0)
            if rel[0] > CONSERVATION_TOL or rel[-1] > CONSERVATION_TOL:
                return f"mass/energy drift {rel[0]:.2e}/{rel[-1]:.2e}"
        return None

    def run(self, n_steps=None, seconds=0.0):
        """Attempt n_steps steps, or step for `seconds` (at least MIN_TIMED_STEPS).

        Returns the wall times of the steps that passed their checks.
        """
        times = []
        first = self.attempted
        t_end = time.perf_counter() + seconds
        while not self.broken:
            done = self.attempted - first
            if n_steps is not None:
                if done >= n_steps:
                    break
            elif done >= MIN_TIMED_STEPS and time.perf_counter() >= t_end:
                break
            dt = self.step()
            if dt is not None:
                times.append(dt)
        return times

    def l1_rho_error(self) -> float:
        inputs = self.st.inputs
        ref = inputs.exact(workloads.node_points(inputs.setup.mesh), self.t)
        U = self.solver.get_state()
        return float((self.st.matrices.m_lumped * np.abs(U[:, 0] - ref[:, 0])).sum())


def tail(values):
    """Highest percentile with at least ten samples above it: (value, percentile)."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ----- untraced run: end-to-end metrics --------------------------------------


def run_untraced(workload, seed, seconds, report):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        st = None  # release the previous set-up before measuring the next
        gc.collect()
        t0 = time.perf_counter()
        st = setup(workload, seed)
        setup_s.append(time.perf_counter() - t0)
    report["setup_split_s"] = st.times
    report["setup_runs_s"] = setup_s

    drv = StepLoop(st)
    drv.run(n_steps=WARMUP_STEPS)
    checkpoint = digest(st.solver.get_state())
    checks = report["checks"]
    if st.inputs.exact is not None:
        l1 = drv.l1_rho_error()
        report["l1_rho_error"] = {"value": l1, "t": drv.t, "steps": drv.steps}
        checks["l1_rho_error_below_bound"] = l1 <= L1_BOUND

    wall0, jiffies0 = time.perf_counter(), machine.cpu_jiffies()
    first_sub = len(drv.substep_times)
    times = drv.run(seconds=seconds)
    substeps = drv.substep_times[first_sub:]
    wall = time.perf_counter() - wall0
    report["steal_share"] = machine.steal_share(jiffies0, machine.cpu_jiffies())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = digest(st.solver.get_state())

    report["digests"] = {
        "checkpoint": {"steps": WARMUP_STEPS, "sha256": checkpoint},
        "final": {"steps": drv.steps, "sha256": final},
    }
    other = workloads.BITWISE_PAIRS.get(workload.name)
    if other is not None:
        ref = reference_digest(st, WARMUP_STEPS, workloads.WORKLOADS[other].solver)
        report["digests"][f"{other}_checkpoint"] = ref
        checks[f"digest_equals_{other}"] = ref == checkpoint

    nnz = st.matrices.nnz
    if times:
        # an RK3 step is three substeps; the tail is taken over substeps
        # because a cylinder run holds too few RK3 steps for a percentile
        # well above the median to have ten steps above it
        tail_s, tail_pct = tail(substeps)
        report["tail"] = {"percentile": tail_pct, "samples": len(substeps)}
        report["metrics"] = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "step_ms_p50": metric(1e3 * statistics.median(times), "ms"),
            "step_ms_tail": metric(3e3 * tail_s, "ms"),
            "throughput_mnnz_s": metric(3 * nnz * len(times) / sum(times) / 1e6, "Mnnz/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    report["fail_share"] = drv.failed / drv.attempted
    report["timed_steps"] = len(times)
    report["timed_wall_s"] = wall
    return drv


def reference_digest(st: Setup, n_steps: int, settings: dict) -> str:
    """Digest after n_steps of a solver with other settings on the same inputs."""
    solver = stepper.Solver(st.matrices, boundary=st.inputs.setup.boundary, **settings)
    solver.set_state(st.inputs.U0)
    try:
        for _ in range(n_steps):
            solver.ssp_rk3_step()
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return f"reference run raised {exc!r}"
    return digest(solver.get_state())


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


# ----- traced run: per-layer metrics -----------------------------------------


def run_traced(workload, seed, seconds, report):
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        st = setup(workload, seed, tracer)
    finally:
        tracer.uninstall()
    setup_self = tracer.self_times()
    setup_total = tracer.totals()
    solver = st.solver

    # warm-up from the initial state (first-touch of temporaries), then an
    # untraced and a traced pass over the same steps from the same state
    warm = StepLoop(st)
    warm.run(n_steps=WARMUP_STEPS)
    checkpoint = digest(solver.get_state())
    solver.set_state(st.inputs.U0)

    drv = StepLoop(st)
    timers0 = dict(solver.timers)
    sub0 = solver.n_euler_steps
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    plain = drv.run(seconds=seconds / 2.0)
    cpu_util = (_cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    final = digest(solver.get_state())
    n_sub = solver.n_euler_steps - sub0
    phase_time = {k: solver.timers[k] - timers0[k] for k in stepper.STEP_NAMES}

    solver.set_state(st.inputs.U0)
    drv_t = StepLoop(st)
    tracer.reset()
    sub0 = solver.n_euler_steps
    spans.install(tracer)
    try:
        traced = drv_t.run(n_steps=WARMUP_STEPS)
        checkpoint_t = digest(solver.get_state())
        traced += drv_t.run(n_steps=drv.attempted - WARMUP_STEPS)
    finally:
        tracer.uninstall()
    final_t = digest(solver.get_state())
    n_sub_t = solver.n_euler_steps - sub0

    checks = report["checks"]
    checks["traced_digest_equals_untraced"] = (checkpoint_t == checkpoint and final_t == final)
    report["digests"] = {
        "checkpoint": {"steps": WARMUP_STEPS, "sha256": checkpoint},
        "final": {"steps": drv.steps, "sha256": final},
        "traced_checkpoint": checkpoint_t,
        "traced_final": final_t,
    }
    loops = (warm, drv, drv_t)
    report["fail_share"] = sum(d.failed for d in loops) / sum(d.attempted for d in loops)
    if any(d.broken for d in loops):
        return loops  # a step raised: the state is invalid, nothing to measure

    phase_s = {k: t / n_sub for k, t in phase_time.items()}
    overhead = sum(traced) / sum(plain) - 1.0

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(str(span_file))
    report["span_file"] = str(span_file.relative_to(ROOT))
    report["traced_steps"] = len(traced)
    report["untraced_steps"] = len(plain)

    m = layer_metrics(st, tracer, n_sub_t, phase_s, setup_self, setup_total)
    m["process.cpu_util"] = metric(cpu_util, "ratio")
    m["trace.overhead_frac"] = metric(overhead, "ratio")
    m.update(bandwidth_metrics(st, phase_s, report))
    report["metrics"] = m
    return loops


def layer_metrics(st, tracer, n_sub, phase_s, setup_self, setup_total):
    """Per-layer numbers from spans and counters, per forward-Euler substep."""
    solver = st.solver
    nnz = st.matrices.nnz
    self_s = tracer.self_times()
    total = tracer.totals()
    calls = tracer.calls()
    counts = tracer.counts

    def per_sub(x, unit):
        return metric(x / n_sub, unit)

    def self_of(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    m = {}
    for k in stepper.STEP_NAMES:
        m[f"stepper.{k}_ns_nnz"] = metric(1e9 * phase_s[k] / nnz, "ns/nnz")

    upper_edges = (nnz - st.matrices.n) // 2
    m["riemann.d_ij_low.calls"] = per_sub(calls.get("riemann.d_ij_low", 0), "1/substep")
    m["riemann.d_ij_low.slots"] = per_sub(counts["riemann.slots"], "1/substep")
    m["riemann.d_ij_low.self_s"] = per_sub(self_s.get("riemann.d_ij_low", 0.0), "s/substep")
    m["riemann.useful_ratio"] = metric(upper_edges * n_sub / counts["riemann.slots"], "ratio")

    m["indicator.accumulate.calls"] = per_sub(calls.get("indicator.accumulate", 0), "1/substep")
    m["indicator.self_s"] = per_sub(self_of("indicator."), "s/substep")

    lc_calls = calls.get("limiter.limiter_compute", 0)
    newton = calls.get("limiter.quadratic_newton_step", 0)
    m["limiter.limiter_compute.calls"] = per_sub(lc_calls, "1/substep")
    m["limiter.lanes"] = per_sub(counts["limiter.lanes"], "1/substep")
    m["limiter.newton_iters"] = per_sub(newton, "1/substep")
    m["limiter.newton_per_call"] = metric(newton / max(lc_calls, 1), "1/call")
    m["limiter.limited_share"] = metric(
        counts["limiter.limited"] / max(counts["limiter.lanes"], 1), "ratio")
    m["limiter.self_s"] = per_sub(self_of("limiter."), "s/substep")

    m["physics.pow_calls"] = per_sub(counts["physics.pow_calls"], "1/substep")
    m["physics.pow_elems"] = per_sub(counts["physics.pow_elems"], "1/substep")
    m["physics.flux.calls"] = per_sub(calls.get("physics.flux", 0), "1/substep")
    m["physics.flux.self_s"] = per_sub(self_s.get("physics.flux", 0.0), "s/substep")

    slots = sum(rk.cols.size for rk in solver.ranks)
    stored = sum(int(rk.valid.sum()) for rk in solver.ranks)
    m["sparsity.pad_ratio"] = metric(slots / stored, "ratio")
    m["sparsity.index_bytes_per_nnz"] = metric(
        sum(rk.cols.nbytes for rk in solver.ranks) / stored, "B/nnz")
    m["sparsity.build_s"] = metric(
        sum(setup_total.get(k, 0.0) for k in
            ("sparsity.renumber", "sparsity.build_pattern", "sparsity.padded")), "s")

    part = solver.part
    m["exchange.partition_s"] = metric(setup_total.get("exchange.partition", 0.0), "s")
    m["exchange.overlapped_loop_s"] = per_sub(total.get("exchange.overlapped_loop", 0.0),
                                              "s/substep")
    m["exchange.sync_count"] = per_sub(counts["exchange.syncs"], "1/substep")
    m["exchange.sync_doubles"] = per_sub(counts["exchange.doubles"], "1/substep")
    m["exchange.deliver_s"] = per_sub(total.get("exchange.deliver", 0.0), "s/substep")
    m["exchange.ghost_share"] = metric(sum(len(g) for g in part.ghosts) / part.n, "ratio")
    m["stepper.pools_per_substep"] = per_sub(counts["stepper.pools"], "1/substep")

    m["mesh.build_s"] = metric(setup_total["mesh.build"], "s")
    m["assembly.assemble_s"] = metric(setup_total["assembly.assemble"], "s")
    m["stepper.init_s"] = metric(setup_total["stepper.init"], "s")
    m["stepper.init_self_s"] = metric(setup_self["stepper.init"], "s")
    return m


def bandwidth_metrics(st, phase_s, report):
    """Computed (not measured) GB/s per phase under two traffic counts."""
    solver = st.solver
    nnz = st.matrices.nnz
    slots = sum(rk.cols.size for rk in solver.ranks)
    model = perf.predict_traffic(solver.dim, card=solver.standard_card)
    # same formulas at the padded width with 8-byte column indices, per slot
    saved = perf.INDEX_COST
    perf.INDEX_COST = 1.0
    try:
        padded = perf.predict_traffic(solver.dim, card=solver.pad_width)
    finally:
        perf.INDEX_COST = saved

    working_set = _working_set_bytes(st)
    ws_gbs = machine.copy_gbs(working_set)
    llc = machine.last_level_cache_bytes()
    big = 4 * llc
    probe = {"working_set_bytes": working_set, "llc_bytes": llc, "large_array_bytes": big}
    # two arrays of `big` bytes; leave at least as much again free
    if big and machine.mem_available() >= 4 * big:
        big_gbs = machine.copy_gbs(big, repeats=3)
        probe["large_copy_gbs"] = big_gbs
    else:
        big_gbs = 0.0
        probe["large_copy_skipped"] = (
            f"needs 2 x {big} bytes, MemAvailable is {machine.mem_available()} bytes")
    report["copy_probe"] = probe

    m = {"machine.copy_gbs": metric(ws_gbs, "GB/s"),
         "machine.copy_gbs_llc4x": metric(big_gbs, "GB/s")}
    for k in stepper.STEP_NAMES:
        t = phase_s[k]
        model_gbs = model[k].total * 8 * nnz / t / 1e9 if t else 0.0
        padded_gbs = padded[k].total * 8 * slots / t / 1e9 if t else 0.0
        m[f"perf.{k}_model_gbs"] = metric(model_gbs, "GB/s")
        m[f"perf.{k}_padded_gbs"] = metric(padded_gbs, "GB/s")
        m[f"perf.{k}_roofline_frac"] = metric(model_gbs / ws_gbs, "ratio")
    return m


def _working_set_bytes(st) -> int:
    """Bytes of the solver's per-rank arrays, which the step kernels read and write."""
    total = 0
    for rk in st.solver.ranks:
        for name in type(rk).__slots__:
            value = getattr(rk, name, None)
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


# ----- entry ------------------------------------------------------------------


def run_one(name, seed, seconds, trace) -> int:
    workload = workloads.WORKLOADS[name]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "solver_settings": workload.solver, "problem": workload.problem,
        "refine": workload.refine, "warmup_steps": WARMUP_STEPS,
        "facts": machine.facts(ROOT), "checks": {},
    }
    if trace:
        loops = run_traced(workload, seed, seconds, report)
    else:
        loops = (run_untraced(workload, seed, seconds, report),)
    solver = loops[0].solver
    report["size"] = {"nodes": solver.n, "nnz": int(solver.matrices.nnz),
                      "pad_width": solver.pad_width, "standard_card": solver.standard_card}
    attempted = sum(d.attempted for d in loops)
    failed = sum(d.failed for d in loops)
    report["step_failures"] = [p for d in loops for p in d.problems]
    correct = failed == 0 and all(report["checks"].values()) and "metrics" in report
    report["correct"] = correct

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))
    print_report(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report.get("metrics", {})}))
    return 0 if correct else 1


def print_report(report):
    f = report["facts"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])} size {report['size']}")
    print(f"revision {f['git_revision']} nproc {f['nproc']} cpu {f['cpu_model']!r} "
          f"caches {f['caches_bytes']} numpy {f['numpy']} scipy {f['scipy']}")
    if "tail" in report:
        t = report["tail"]
        print(f"timed steps {report['timed_steps']}; step_ms_tail is 3 x p{t['percentile']:.1f} "
              f"of {t['samples']} forward-Euler substep times; "
              f"CPU time stolen by the hypervisor: {100 * report['steal_share']:.1f}%")
    if "copy_probe" in report:
        print(f"copy probe {report['copy_probe']}")
    for name, m in report.get("metrics", {}).items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_share':34s} {report['fail_share']:.6g} ratio")
    if "l1_rho_error" in report:
        e = report["l1_rho_error"]
        print(f"  {'l1_rho_error':34s} {e['value']:.6g} (t={e['t']:.4g}, {e['steps']} steps)")
    for name, d in report["digests"].items():
        print(f"digest {name}: {d}")
    for name, ok in report["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for p in report["step_failures"]:
        print(f"step failure: {p}")


def run_all(seed, seconds, trace) -> int:
    """Run every workload in its own process, then compare their digests."""
    status = 0
    checkpoints = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        out_file = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
        out_file.unlink(missing_ok=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
        if out_file.exists():
            checkpoints[name] = json.loads(out_file.read_text())["digests"]["checkpoint"]
    same = checkpoints.get("cyl2d-ranks") == checkpoints.get("cyl2d-shock")
    print(f"check cyl2d-ranks checkpoint digest equals cyl2d-shock: {'ok' if same else 'FAILED'}")
    return status or (0 if same else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


def _import_solver():
    """Import eulerflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "eulerflow" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'eulerflow'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eulerflow
    if Path(eulerflow.__file__).resolve().parent != SRC / "eulerflow":
        sys.exit(f"error: imported eulerflow from {eulerflow.__file__}, not {SRC}")


if __name__ == "__main__":
    _import_solver()
    import numpy as np
    from eulerflow import assembly, perf, physics, stepper
    import machine
    import spans
    import workloads
    sys.exit(main())
