"""Command line driver: mesh setup, time marching, VTK and perf output."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

from . import assembly, output, perf, problems
from .config import RunConfig, parse_config_file
from .stepper import SETTINGS, Solver

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerflow",
        description="Invariant-domain-preserving collocation solver for the "
        "compressible Euler equations",
    )
    parser.add_argument("--config", help="key=value config file, overridden by flags")
    # every dest is a RunConfig field, None when the flag is not given
    parser.add_argument("--problem", choices=problems.PROBLEMS)
    parser.add_argument("--refine", type=int, help="uniform refinement levels")
    parser.add_argument("--t-final", type=float)
    parser.add_argument("--cfl", type=float, dest="c_cfl", help="CFL number in (0, 1]")
    parser.add_argument("--limiter-passes", type=int)
    parser.add_argument("--newton-steps", type=int)
    parser.add_argument("--workers", type=int, help="threads per simulated rank")
    parser.add_argument("--ranks", type=int, help="simulated rank count")
    parser.add_argument("--no-overlap", action="store_false", dest="overlap", default=None,
                        help="disable communication hiding")
    parser.add_argument("--output-every", type=int,
                        help="write VTK every N steps (0 = only final)")
    parser.add_argument("--output-dir")
    parser.add_argument("--perf", action="store_true", default=None,
                        help="write the memory traffic model and timings")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg.validate()


def run(cfg: RunConfig, log=print) -> Solver:
    setup = problems.make_problem(cfg.problem, cfg.refine)
    matrices = assembly.assemble(setup.mesh)
    solver = Solver(matrices, boundary=setup.boundary,
                    **{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in SETTINGS})
    solver.set_state(setup.U0)
    log(f"{cfg.problem}: {matrices.n} nodes, {matrices.nnz} stencil nonzeros, "
        f"ranks={cfg.ranks} workers={cfg.workers}")

    os.makedirs(cfg.output_dir, exist_ok=True)

    def snapshot(tag):
        path = os.path.join(cfg.output_dir, f"{cfg.problem}_{tag}.vtk")
        output.write_vtk(path, setup.mesh, solver.get_state(), matrices)
        log(f"wrote {path}")

    snapshot("0000")

    def on_step(step, t):
        log(f"step {step:5d}  t = {t:.6f}  tau = {solver.tau_last:.3e}")
        if cfg.output_every and step % cfg.output_every == 0:
            snapshot(f"{step:04d}")

    wall = time.perf_counter()
    steps = solver.advance(cfg.t_final, on_step=on_step)
    wall = time.perf_counter() - wall
    snapshot("final")
    log(f"finished {steps} RK steps to t = {cfg.t_final} in {wall:.2f} s")

    if cfg.perf:
        csv_path = os.path.join(cfg.output_dir, "perf.csv")
        log(perf.report(solver, csv_path=csv_path))
        log(f"wrote {csv_path}")
    return solver


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
