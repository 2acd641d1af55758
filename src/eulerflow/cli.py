"""Command line driver: mesh setup, time marching, VTK and perf output."""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import assembly, output, perf, problems
from .config import PROBLEMS, RunConfig, parse_config_file
from .stepper import Solver

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerflow",
        description="Invariant-domain-preserving collocation solver for the "
        "compressible Euler equations",
    )
    parser.add_argument("--config", help="key=value config file, overridden by flags")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--refine", type=int, help="uniform refinement levels")
    parser.add_argument("--t-final", type=float, dest="t_final")
    parser.add_argument("--cfl", type=float, dest="c_cfl", help="CFL number in (0, 1]")
    parser.add_argument("--limiter-passes", type=int, dest="limiter_passes")
    parser.add_argument("--newton-steps", type=int, dest="newton_steps")
    parser.add_argument("--workers", type=int, help="threads per simulated rank")
    parser.add_argument("--ranks", type=int, help="simulated rank count")
    parser.add_argument("--no-overlap", action="store_true",
                        help="disable communication hiding")
    parser.add_argument("--output-every", type=int, dest="output_every",
                        help="write VTK every N steps (0 = only final)")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--perf", action="store_true",
                        help="write the memory traffic model and timings")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    for key in ("problem", "refine", "t_final", "c_cfl", "limiter_passes",
                "newton_steps", "workers", "ranks", "output_every",
                "output_dir"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if args.no_overlap:
        cfg.overlap = False
    if args.perf:
        cfg.perf = True
    return cfg.validate()


def run(cfg: RunConfig, log=print) -> Solver:
    setup = problems.make_problem(cfg.problem, cfg.refine)
    matrices = assembly.assemble(setup.mesh)
    solver = Solver(
        matrices,
        c_cfl=cfg.c_cfl,
        limiter_passes=cfg.limiter_passes,
        newton_steps=cfg.newton_steps,
        workers=cfg.workers,
        ranks=cfg.ranks,
        overlap=cfg.overlap,
        boundary=setup.boundary,
    )
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
