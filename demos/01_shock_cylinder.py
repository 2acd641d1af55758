"""Mach 3 channel flow past a cylinder.

A uniform Mach 3 stream enters a rectangular channel containing a circular
obstacle.  The run demonstrates the full solver stack: graph-viscosity
low-order update, entropy-commutator indicator, convex limiting, slip-wall
and inflow boundary conditions, and VTK snapshots with a schlieren field.

Run:  python3 demos/01_shock_cylinder.py [refine] [t_final]
"""

import sys
import time

from eulerflow import output, physics, problems
from eulerflow.assembly import assemble
from eulerflow.stepper import Solver

refine = int(sys.argv[1]) if len(sys.argv) > 1 else 2
t_final = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2

setup = problems.mach3_channel(dim=2, refine=refine)
matrices = assemble(setup.mesh)
print(f"mesh: {matrices.n} nodes, {matrices.nnz} stencil entries")

solver = Solver(matrices, c_cfl=0.9, limiter_passes=2, boundary=setup.boundary)
solver.set_state(setup.U0)

t0 = time.perf_counter()
snapshots = [0.0]


def on_step(step, t):
    if t >= snapshots[0]:
        U = solver.get_state()
        eps = physics.internal_energy(U)
        print(f"  step {step:4d}  t = {t:.4f}  tau = {solver.tau_last:.3e}  "
              f"min rho = {U[:, 0].min():.4f}  min eps = {eps.min():.4f}")
        output.write_vtk(f"demo_output/cylinder_{step:04d}.vtk",
                         setup.mesh, U, matrices)
        snapshots[0] += 0.05


steps = solver.advance(t_final, on_step=on_step)
elapsed = time.perf_counter() - t0

U = solver.get_state()
output.write_vtk("demo_output/cylinder_final.vtk", setup.mesh, U, matrices)
print(f"finished: {steps} RK steps to t = {t_final} in {elapsed:.1f} s")
print(f"density range [{U[:, 0].min():.4f}, {U[:, 0].max():.4f}]; "
      "every intermediate stage stayed admissible")
print("snapshots written to demo_output/cylinder_*.vtk")
