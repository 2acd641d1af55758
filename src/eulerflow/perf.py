"""Roofline-style memory traffic model and performance reporting.

Predicts, per phase of one forward-Euler step, the number of doubles read
and written per nonzero of the stencil graph.  Counting conventions:

- column indices are 4-byte integers, hence 0.5 doubles per nonzero, as
  the solver stores them (int32 cols; its slot numbers are one byte);
- streamed per-nonzero matrices are read once in full;
- per-node arrays touched during a phase count their size divided by the
  average stencil cardinality (column accesses are assumed cached);
- transposed gathers of streamed matrices are assumed cached (free);
- stores of per-node arrays trigger a read-for-ownership of the same
  volume, streaming stores of per-nonzero data do not.

The report combines these predictions with measured per-phase seconds and
the synchronization counters of a solver.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Optional

from . import physics

__all__ = ["StepTraffic", "predict_traffic", "format_table", "write_csv", "report"]

DEFAULT_CARD = {1: 3, 2: 9, 3: 27}

INDEX_COST = 0.5  # doubles per nonzero for 4-byte column indices


@dataclass
class StepTraffic:
    """Doubles per nonzero moved by one phase."""

    reads: float
    writes: float
    rfo: float
    approximate: bool = False

    @property
    def total(self) -> float:
        return self.reads + self.writes + self.rfo


def predict_traffic(dim: int, card: Optional[int] = None) -> Dict[str, StepTraffic]:
    """Per-phase traffic prediction in doubles per stencil nonzero."""
    nvar = physics.n_variables(dim)
    c = DEFAULT_CARD[dim] if card is None else card
    upper = (c + 1) / (2 * c)
    return {
        # nodal entropies from the state vector
        "step0": StepTraffic(reads=nvar / c, writes=2 / c, rfo=2 / c),
        # wavespeeds and indicator: c (dim comps), beta, indices, U + entropy
        "step1": StepTraffic(
            reads=dim + 1 + INDEX_COST + (nvar + 1) / c,
            writes=upper + 1 / c,
            rfo=1 / c,
        ),
        # mirroring the strictly upper viscosity triangle; gather-dominated
        "step2": StepTraffic(
            reads=upper + 1 + 6 / c, writes=(c - 1) / (2 * c), rfo=0.0, approximate=True
        ),
        # low-order update, raw correction, bar-state bounds
        "step3": StepTraffic(
            reads=2 + dim + INDEX_COST + (2 * nvar) / c,
            writes=(2 * nvar + 3) / c,
            rfo=(2 * nvar + 3) / c,
        ),
        # correction fluxes P and the first limiter pass
        "step4": StepTraffic(
            reads=2 + INDEX_COST + (3 * nvar + 5) / c,
            writes=float(nvar + 1),
            rfo=0.0,
        ),
        # intermediate limited update with rescale and recompute
        "step5": StepTraffic(
            reads=nvar + 1 + INDEX_COST + (nvar + 3) / c,
            writes=1 + nvar / c,
            rfo=nvar / c,
        ),
        # final limited update
        "step6": StepTraffic(
            reads=nvar + 1 + INDEX_COST + nvar / c,
            writes=nvar / c,
            rfo=nvar / c,
        ),
    }


def _phase_rows(dim: int, card: Optional[int], solver):
    """(phase, traffic, measured seconds per substep) of every phase; the
    seconds are None unless the solver has taken a step."""
    measured = solver is not None and solver.n_euler_steps > 0
    for name, t in predict_traffic(dim, card).items():
        yield name, t, solver.timers[name] / solver.n_euler_steps if measured else None


def format_table(dim: int, card: Optional[int] = None, solver=None) -> str:
    """Human-readable prediction table, optionally with measured seconds."""
    rows = list(_phase_rows(dim, card, solver))
    measured = rows[0][2] is not None
    lines = [
        f"memory traffic model, dim={dim}, stencil cardinality="
        f"{DEFAULT_CARD[dim] if card is None else card} (doubles per nonzero)",
        f"{'phase':8} {'reads':>8} {'writes':>8} {'rfo':>8} {'total':>8}"
        + ("  seconds/step" if measured else ""),
    ]
    for name, t, seconds in rows:
        lines.append(
            f"{name:8} {t.reads:8.2f} {t.writes:8.2f} {t.rfo:8.2f} {t.total:8.2f}"
            + ("" if seconds is None else f"  {seconds:12.3e}")
            + ("  (approximate)" if t.approximate else "")
        )
    if solver is not None:
        lines.append(
            f"syncs={solver.comm.sync_count} volume={solver.comm.sync_volume} doubles "
            f"over {solver.n_euler_steps} substeps"
        )
    return "\n".join(lines)


def write_csv(path: str, dim: int, card: Optional[int] = None, solver=None):
    """Write the prediction (and measurements when available) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["phase", "reads_per_nnz", "writes_per_nnz", "rfo_per_nnz",
             "total_per_nnz", "approximate", "measured_seconds_per_substep"]
        )
        for name, t, seconds in _phase_rows(dim, card, solver):
            writer.writerow(
                [name, f"{t.reads:.6f}", f"{t.writes:.6f}", f"{t.rfo:.6f}",
                 f"{t.total:.6f}", int(t.approximate),
                 "" if seconds is None else f"{seconds:.6e}"]
            )
        if solver is not None:
            writer.writerow(
                ["sync", str(solver.comm.sync_count), str(solver.comm.sync_volume),
                 "", "", "", str(solver.n_euler_steps)]
            )


def report(solver, csv_path: Optional[str] = None) -> str:
    """Full report for a solver that has taken at least one step."""
    text = format_table(solver.dim, card=solver.standard_card, solver=solver)
    if csv_path is not None:
        write_csv(csv_path, solver.dim, card=solver.standard_card, solver=solver)
    return text
