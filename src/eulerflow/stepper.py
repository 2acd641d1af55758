"""Invariant-domain-preserving collocation update with convex limiting.

One forward-Euler step proceeds in phases over the stencil graph: nodal
entropies and node states, the low-order graph viscosity from the two-rarefaction
wavespeed bound (once per edge, on the upper triangle) together with the
entropy-commutator indicator, the viscosity mirroring and time-step bound,
the low-order update with its density bar-state bounds, the antisymmetric
high-order correction fluxes, and finally one or more symmetrized limiter
passes.  The per-slot buffer P carries work from phase to phase: step 1's
kernel writes the flux contraction (f_j - f_i) . c_ij of every slot into it,
which the low-order update reads, and forms the indicator's slot sums in
the same walk over the row; step 3 then replaces it with the viscous part
(d^H_ij - d_ij)(U_j - U_i) of the correction fluxes (without limiter passes
nothing reads it before step 1 overwrites it); step 4 completes the
correction fluxes in place, and the limiter passes scale them.  A pass
has one entry per valid slot whose P is not all +-0, which reads its row's
state and bounds by index; every other valid slot takes 1, as its update
min(l_ij, l_ji) P_ij and rescaled P stay +-0 whatever the factor (P_ji is
all +-0 exactly when P_ij is).  The first pass runs in step 4's phase,
right after the correction fluxes.  Each later pass is two step-5 phases:
the limited update with the factors in l, which then scales P by
1 - min(l_ij, l_ji) in place, and the limiter, which overwrites l and
syncs it once every update of the pass has read the old factors.  The
rescale leaves P = +-0 wherever the previous factor was 1, so a later
pass evaluates only the slots the previous pass limited.
With newton_steps = 0 an entry still takes its density-clamped full step
where that step meets the entropy bound (see limiter.limiter_compute).
Every phase runs compiled kernels (rowkernels) on one binding per rank and
gas, which checks the rank's arrays and takes their addresses once, at
setup; a step commits U_next by copying it into U, so no address changes.
A chunk of rows, or of upper edges for the wavespeed, is then one C call
per kernel, and one more per Newton round of the limiter; rowkernels.c
says what each computes, and tests/oracles.py keeps numpy forms of them
that give the same bits.  Three such steps with a shared time step form
the strong-stability-preserving RK3 update.

Ranks are simulated in-process over a contiguous Cuthill-McKee split of the
nodes.  Every rank stores one ghost layer and evaluates the viscosity of
every edge with an owned end itself, so an edge between two ranks is
evaluated on both instead of being synchronized, and one between two ghost
nodes, which nothing reads, on neither; only per-node quantities (alpha, R,
U) and limiter rows travel between ranks.  The solver builds one padded
slot view of the whole stencil (sparsity.PaddedView), slots ordered by
global node id, from one sort of the assembled CSR entries that also gives
each slot's matrix offset, and each rank's view is the rows of its owned
and ghost nodes; in a ghost row, the slots to nodes outside the rank are
pads where they stand.  An edge thus has the same slot index in its
owner's row and in every ghost copy, so the row send table comes from the
partition's export lists and the slot send table is the valid slots of those
ghost rows.  A sync writes into the array it reads from.  Every phase is
one call of exchange.overlapped_loop over all ranks: a rank's rows keep the
Cuthill-McKee order with the rows other ranks need moved to the front; the
front rows of every rank run as one batch on the solver's one worker pool,
every rank stages the phase's synced array, and the interior rows of every
rank run as a second batch while the sync is in flight; one delivery ends
the phase.  A phase without a synced array has an empty first batch.
The slot order by global node id makes results bitwise independent of the
rank count, the worker count, the row order and the communication-hiding
loop split.
"""

from __future__ import annotations

import functools
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import exchange, limiter, physics, riemann, rowkernels, sparsity
from .assembly import PrecomputedMatrices
from .indicator import IndicatorAccumulator
from .physics import AIR, AdmissibilityError, GasConstants

__all__ = ["BoundaryConditions", "Solver", "SETTINGS", "check_settings",
           "COUNT", "POSITIVE_COUNT", "FLAG", "POSITIVE_TIME"]

STEP_NAMES = ["step0", "step1", "step2", "step3", "step4", "step5", "step6"]


@dataclass
class BoundaryConditions:
    """Strong boundary data applied after each stage update.

    Slip walls remove the normal momentum component using the given outward
    unit normals; supersonic inflow nodes are reset to the farfield state.
    Node ids refer to the original mesh numbering.
    """

    inflow_nodes: Optional[np.ndarray] = None
    farfield: Optional[np.ndarray] = None
    slip_nodes: Optional[np.ndarray] = None
    slip_normals: Optional[np.ndarray] = None


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_real(x) and bool(np.isfinite(x))


# the values a setting may take: (test, what the error message says it must be)
COUNT = (lambda x: _is_int(x) and x >= 0, "an integer >= 0")
POSITIVE_COUNT = (lambda x: _is_int(x) and x >= 1, "an integer >= 1")
FLAG = (lambda x: isinstance(x, (bool, np.bool_)), "a bool")
POSITIVE_TIME = (lambda x: _is_finite(x) and x > 0.0, "a finite number > 0")

# the Solver settings, in the order they are checked
SETTINGS = {
    "c_cfl": (lambda x: _is_finite(x) and 0.0 < x <= 1.0, "a number in (0, 1]"),
    "limiter_passes": COUNT,
    "newton_steps": COUNT,
    "workers": POSITIVE_COUNT,
    "ranks": POSITIVE_COUNT,
    "chunk_size": POSITIVE_COUNT,
    "overlap": FLAG,
    "gas": (lambda x: isinstance(x, GasConstants), "a GasConstants"),
}


def check_settings(values: dict, rules: dict = SETTINGS):
    """Raise ValueError for the first setting in values (name -> value) that
    its rule rejects."""
    for name, value in values.items():
        test, what = rules[name]
        if not test(value):
            raise ValueError(f"{name} must be {what}")


def _checked_boundary(bc, n: int, nvar: int, dim: int) -> BoundaryConditions:
    """The boundary data as arrays, empty where bc gives none.

    Raises ValueError for node ids that are not integers in [0, n), for
    inflow nodes without an admissible farfield state of shape (nvar,) and
    for slip normals whose shape is not (len(slip_nodes), dim) or that are
    not finite unit vectors.
    """
    bc = bc if bc is not None else BoundaryConditions()

    def given(value, **kw):
        return np.asarray([] if value is None else value, **kw)

    def node_ids(name):
        ids = given(getattr(bc, name))
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        if ids.ndim != 1 or ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= n:
            raise ValueError(f"{name} must be integer node ids in [0, {n})")
        return ids.astype(np.int64)

    inflow, slip = node_ids("inflow_nodes"), node_ids("slip_nodes")
    farfield = bc.farfield
    if len(inflow):
        farfield = given(farfield, dtype=np.float64)
        if farfield.shape != (nvar,) or not physics.is_admissible(farfield):
            raise ValueError(f"inflow nodes need an admissible farfield state of shape ({nvar},)")
    normals = np.zeros((0, dim))
    if len(slip):
        normals = given(bc.slip_normals, dtype=np.float64)
        if normals.shape != (len(slip), dim):
            raise ValueError(f"slip_normals must have shape ({len(slip)}, {dim})")
        # false for NaN and infinite components too
        norm = np.sqrt(physics.component_sum(normals * normals))
        if not np.all(np.abs(1.0 - norm) <= 1e-12):
            raise ValueError("slip_normals must be finite unit vectors")
    return BoundaryConditions(inflow, farfield, slip, normals)


def _unit_normals(c: np.ndarray):
    """The rows of c divided by their norms, e_1 where a norm is 0, and the
    norms: (unit normals as an (E, d) array, norms as an (E,) array)."""
    comps = [c[:, k] for k in range(c.shape[1])]
    norm = np.sqrt(physics.sum_left_to_right(c_k * c_k for c_k in comps))
    safe = np.where(norm, norm, 1.0)
    nonzero = norm > 0.0
    n = np.empty(c.shape)
    for k, c_k in enumerate(comps):
        n[:, k] = np.where(nonzero, c_k / safe, 1.0 if k == 0 else 0.0)
    return n, norm


def _edge_geometry(c_ij: np.ndarray, c_ji: np.ndarray) -> dict:
    """The edge geometry of rowkernels.ARRAYS for the upper edges whose c_ij
    and c_ji are the rows of two (E, d) arrays: n_up and norm_up, the unit
    normal and norm of every c_ij; two_edge, the ascending numbers of the
    edges that keep two directions, where the unit normal and norm of c_ji
    are not bitwise -n_up and norm_up; nT_two and normT_two, those of c_ji
    on these edges alone."""
    def bits(x):
        return x.view(np.int64)

    n_up, norm_up = _unit_normals(c_ij)
    nT, normT = _unit_normals(c_ji)
    two = (bits(normT) != bits(norm_up)) | (bits(nT) != bits(-n_up)).any(axis=1)
    return dict(n_up=n_up, norm_up=norm_up, nT_two=nT[two], normT_two=normT[two],
                two_edge=sparsity.narrow(np.flatnonzero(two), sparsity.ROW))


class _RankData:
    """Per-rank renumbered stencil data and work arrays."""

    # populated by Solver._build_rank: its setup fields, then the arrays
    # that bound holds
    __slots__ = ["numbering", "valid", "up_ptr", "m_i", "cm_of_new", "orig_of_new",
                 "inflow_idx", "slip_idx", "slip_n", "bound", *rowkernels.ARRAYS]


class Solver:
    """Time integrator over simulated ranks on padded stencil slot views."""

    def __init__(
        self,
        matrices: PrecomputedMatrices,
        c_cfl: float = 0.9,
        limiter_passes: int = 2,
        newton_steps: int = 2,
        workers: int = 1,
        ranks: int = 1,
        overlap: bool = True,
        chunk_size: int = 2048,
        boundary: Optional[BoundaryConditions] = None,
        gas: GasConstants = AIR,
    ):
        check_settings(dict(c_cfl=c_cfl, limiter_passes=limiter_passes,
                            newton_steps=newton_steps, workers=workers, ranks=ranks,
                            chunk_size=chunk_size, overlap=overlap, gas=gas))
        self.matrices = matrices
        self.gas = gas
        self.c_cfl = c_cfl
        self.limiter_passes = limiter_passes
        self.newton_steps = newton_steps
        self.workers = workers
        self.overlap = overlap
        self.chunk_size = chunk_size
        self.n = matrices.n
        self.dim = matrices.dim
        self.nvar = physics.n_variables(matrices.dim)
        self.bc = _checked_boundary(boundary, self.n, self.nvar, self.dim)

        self.part = part = exchange.partition(matrices, ranks)
        self.comm = exchange.Communicator(ranks)

        # one padded slot view of the whole stencil, rows and slot order in
        # CM ids, with the assembled CSR offset of every slot; each rank's
        # view is a selection of its rows
        view = sparsity.build_pattern(matrices, part.cm_perm).padded()
        self.pad_width = view.width
        self.standard_card = int(np.argmax(np.bincount(matrices.card)))

        self.ranks: List[_RankData] = [self._build_rank(r, view) for r in range(ranks)]
        self._build_sends()
        # one pool serves every row loop of the solver
        self.pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

        self.timers: Dict[str, float] = {name: 0.0 for name in STEP_NAMES}
        self.n_euler_steps = 0
        self.tau_last = None

    # ----- setup ---------------------------------------------------------

    def _build_rank(self, r: int, view: sparsity.PaddedView) -> _RankData:
        mat, part = self.matrices, self.part
        s, e = part.ranges[r]
        n_owned = e - s
        local_cm = np.concatenate([np.arange(s, e, dtype=np.int64), part.ghosts[r]])
        export_ids = np.concatenate([np.zeros(0, dtype=np.int64), *part.exports[r].values()])
        numbering = sparsity.renumber(len(local_cm), export_ids - s, n_owned=n_owned)
        cm_of_new = local_cm[numbering.inv]
        # a ghost row keeps its owner's slots; those to nodes outside the
        # rank are pads
        padded = view.select(cm_of_new)

        rk = _RankData()
        rk.numbering = numbering
        rk.cols = padded.cols
        rk.valid = padded.valid
        rk.diag_slot = padded.diag_slot
        rk.trans_slot = padded.trans_slot
        rk.cm_of_new = cm_of_new
        rk.orig_of_new = part.cm_inv[cm_of_new]
        # the upper edges with an owned end: nothing reads d between two ghosts
        owned = np.arange(len(cm_of_new)) < n_owned
        upper = (padded.valid & (cm_of_new[padded.cols] > cm_of_new[:, None])
                 & (owned[:, None] | owned[padded.cols]))
        # (row, slot) pairs of the upper edges in row-major order; the pairs
        # of rows [a, b) are up_ptr[a]:up_ptr[b]
        up_row, up_slot = np.nonzero(upper)
        rk.up_row, rk.up_slot = (sparsity.narrow(up_row, sparsity.ROW),
                                 sparsity.narrow(up_slot, sparsity.SLOT))
        rk.up_ptr = np.concatenate([[0], np.cumsum(upper.sum(axis=1))])
        rk.card = sparsity.narrow(padded.valid.sum(axis=1), sparsity.SLOT)

        # pads take zero values
        N, L = len(cm_of_new), padded.width
        rk.m_slot = np.where(padded.valid, mat.m[padded.src], 0.0)
        rk.c_slot = np.where(padded.valid[..., None], mat.c[padded.src], 0.0)
        # unit normals and norms of c_ij of the upper edges, in up_row/up_slot
        # order, and of c_ji of those that keep two directions
        for name, a in _edge_geometry(
                rk.c_slot[upper], rk.c_slot[padded.cols[upper], padded.trans_slot[upper]]).items():
            setattr(rk, name, a)
        rk.m_i = mat.m_lumped[rk.orig_of_new]
        rk.inv_m = mat.inv_m[rk.orig_of_new]

        # the arrays the steps write, the others of the binding, start at zero
        written = [name for name in rowkernels.ARRAYS if not hasattr(rk, name)]
        for name, a in rowkernels.zeros(written, N, numbering.n_lo, len(rk.up_row), L,
                                        self.nvar).items():
            setattr(rk, name, a)
        # every kernel runs on these arrays: check and bind them once
        rk.bound = rowkernels.Binding({n: getattr(rk, n) for n in rowkernels.ARRAYS}, self.gas)

        def to_owned(orig_ids):
            cm = part.cm_perm[orig_ids]
            sel = (cm >= s) & (cm < e)
            return numbering.perm[cm[sel] - s], sel

        rk.inflow_idx, _ = to_owned(self.bc.inflow_nodes)
        rk.slip_idx, sel = to_owned(self.bc.slip_nodes)
        rk.slip_n = self.bc.slip_normals[sel]
        return rk

    def _build_sends(self):
        # a ghost row has the slots of its owner's row, so every synced value
        # has the same index on both sides: row_sends[o] holds (dst rank, src
        # rows, dst rows) of the rows rank o exports, and slot_sends[o] the
        # valid slots of those ghost rows as flat indices row * pad_width + slot
        part, W = self.part, self.pad_width
        self.row_sends: List[list] = [[] for _ in range(part.n_ranks)]
        self.slot_sends: List[list] = [[] for _ in range(part.n_ranks)]
        for o, ork in enumerate(self.ranks):
            s_o = part.ranges[o][0]
            for r, ids in part.exports[o].items():
                rk = self.ranks[r]
                src = ork.numbering.perm[ids - s_o]
                # ghost rows follow the owned rows in ascending CM id
                dst = rk.numbering.n_lo + np.searchsorted(part.ghosts[r], ids)
                self.row_sends[o].append((r, src, dst))
                rows, slots = np.nonzero(rk.valid[dst])
                self.slot_sends[o].append((r, src[rows] * W + slots, dst[rows] * W + slots))

    # ----- state ---------------------------------------------------------

    def set_state(self, U: np.ndarray):
        """Load states given in original node order; ghosts are consistent."""
        U = np.asarray(U, dtype=np.float64)
        if U.shape != (self.n, self.nvar):
            raise ValueError("state array has the wrong shape")
        if not physics.is_admissible(U).all():
            raise AdmissibilityError("initial state is not admissible")
        for rk in self.ranks:
            rk.U[:] = U[rk.orig_of_new]
            rk.U_next[:] = rk.U

    def get_state(self) -> np.ndarray:
        """Gather owned states back into original node order."""
        out = np.empty((self.n, self.nvar))
        for rk in self.ranks:
            n_lo = rk.numbering.n_lo
            out[rk.orig_of_new[:n_lo]] = rk.U[:n_lo]
        return out

    # ----- sync plumbing --------------------------------------------------

    def _synced(self, rank: int, name: str) -> np.ndarray:
        """Array name of a rank as the send tables index it: the limiter
        values l flat over row * pad_width + slot (a view, as l is
        C-contiguous), the per-node arrays by row."""
        arr = getattr(self.ranks[rank], name)
        return arr.reshape(-1) if name == "l" else arr

    def _stage(self, name: str):
        """Stage, on every rank, the values of array name that other ranks
        hold as ghosts."""
        sends = self.slot_sends if name == "l" else self.row_sends
        for rank in range(len(self.ranks)):
            src = self._synced(rank, name)
            self.comm.stage(rank, [
                (dst, name, dst_idx, src[src_idx]) for dst, src_idx, dst_idx in sends[rank]
            ])

    def _deliver(self):
        """Write every staged item into the receiver's array of the same name."""
        def apply(_rank, items):
            for dst, name, dst_idx, vals in items:
                self._synced(dst, name)[dst_idx] = vals
            return sum(item[-1].size for item in items)
        self.comm.deliver(apply)

    # ----- row loop driver ---------------------------------------------------

    def _phase(self, step: str, kernel, synced: Optional[str] = None, ghosts: bool = False):
        """Run kernel(rk, lo, hi) over the owned rows of every rank, and over
        its ghost rows too when ghosts is set; the time goes to timers[step].

        One overlapped loop covers every rank.  With synced, the exported
        rows of every rank (all owned rows without overlap) run first, every
        rank stages that array, and the rest run while the sync is in flight;
        one delivery to all ranks ends the phase.  Without one, no rows run
        before the sync.
        """
        t0 = time.perf_counter()

        def rows(nb):
            n_e = 0 if synced is None else nb.n_e if self.overlap else nb.n_lo
            return n_e, nb.n_lr if ghosts else nb.n_lo

        jobs = [(functools.partial(kernel, rk), *rows(rk.numbering)) for rk in self.ranks]
        start_sync = None if synced is None else functools.partial(self._stage, synced)
        exchange.overlapped_loop(jobs, start_sync, self.pool, self.chunk_size)
        if synced is not None:
            self._deliver()
        self.timers[step] += time.perf_counter() - t0

    # ----- phase kernels ---------------------------------------------------

    def _k_entropies(self, rk, lo, hi):
        # eta' is formed on the owned rows only, which need alpha
        if rk.bound.entropies(lo, hi, min(hi, rk.numbering.n_lo)):
            raise AdmissibilityError("eta' requires rho*epsilon > 0 on every owned node")

    def _k_viscosity(self, rk, lo, hi):
        # d_ij is evaluated once per edge, on the upper slots (global id of j
        # above that of i) only; _k_mirror fills the lower triangle
        riemann.d_ij_low(rk.bound, int(rk.up_ptr[lo]), int(rk.up_ptr[hi]))
        # ghost rows receive alpha from their owner
        own = min(hi, rk.numbering.n_lo)
        if lo < own:
            # one walk over the slots writes the flux contraction into P, which
            # the low-order update reads, and forms the indicator's slot sums
            a, b = rk.bound.flux_contraction(lo, own)
            acc = IndicatorAccumulator()
            acc.reset(rk.bound, lo, own)
            acc.accumulate(a, b)
            acc.result()

    def _k_mirror(self, rk, lo, hi):
        rk.bound.mirror(lo, hi)

    def _k_low_order(self, rk, lo, hi, tau):
        # the viscous part of the correction fluxes replaces step 1's flux
        # contraction in P; _k_correction adds the rest
        rk.bound.low_order(lo, hi, tau)

    def _k_limit(self, rk, lo, hi):
        # the limiter values of the correction fluxes in P against U_next and
        # the bounds, into the valid slots of l
        limiter.limiter_compute(rk.bound, lo, hi, max_newton=self.newton_steps)

    def _k_correction(self, rk, lo, hi, tau):
        rk.bound.correction(lo, hi, tau)
        self._k_limit(rk, lo, hi)

    def _k_limited_update(self, rk, lo, hi, last):
        rk.bound.limited_update(lo, hi, last)
        if last:
            self._k_boundary(rk, lo, hi)

    def _k_boundary(self, rk, lo, hi):
        if len(rk.slip_idx):
            in_range = (rk.slip_idx >= lo) & (rk.slip_idx < hi)
            idx = rk.slip_idx[in_range]
            if len(idx):
                nrm = rk.slip_n[in_range]
                mom = rk.U_next[idx, 1:-1]
                rk.U_next[idx, 1:-1] = mom - physics.component_sum(mom * nrm)[:, None] * nrm
        if len(rk.inflow_idx):
            idx = rk.inflow_idx[(rk.inflow_idx >= lo) & (rk.inflow_idx < hi)]
            if len(idx):
                rk.U_next[idx] = self.bc.farfield

    # ----- stepping --------------------------------------------------------

    def euler_step(self, tau: Optional[float] = None, tau_max: float = np.inf) -> float:
        """One forward-Euler step; returns the time step used.

        When tau is None the CFL bound is computed and capped by tau_max;
        otherwise the given step is used unchanged (RK stages 2 and 3).  The
        new state is checked before it is committed: on an AdmissibilityError
        the state is left as it was.  Raises ValueError, before any phase
        runs, for a given tau that is not finite and > 0 and for a tau_max
        that is not a number > 0 (inf allowed, bools rejected).
        """
        if tau is not None:
            check_settings({"tau": tau}, {"tau": POSITIVE_TIME})
        if not (_is_real(tau_max) and tau_max > 0.0):
            raise ValueError("tau_max must be a number > 0")
        self._phase("step0", self._k_entropies, ghosts=True)
        self._phase("step1", self._k_viscosity, "alpha", ghosts=True)
        self._phase("step2", self._k_mirror)
        t0 = time.perf_counter()
        if tau is None:
            # min_i m_i / (-2 d_ii) over the owned nodes with d_ii < 0
            locs = []
            for rk in self.ranks:
                n_lo = rk.numbering.n_lo
                d_diag = rk.d[np.arange(n_lo), rk.diag_slot[:n_lo]]
                neg = d_diag < 0.0
                locs.append(np.min(rk.m_i[:n_lo][neg] / (-2.0 * d_diag[neg]), initial=np.inf))
            tau_min = exchange.allreduce_min(locs)
            if not np.isfinite(tau_min):
                raise ValueError("no node has d_ii < 0, the time step bound is unbounded")
            tau = min(self.c_cfl * tau_min, tau_max)
        tau = float(tau)
        self.tau_last = tau
        self.timers["step2"] += time.perf_counter() - t0

        self._phase("step3", functools.partial(self._k_low_order, tau=tau), "R")
        passes = self.limiter_passes
        if passes:
            self._phase("step4", functools.partial(self._k_correction, tau=tau), "l")
        for _ in range(passes - 1):
            # every update reads the factors of l and their mirrors before the
            # next pass's limiter overwrites them
            self._phase("step5", functools.partial(self._k_limited_update, last=False))
            self._phase("step5", self._k_limit, "l")
        last = functools.partial(self._k_limited_update, last=True) if passes else self._k_boundary
        self._phase("step6", last, "U_next")
        self._finish_step()
        return tau

    def _finish_step(self):
        # check before committing, so a failed step leaves U untouched
        for rk in self.ranks:
            n_lo = rk.numbering.n_lo
            ok = physics.is_admissible(rk.U_next[:n_lo])
            if not ok.all():
                bad = int(np.argmin(ok))
                gid = int(rk.orig_of_new[bad])
                raise AdmissibilityError(f"inadmissible state at node {gid}")
        for rk in self.ranks:
            rk.U[:] = rk.U_next
        self.n_euler_steps += 1

    def ssp_rk3_step(self, tau: Optional[float] = None, tau_max: float = np.inf) -> float:
        """One SSP-RK3 step; the first stage's time step is reused by all stages.

        If a stage fails, the state before the step is restored on every rank
        before the error propagates.
        """
        U0 = [rk.U.copy() for rk in self.ranks]
        try:
            tau = self.euler_step(tau, tau_max)
            self.euler_step(tau)
            # incremental form of the convex combinations: a vanishing stage
            # update leaves the state bitwise unchanged
            for rk, u0 in zip(self.ranks, U0):
                rk.U[:] = u0 + 0.25 * (rk.U - u0)
            self.euler_step(tau)
        except BaseException:
            for rk, u0 in zip(self.ranks, U0):
                rk.U[:] = u0
            raise
        for rk, u0 in zip(self.ranks, U0):
            rk.U[:] = u0 + (2.0 / 3.0) * (rk.U - u0)
        return tau

    def advance(self, t_final: float, on_step=None) -> int:
        """March from t = 0 to t_final in SSP-RK3 steps; returns their number.

        The step that the remaining time caps is the last one and ends at
        t_final exactly.  Raises ValueError for a t_final that is not a
        finite number >= 0.
        """
        if not (_is_finite(t_final) and t_final >= 0.0):
            raise ValueError("t_final must be a finite number >= 0")
        t = 0.0
        steps = 0
        while t < t_final:
            remaining = t_final - t
            tau = self.ssp_rk3_step(tau_max=remaining)
            t = t_final if tau >= remaining else t + tau
            steps += 1
            if on_step is not None:
                on_step(steps, t)
        return steps
