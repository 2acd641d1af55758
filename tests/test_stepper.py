"""Time integrator against a dense reference and its structural invariants."""

import numpy as np
import pytest

from eulerflow import assembly, limiter, physics, problems, riemann, rowkernels, stepper
from eulerflow.assembly import assemble
from eulerflow.mesh import Mesh, rectangle_mesh
from eulerflow.physics import AdmissibilityError
from eulerflow.stepper import BoundaryConditions, Solver

import oracles


def random_field(rng, n, dim=2):
    U = np.zeros((n, dim + 2))
    U[:, 0] = 1.0 + 0.5 * rng.random(n)
    U[:, 1:-1] = rng.normal(0.0, 0.3, (n, dim)) * U[:, 0:1]
    p = 0.5 + rng.random(n)
    U[:, -1] = p / 0.4 + 0.5 * (U[:, 1:-1] ** 2).sum(axis=1) / U[:, 0]
    return U


@pytest.fixture(scope="module")
def small_periodic():
    m = rectangle_mesh(4, 4, periodic=(True, True))
    mat = assemble(m)
    rng = np.random.default_rng(7)
    return mat, random_field(rng, mat.n)


MULTI_RANK = dict(ranks=3, workers=2, chunk_size=3)


@pytest.mark.parametrize("passes,settings", [
    *[pytest.param(p, {}, id=str(p)) for p in range(4)],
    *[pytest.param(p, MULTI_RANK, id=f"ranks3-{p}") for p in range(4)],
])
def test_matches_dense_reference(small_periodic, passes, settings):
    mat, U = small_periodic
    tau_ref, U_ref, alpha_ref = oracles.dense_euler_step(U, mat, passes=passes)

    def step(**kw):
        s = Solver(mat, limiter_passes=passes, **kw)
        s.set_state(U)
        return s.euler_step(), s.get_state()

    tau, state = step(**settings)
    assert tau == tau_ref
    assert np.allclose(state, U_ref, rtol=1e-13, atol=1e-13)
    if settings:
        assert np.array_equal(state, step()[1])


def _row_pairs(sends):
    return sorted((r, a, b) for r, src, dst in sends for a, b in zip(src, dst))


@pytest.mark.parametrize("periodic", [True, False])
def test_send_tables_match_reference(periodic):
    mesh = rectangle_mesh(8, 8, periodic=(True, True)) if periodic else rectangle_mesh(8, 7)
    mat = assemble(mesh)
    for ranks in range(1, 6):
        s = Solver(mat, ranks=ranks)
        W = s.pad_width
        ref = oracles.row_sends_reference(s)
        received = [[] for _ in range(ranks)]
        for o, ork in enumerate(s.ranks):
            # equal as sets, and each ghost row is sent once
            assert _row_pairs(s.row_sends[o]) == _row_pairs(ref[o])
            for r, src, dst in s.slot_sends[o]:
                rk = s.ranks[r]
                # both ends are stored slots of the same global (row, col)
                assert ork.valid.reshape(-1)[src].all() and rk.valid.reshape(-1)[dst].all()
                assert np.array_equal(ork.cm_of_new[src // W], rk.cm_of_new[dst // W])
                assert np.array_equal(ork.cm_of_new[ork.cols].reshape(-1)[src],
                                      rk.cm_of_new[rk.cols].reshape(-1)[dst])
                received[r].append(dst)
        # every stored slot of every ghost row receives exactly once
        for rk, dst in zip(s.ranks, received):
            n_lo = rk.numbering.n_lo
            got = np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *dst]))
            assert np.array_equal(got, np.flatnonzero(rk.valid[n_lo:]) + n_lo * W)


@pytest.mark.parametrize("case", ["periodic", "bounded", "cylinder3d"])
def test_ghost_rows_are_owner_rows_with_outside_slots_masked(case):
    if case == "cylinder3d":
        mesh = problems.mach3_channel(3, refine=0).mesh
    elif case == "periodic":
        mesh = rectangle_mesh(8, 8, periodic=(True, True))
    else:
        mesh = rectangle_mesh(8, 7)
    mat = assemble(mesh)
    for ranks in range(1, 6):
        s = Solver(mat, ranks=ranks)
        # each rank's row of a global (CM) id, -1 where it holds none
        row_of = np.full((ranks, mat.n), -1)
        for r, rk in enumerate(s.ranks):
            row_of[r, rk.cm_of_new] = np.arange(len(rk.cm_of_new))
        for rk in s.ranks:
            n_lo = rk.numbering.n_lo
            # owned rows hold their whole stencil in ascending global id,
            # pads only after it: the row kernels take the slots before the
            # diagonal as the lower ones and stop at card
            card = mat.card[rk.orig_of_new[:n_lo]]
            assert np.array_equal(rk.valid[:n_lo], np.arange(s.pad_width) < card[:, None])
            # slot s and s - 1 are both valid where slot s is
            gcols = rk.cm_of_new[rk.cols[:n_lo]]
            assert np.all(np.diff(gcols, axis=1)[rk.valid[:n_lo, 1:]] > 0)
            ghosts = rk.cm_of_new[n_lo:]
            owners = s.part.owner_of(ghosts)
            for o in np.unique(owners):
                ork = s.ranks[o]
                g = ghosts[owners == o]
                i, k = row_of[s.ranks.index(rk), g], row_of[o, g]
                v = rk.valid[i]
                # the valid slots are a subset of the owner's, with the same
                # global column, values and mirror slot at the same index
                assert np.all(ork.valid[k][v])
                assert np.array_equal(rk.cm_of_new[rk.cols[i]][v], ork.cm_of_new[ork.cols[k]][v])
                assert same_bits(rk.c_slot[i][v], ork.c_slot[k][v])
                assert np.array_equal(rk.trans_slot[i][v], ork.trans_slot[k][v])


def test_one_worker_pool_per_solver(small_periodic, monkeypatch):
    mat, U = small_periodic
    built = []

    class CountingPool(stepper.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(stepper, "ThreadPoolExecutor", CountingPool)
    s = Solver(mat, workers=2, ranks=2, chunk_size=3)
    assert built == [2]
    s.set_state(U)
    s.ssp_rk3_step()
    assert built == [2]
    s = Solver(mat, workers=1, ranks=2, chunk_size=3)
    s.set_state(U)
    s.ssp_rk3_step()
    assert built == [2]


def test_a_synced_phase_maps_two_batches_over_all_ranks(small_periodic, monkeypatch):
    # one pool.map for the exported rows of every rank, one for the rest
    mat, U = small_periodic
    s = Solver(mat, ranks=4, workers=2, chunk_size=3)
    batches = []

    class RecordingPool:
        def map(self, fn, items):
            items = list(items)
            batches.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(s, "pool", RecordingPool())
    s.set_state(U)
    s._phase("step0", s._k_entropies, ghosts=True)
    batches.clear()
    s._phase("step1", s._k_viscosity, "alpha", ghosts=True)
    assert len(batches) == 2
    nbs = [rk.numbering for rk in s.ranks]
    assert batches == [sum(-(-nb.n_e // 3) for nb in nbs),
                       sum(-(-(nb.n_lr - nb.n_e) // 3) for nb in nbs)]
    assert s.comm.sync_count == 1


def test_tau_is_the_cfl_bound_of_the_assembled_viscosity(small_periodic):
    mat, U = small_periodic
    s = Solver(mat, c_cfl=0.5, ranks=2)
    s.set_state(U)
    tau = s.euler_step()
    d_ii, m_i = [], []
    for rk in s.ranks:
        n_lo = rk.numbering.n_lo
        d_ii.extend(rk.d[np.arange(n_lo), rk.diag_slot[:n_lo]])
        m_i.extend(rk.m_i[:n_lo])
    assert tau == s.tau_last == oracles.cfl_tau(d_ii, m_i, 0.5)


def test_unbounded_time_step_raises_and_keeps_the_state():
    # without edges every d_ii is zero: the time step bound of the constant
    # state is unbounded
    n = 6
    mat = assembly.PrecomputedMatrices(
        n=n, dim=2, indptr=np.arange(n + 1), indices=np.arange(n), m=np.ones(n),
        c=np.zeros((n, 2)), m_lumped=np.ones(n), inv_m=np.ones(n),
    )
    U = np.tile([1.4, 4.2, 0.0, 8.8], (n, 1))
    for ranks in (1, 2):
        s = Solver(mat, ranks=ranks)
        s.set_state(U)
        with pytest.raises(ValueError, match="unbounded"):
            s.euler_step()
        assert np.array_equal(s.get_state(), U)
        assert s.n_euler_steps == 0


def test_constant_state_is_exactly_preserved(small_periodic):
    mat, _ = small_periodic
    U = np.tile([1.4, 4.2, 0.0, 8.8], (mat.n, 1))
    s = Solver(mat)
    s.set_state(U)
    tau = s.euler_step()
    assert np.isfinite(tau) and tau > 0.0
    assert np.array_equal(s.get_state(), U)


def test_conservation_short_run(small_periodic):
    mat, U = small_periodic
    s = Solver(mat)
    s.set_state(U)
    before = (mat.m_lumped[:, None] * U).sum(axis=0)
    for _ in range(5):
        s.ssp_rk3_step()
    after = (mat.m_lumped[:, None] * s.get_state()).sum(axis=0)
    assert np.abs(after - before).max() < 1e-12 * np.abs(before).max()


def test_state_roundtrip(small_periodic):
    mat, U = small_periodic
    s = Solver(mat, ranks=3)
    s.set_state(U)
    assert np.array_equal(s.get_state(), U)


def test_rejects_inadmissible_initial_state(small_periodic):
    mat, U = small_periodic
    bad = U.copy()
    bad[3, 0] = -1.0
    s = Solver(mat)
    with pytest.raises(AdmissibilityError):
        s.set_state(bad)


def test_invalid_parameters(small_periodic):
    mat, U = small_periodic
    for bad in (0.0, 1.5, np.nan, True, "0.5", None):
        with pytest.raises(ValueError):
            Solver(mat, c_cfl=bad)
    Solver(mat, c_cfl=1)
    Solver(mat, c_cfl=np.float32(0.5))
    for name in ("limiter_passes", "newton_steps"):
        for bad in (-1, 1.5, 2.0, True, "2", None):
            with pytest.raises(ValueError):
                Solver(mat, **{name: bad})
    for name in ("workers", "ranks", "chunk_size"):
        for bad in (0, -1, 2.5, 4.0, True, "4", None):
            with pytest.raises(ValueError):
                Solver(mat, **{name: bad})
    Solver(mat, limiter_passes=0, newton_steps=0, workers=1, ranks=1, chunk_size=1)
    Solver(mat, limiter_passes=np.int64(1), newton_steps=np.int64(3), ranks=np.int32(2))
    # "no" ran overlapped and None without overlap
    for bad in ("no", "False", None, 0, 1, 1.0):
        with pytest.raises(ValueError):
            Solver(mat, overlap=bad)
    Solver(mat, overlap=False)
    Solver(mat, overlap=np.bool_(False))
    for bad in (None, 1.4, "air", physics.GasConstants, {"gamma": 1.4}):
        with pytest.raises(ValueError):
            Solver(mat, gas=bad)
    Solver(mat, gas=physics.GasConstants(gamma=5.0 / 3.0))

    # time arguments are checked before any phase runs
    s = Solver(mat)
    s.set_state(U)
    for bad in (np.nan, np.inf, -np.inf, -1.0, True, "1", None):
        with pytest.raises(ValueError):
            s.advance(bad)
    for step in (s.euler_step, s.ssp_rk3_step):
        for bad in (-1e-3, 0.0, np.nan, np.inf, -np.inf, True, "1e-3"):
            with pytest.raises(ValueError):
                step(tau=bad)
        # True capped tau at 1.0; "1" and None raised TypeError
        for bad in (-1e-3, 0.0, -np.inf, np.nan, True, "1", None):
            with pytest.raises(ValueError):
                step(tau_max=bad)
    assert s.n_euler_steps == 0 and s.timers["step0"] == 0.0
    assert np.array_equal(s.get_state(), U)
    assert s.advance(0.0) == 0
    assert s.advance(np.float64(1e-3)) > 0

    # boundary data: node ids in [0, n), an admissible farfield for inflow
    # nodes and one normal per slip node
    setup = problems.mach3_channel(2, refine=0)
    mat = assemble(setup.mesh)
    bc = setup.boundary
    n = mat.n

    def with_(**kw):
        fields = dict(inflow_nodes=bc.inflow_nodes, farfield=bc.farfield,
                      slip_nodes=bc.slip_nodes, slip_normals=bc.slip_normals)
        fields.update(kw)
        return BoundaryConditions(**fields)

    bad = [
        with_(inflow_nodes=np.append(bc.inflow_nodes, -1)),
        with_(inflow_nodes=np.append(bc.inflow_nodes, n)),
        with_(inflow_nodes=bc.inflow_nodes.astype(np.float64)),
        with_(inflow_nodes=bc.inflow_nodes > 0),
        with_(slip_nodes=np.append(bc.slip_nodes, n + 5)),
        with_(slip_nodes=bc.slip_nodes[:, None]),
        with_(farfield=None),
        with_(farfield=bc.farfield[:-1]),
        with_(farfield=np.append(bc.farfield[:-1], -1.0)),
        with_(farfield=np.array([-1.0, 0.0, 0.0, 1.0])),
        with_(slip_normals=None),
        with_(slip_normals=bc.slip_normals[:-1]),
        with_(slip_normals=bc.slip_normals[:, :1]),
        # these passed setup and failed the first step on an inadmissible state
        with_(slip_normals=np.where(np.arange(len(bc.slip_nodes))[:, None] == 3, np.nan,
                                    bc.slip_normals)),
        with_(slip_normals=np.where(np.arange(len(bc.slip_nodes))[:, None] == 3, 0.0,
                                    bc.slip_normals)),
        with_(slip_normals=5.0 * bc.slip_normals),
    ]
    for boundary in bad:
        with pytest.raises(ValueError):
            Solver(mat, boundary=boundary)
    # the same data without inflow nodes needs no farfield
    Solver(mat, boundary=with_(inflow_nodes=None, farfield=None))
    Solver(mat, boundary=with_(inflow_nodes=[], slip_nodes=[], slip_normals=None))
    Solver(mat, boundary=BoundaryConditions())


def test_rank_worker_determinism_quick(small_periodic):
    mat, U = small_periodic
    def run(**kw):
        s = Solver(mat, **kw)
        s.set_state(U)
        s.ssp_rk3_step()
        return s.get_state()
    ref = run()
    assert np.array_equal(ref, run(ranks=3))
    assert np.array_equal(ref, run(workers=2, chunk_size=3))
    assert np.array_equal(ref, run(ranks=2, workers=2, overlap=False, chunk_size=3))


def test_ssp_rk3_composition(small_periodic):
    mat, U = small_periodic
    s = Solver(mat)
    s.set_state(U)
    tau = s.ssp_rk3_step()
    # hand-composed stages with the shared time step
    s2 = Solver(mat)
    s2.set_state(U)
    assert s2.euler_step() == tau
    U1 = s2.get_state()
    s2.set_state(U1)
    s2.euler_step(tau)
    U2 = 0.75 * U + 0.25 * s2.get_state()
    s2.set_state(U2)
    s2.euler_step(tau)
    U3 = U / 3.0 + (2.0 / 3.0) * s2.get_state()
    assert np.allclose(s.get_state(), U3, rtol=1e-14, atol=1e-14)


def test_advance_hits_final_time(small_periodic):
    mat, U = small_periodic
    s = Solver(mat)
    s.set_state(U)
    taus = []
    s.advance(0.02, on_step=lambda k, t: taus.append(s.tau_last))
    assert abs(sum(taus) - 0.02) < 1e-13


@pytest.mark.parametrize("t_final", [5e-15, 0.02])
def test_advance_ends_on_the_capped_step(t_final):
    setup = problems.periodic_smooth(n=8)
    s = Solver(assemble(setup.mesh))
    s.set_state(setup.U0)
    times = []
    steps = s.advance(t_final, on_step=lambda k, t: times.append(t))
    assert steps == len(times)
    assert times[-1] == t_final
    assert all(t < t_final for t in times[:-1])
    if t_final < 1e-14:
        assert steps == 1


def test_slip_wall_removes_normal_momentum():
    setup = problems.mach3_channel(2, refine=0)
    mat = assemble(setup.mesh)
    s = Solver(mat, boundary=setup.boundary)
    s.set_state(setup.U0)
    s.euler_step()
    U = s.get_state()
    bc = setup.boundary
    mom = U[bc.slip_nodes][:, 1:3]
    normal_component = (mom * bc.slip_normals).sum(axis=1)
    assert np.abs(normal_component).max() < 1e-13
    # inflow nodes hold the farfield state exactly
    assert np.array_equal(
        U[bc.inflow_nodes], np.tile(bc.farfield, (len(bc.inflow_nodes), 1))
    )


def test_alpha_zero_on_constant_state(small_periodic):
    mat, _ = small_periodic
    U = np.tile([1.0, 0.3, -0.2, 3.0], (mat.n, 1))
    s = Solver(mat)
    s.set_state(U)
    s.euler_step(tau=1e-3)
    assert np.abs(s.ranks[0].alpha).max() == 0.0


def test_no_newton_steps_still_apply_the_correction(small_periodic):
    # newton_steps=0 keeps every correction whose full step is admissible;
    # it is not the low-order update of limiter_passes=0
    mat, U = small_periodic

    def run(**kw):
        s = Solver(mat, **kw)
        s.set_state(U)
        s.ssp_rk3_step()
        return s.get_state()

    state = run(newton_steps=0)
    assert physics.is_admissible(state).all()
    assert not np.array_equal(state, run(limiter_passes=0))


def test_timers_and_counters_advance(small_periodic):
    mat, U = small_periodic
    s = Solver(mat, ranks=2)
    s.set_state(U)
    s.ssp_rk3_step()
    assert s.n_euler_steps == 3
    assert s.comm.sync_count > 0
    assert s.comm.sync_volume > 0
    assert all(v >= 0.0 for v in s.timers.values())
    assert s.timers["step3"] > 0.0


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("ranks", [1, 2])
def test_a_sync_is_counted_only_when_a_rank_sends(small_periodic, ranks, passes):
    # alpha, R and U_next travel between ranks in every substep, and l once
    # per limiter pass; a single rank sends nothing
    mat, U = small_periodic
    s = Solver(mat, ranks=ranks, limiter_passes=passes)
    s.set_state(U)
    s.ssp_rk3_step()
    assert s.comm.sync_count == (3 * (3 + passes) if ranks > 1 else 0)
    assert (s.comm.sync_volume > 0) == (ranks > 1)


def _inject_negative_density(monkeypatch, solver, at_stage):
    """Make the boundary kernel write rho < 0 in the solver's next
    forward-Euler step number at_stage (1 = the next one)."""
    at_step = solver.n_euler_steps + at_stage - 1
    original = Solver._k_boundary

    def faulty(self, rk, lo, hi):
        original(self, rk, lo, hi)
        if self is solver and self.n_euler_steps == at_step and hi > lo:
            rk.U_next[lo, 0] = -1.0

    monkeypatch.setattr(Solver, "_k_boundary", faulty)


@pytest.mark.parametrize("ranks", [1, 3])
@pytest.mark.parametrize("at_stage", [1, 2, 3])
def test_failed_rk3_stage_restores_state(small_periodic, monkeypatch, ranks, at_stage):
    mat, U = small_periodic
    s = Solver(mat, ranks=ranks)
    s.set_state(U)
    s.ssp_rk3_step()
    before = s.get_state()
    _inject_negative_density(monkeypatch, s, at_stage)
    with pytest.raises(AdmissibilityError):
        s.ssp_rk3_step()
    assert np.array_equal(s.get_state(), before)
    # the restored solver steps on as if the failed step never happened
    monkeypatch.undo()
    s.ssp_rk3_step()
    ref = Solver(mat, ranks=ranks)
    ref.set_state(U)
    ref.ssp_rk3_step()
    ref.ssp_rk3_step()
    assert np.array_equal(s.get_state(), ref.get_state())


def test_failed_euler_step_keeps_state(small_periodic, monkeypatch):
    mat, U = small_periodic
    s = Solver(mat, limiter_passes=0)
    s.set_state(U)
    _inject_negative_density(monkeypatch, s, 1)
    with pytest.raises(AdmissibilityError):
        s.euler_step()
    assert np.array_equal(s.get_state(), U)
    assert s.n_euler_steps == 0


def test_owned_node_without_positive_rho_eps_fails_step_0_before_any_pow(small_periodic,
                                                                        monkeypatch):
    # eta' needs rho eps > 0 on every owned node: step 0's kernel counts the
    # nodes without, which fails the step, and evaluates no pow() level from
    # the block of the first of them on; the 16 rows here are one block
    mat, U = small_periodic
    s = Solver(mat)
    s.set_state(U)
    rk = s.ranks[0]
    rk.U[5, -1] = -1.0
    state = rk.U.copy()
    for name in ("eor", "phi", "eta_scale"):
        getattr(rk, name)[:] = np.nan
    counts = []
    entropies = rk.bound.entropies

    def counting(*args):
        counts.append(entropies(*args))
        return counts[-1]

    monkeypatch.setattr(rk.bound, "entropies", counting)
    with pytest.raises(AdmissibilityError, match=r"rho\*epsilon > 0"):
        s.euler_step()
    assert counts == [1]
    assert all(np.isnan(getattr(rk, name)).all() for name in ("eor", "phi", "eta_scale"))
    assert same_bits(rk.U, state)
    assert s.n_euler_steps == 0


def test_ghost_node_without_positive_rho_eps_passes_step_0(small_periodic):
    # a ghost row needs no eta': its eta / rho is NaN and its phi < 0, as
    # before the stage counted the owned rows
    mat, U = small_periodic
    s = Solver(mat, ranks=2)
    s.set_state(U)
    rk = s.ranks[1]
    ghost = rk.numbering.n_lo
    rk.U[ghost, -1] = -1.0
    with np.errstate(invalid="ignore"):
        s._phase("step0", s._k_entropies, ghosts=True)
    assert np.isnan(rk.eor[ghost]) and rk.phi[ghost] < 0.0


@pytest.mark.parametrize("ranks", [1, 3])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_bound_addresses_never_change(small_periodic, ranks, passes):
    # a step commits U_next by copying, and every limiter pass writes l in
    # place: after every substep each rank's binding holds the address of
    # its array of each name, and that address never changes
    mat, U = small_periodic
    s = Solver(mat, ranks=ranks, limiter_passes=passes)
    s.set_state(U)
    euler_step = s.euler_step
    seen = {name: set() for name in rowkernels.ARRAYS}

    def checked_step(*args, **kwargs):
        tau = euler_step(*args, **kwargs)
        for rk in s.ranks:
            for name in rowkernels.ARRAYS:
                a = getattr(rk, name)
                assert rk.bound.arrays[name] is a, name
                assert getattr(rk.bound.rank, name) == a.ctypes.data, name
                seen[name].add(a.ctypes.data)
        return tau

    s.euler_step = checked_step
    for _ in range(2):
        s.ssp_rk3_step()
    assert s.n_euler_steps == 6
    assert all(len(addresses) == ranks for addresses in seen.values())


def test_viscosity_evaluated_once_per_edge(small_periodic, monkeypatch):
    # one rank evaluates every upper edge once; over several ranks each rank
    # evaluates the edges with an owned end, so an edge whose ends have
    # different owners is evaluated on both and one between two ghosts on
    # neither
    mat, U = small_periodic
    evaluated = []
    original = riemann.d_ij_low

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(riemann, "d_ij_low", counting)
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    upper = mat.indices > rows
    for ranks in (1, 2, 3, 4):
        s = Solver(mat, ranks=ranks, chunk_size=5)
        s.set_state(U)
        owner = s.part.owner_of(s.part.cm_perm)
        split = np.count_nonzero(upper & (owner[rows] != owner[mat.indices]))
        evaluated.clear()
        s.euler_step()
        assert sum(evaluated) == (mat.nnz - mat.n) // 2 + split, ranks
        assert (split > 0) == (ranks > 1)


def rank_edge_pairs(rk):
    """c_ij and c_ji of a rank's upper edges, in up_row/up_slot order."""
    rows, slots = rk.up_row, rk.up_slot
    return rk.c_slot[rows, slots], rk.c_slot[rk.cols[rows, slots], rk.trans_slot[rows, slots]]


@pytest.mark.parametrize("name,refine,ranks,listed,edges", [
    ("cylinder2d", 2, 1, None, None), ("cylinder2d", 2, 3, None, None),
    ("cylinder3d", 1, 1, 3890, 10032), ("periodic-smooth", 1, 1, 0, None),
])
def test_listed_two_direction_edges_are_the_edges_whose_c_ji_is_not_mirrored(name, refine, ranks,
                                                                             listed, edges):
    # a rank lists, in ascending order, exactly the upper edges whose c_ji's
    # unit normal and norm are not bitwise those of -c_ij, and stores c_ji's
    # unit normal and norm for those alone: a pair of boundary nodes keeps
    # its assembled c, and a periodic box has no boundary
    setup = problems.make_problem(name, refine=refine)
    s = Solver(assemble(setup.mesh), ranks=ranks, boundary=setup.boundary)
    for rk in s.ranks:
        c_ij, c_ji = rank_edge_pairs(rk)
        two = np.flatnonzero(~oracles.mirrored(c_ij, c_ji))
        assert rk.two_edge.dtype == np.int32 and np.array_equal(rk.two_edge, two)
        (n_ji, norm_ji), (n_up, norm_up) = oracles._unit(c_ji[two]), oracles._unit(c_ij)
        assert np.array_equal(rk.nT_two.view(np.int64), np.stack(n_ji, axis=-1).view(np.int64))
        assert np.array_equal(rk.normT_two.view(np.int64), norm_ji.view(np.int64))
        assert np.array_equal(rk.n_up.view(np.int64), np.stack(n_up, axis=-1).view(np.int64))
        assert np.array_equal(rk.norm_up.view(np.int64), norm_up.view(np.int64))
        if listed is not None:
            assert len(two) == listed
        if edges is not None:
            assert len(rk.up_row) == edges
        if name == "cylinder2d":
            assert 0 < len(two) < len(rk.up_row)


def test_wavespeed_evaluates_two_pow_values_per_direction(monkeypatch):
    # psi(p_max) takes its shock branch, which needs no pow, so the bound has
    # two pow levels per direction, which the compiled call of a chunk raises
    # in blocks, and it returns the number of directions it evaluated: one per
    # edge and one more per listed edge of its range.  An edge whose c_ji is
    # bitwise -c_ij is one direction and any other two; the channel has both,
    # as a pair of boundary nodes keeps its assembled c
    setup = problems.mach3_channel(2, refine=1)
    s = Solver(assemble(setup.mesh), chunk_size=64, boundary=setup.boundary)
    s.set_state(setup.U0)
    rk = s.ranks[0]
    directions = np.where(oracles.mirrored(*rank_edge_pairs(rk)), 1, 2)
    assert (directions == 1).any() and (directions == 2).any()
    chunks = []  # per call: (edges e0:e1, directions evaluated)
    wavespeed = rowkernels.Binding.wavespeed

    def counting(bound, e0, e1, gas):
        out, evaluated = wavespeed(bound, e0, e1, gas)
        chunks.append((slice(e0, e1), evaluated))
        return out, evaluated

    monkeypatch.setattr(rowkernels.Binding, "wavespeed", counting)
    s.euler_step()
    assert len(chunks) > 1
    assert sum(edges.stop - edges.start for edges, _ in chunks) == len(directions)
    assert any(evaluated > edges.stop - edges.start for edges, evaluated in chunks)
    for edges, evaluated in chunks:
        listed = np.count_nonzero((rk.two_edge >= edges.start) & (rk.two_edge < edges.stop))
        assert evaluated == edges.stop - edges.start + listed == directions[edges].sum()


def test_step_0_writes_the_node_states_of_every_row(small_periodic):
    # a rank evaluates the wavespeed of the edges with an owned end from the
    # node states (v, p, c) of both ends, so step 0 writes them on its ghost
    # rows as well, from the state the step starts from
    mat, U = small_periodic
    s = Solver(mat, ranks=3)
    s.set_state(U)
    s.ssp_rk3_step()
    start = [rk.U.copy() for rk in s.ranks]
    s.euler_step()
    for rk, U0 in zip(s.ranks, start):
        assert len(rk.vpc) > rk.numbering.n_lo
        assert same_bits(rk.vpc, np.stack(oracles.node_states(U0), axis=-1))


def test_limiter_evaluates_one_pow_value_per_entry_at_its_first_level(monkeypatch):
    # the first pow level of a chunk is rho(t_R)^(gamma + 1) of every entry,
    # in the compiled call that makes the entries; each Newton round is one
    # call, and one quadratic_newton_step, on the entries still open, which
    # raises their densities at t_L to gamma + 1, those of the entries that
    # take a step at t_L and t_R to gamma and, unless it is the last round,
    # their densities at the new t_R to gamma + 1 again.  Every call returns
    # the number of entries left open, which never grows.  The open entries'
    # row, flat slot row * L + slot and number are int32 scratch indices
    setup = problems.mach3_channel(2, refine=1)
    s = Solver(assemble(setup.mesh), chunk_size=64, boundary=setup.boundary)
    s.set_state(setup.U0)
    s.ssp_rk3_step()
    chunks = []  # per limiter_compute call: (entries, open after each call)
    opened = []  # per call: row, flat and number of the entries open after start
    steps = []
    start, round_ = rowkernels.LimiterChunk.start, rowkernels.LimiterChunk.round
    original = limiter.quadratic_newton_step

    def counting_start(chunk, *args):
        chunks.append((chunk, [start(chunk, *args)]))
        cap, n_open = len(chunk.ix) // 3, chunks[-1][1][0]
        opened.append([chunk.ix[j * cap:j * cap + n_open].copy() for j in range(3)])
        return chunks[-1][1][0]

    def counting_round(chunk, *args):
        chunks[-1][1].append(round_(chunk, *args))
        return chunks[-1][1][-1]

    def counting_step(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rowkernels.LimiterChunk, "start", counting_start)
    monkeypatch.setattr(rowkernels.LimiterChunk, "round", counting_round)
    monkeypatch.setattr(limiter, "quadratic_newton_step", counting_step)
    s.euler_step()
    assert len(chunks) > 2
    rounds = 0
    for (chunk, left), (row, flat, k) in zip(chunks, opened):
        lo, hi = chunk.rows
        assert chunk.ix.dtype == np.int32
        assert ((lo <= row) & (row < hi)).all() and (flat // s.pad_width == row).all()
        assert (np.diff(k) > 0).all() and (k < chunk.factors.size).all()
        assert chunk.factors.size >= left[0]
        assert all(0 < before for before in left[:-1])
        assert all(after <= before for before, after in zip(left, left[1:]))
        assert len(left) - 1 <= s.newton_steps
        rounds += len(left) - 1
    assert rounds == len(steps) > 0


def test_correction_reuses_the_low_order_products():
    # step 3 leaves (dH - d) dU in P; step 4's P equals the formula that
    # gathers U and alpha again
    setup = problems.mach3_channel(2, refine=0)
    mat = assemble(setup.mesh)
    s = Solver(mat, ranks=2, limiter_passes=1, boundary=setup.boundary)
    s.set_state(random_field(np.random.default_rng(5), mat.n))
    stepped_from = [rk.U.copy() for rk in s.ranks]
    tau = s.euler_step()
    for rk, U in zip(s.ranks, stepped_from):
        sl = slice(0, rk.numbering.n_lo)
        cols = rk.cols[sl]
        d = rk.d[sl]
        dH = d * (0.5 * (rk.alpha[sl][:, None] + rk.alpha[cols]))
        dU = U[cols] - U[sl][:, None]
        delta = (cols == np.arange(rk.numbering.n_lo)[:, None]).astype(np.float64)
        b_ij = delta - rk.m_slot[sl] * rk.inv_m[cols]
        b_ji = delta - rk.m_slot[sl] * rk.inv_m[sl][:, None]
        K = (
            b_ij[..., None] * rk.R[cols]
            - b_ji[..., None] * rk.R[sl][:, None]
            + (dH - d)[..., None] * dU
        )
        factor = tau * rk.inv_m[sl] * (rk.card[sl] - 1)
        assert np.array_equal(rk.P[sl], factor[:, None, None] * K)
        assert np.count_nonzero(rk.P[sl]) > 0


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _one_row_chunk(mat, synced=True):
    """The first chunk size >= 8 that leaves a one-row block on 2 ranks in
    a synced phase, which runs the exported rows [0, n_e) and then
    [n_e, n_lo) in chunks, or else in a phase without a sync, which runs
    [0, n_lo) in chunks."""
    numberings = [rk.numbering for rk in Solver(mat, ranks=2).ranks]
    blocks = (lambda nb: (nb.n_e, nb.n_lo - nb.n_e)) if synced else (lambda nb: (nb.n_lo,))
    return next(c for c in range(8, 400) if any(
        n % c == 1 for nb in numberings for n in blocks(nb)))


def test_low_order_update_matches_the_full_bar_state_formula_bitwise(monkeypatch):
    # step 3 reads the flux contraction that step 1 left in P, bounds the
    # density bar states only and sums and bounds over the slots one slot at
    # a time; U_next, R and the bounds must equal the formula that gathers
    # f[cols] afresh, builds the full Ubar and reduces over the slot axis, at
    # the default chunk size and at one that leaves a one-row block
    setup = problems.mach3_channel(2, refine=1)
    mat = assemble(setup.mesh)
    U = random_field(np.random.default_rng(11), mat.n)
    tail = _one_row_chunk(mat)
    finals = []
    for chunk in (2048, tail):
        s = Solver(mat, ranks=2, chunk_size=chunk, boundary=setup.boundary)
        s.set_state(U)
        original = s._k_low_order
        sizes = []

        def checked(rk, lo, hi, tau, s=s, original=original, sizes=sizes):
            want = oracles.low_order_reference(s, rk, lo, hi, tau)
            original(rk, lo, hi, tau)
            got = (rk.U_next[lo:hi], rk.R[lo:hi], rk.rho_min[lo:hi], rk.rho_max[lo:hi],
                   rk.phi_min[lo:hi])
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            sizes.append(hi - lo)

        monkeypatch.setattr(s, "_k_low_order", checked)
        s.ssp_rk3_step()
        assert len(sizes) >= 3 * len(s.ranks)
        if chunk == tail:
            assert 1 in sizes
        finals.append(s.get_state())
    assert same_bits(finals[0], finals[1])


def test_limited_update_matches_the_slot_reduce_bitwise(monkeypatch):
    # steps 5 and 6 add min(l_ij, l_ji) P_ij into U_next one slot at a time;
    # U_next must equal the numpy reduce over the slot axis before any
    # boundary data, at the default chunk size and at those that leave a
    # one-row block in step 5's update phase, which has no sync, and in
    # step 6, which syncs U_next
    setup = problems.mach3_channel(2, refine=1)
    mat = assemble(setup.mesh)
    tails = {_one_row_chunk(mat, synced=False): False, _one_row_chunk(mat): True}
    assert len(tails) == 2
    finals = []
    for chunk in (2048, *tails):
        s = Solver(mat, ranks=2, chunk_size=chunk, boundary=setup.boundary)
        s.set_state(setup.U0)
        s.ssp_rk3_step()
        update, boundary = s._k_limited_update, s._k_boundary
        want = {}
        sizes = {False: [], True: []}

        def checked_update(rk, lo, hi, last, update=update, want=want, sizes=sizes):
            want[id(rk), lo] = oracles.limited_update_reference(rk, lo, hi)
            update(rk, lo, hi, last)
            if not last:
                assert same_bits(rk.U_next[lo:hi], want.pop((id(rk), lo)))
            sizes[last].append(hi - lo)

        # the last pass applies the boundary data right after the update
        def checked_boundary(rk, lo, hi, boundary=boundary, want=want):
            assert same_bits(rk.U_next[lo:hi], want.pop((id(rk), lo)))
            boundary(rk, lo, hi)

        monkeypatch.setattr(s, "_k_limited_update", checked_update)
        monkeypatch.setattr(s, "_k_boundary", checked_boundary)
        s.ssp_rk3_step()
        assert not want
        assert min(len(sizes[False]), len(sizes[True])) >= 3 * len(s.ranks)
        if chunk in tails:
            assert 1 in sizes[tails[chunk]]
        finals.append(s.get_state())
    assert all(same_bits(final, finals[0]) for final in finals[1:])


@pytest.mark.parametrize("dim,refine,ranks", [(2, 1, 3), (3, 0, 2)])
def test_no_row_kernel_reads_a_pad(monkeypatch, dim, refine, ranks):
    # NaN in every pad of m_slot, P and l, and of d before step 2, must
    # leave the states and time steps of two RK3 steps bitwise unchanged:
    # the kernels and the limiter read the valid slots of their rows only.
    # The pads of P and l must still hold their NaN afterwards: nothing
    # writes a pad
    setup = problems.mach3_channel(dim, refine=refine)
    mat = assemble(setup.mesh)
    pad_nan = np.array(0x7FF8000000000ABC, dtype=np.int64).view(np.float64)
    runs = []
    for poison in (False, True):
        s = Solver(mat, ranks=ranks, boundary=setup.boundary)
        s.set_state(setup.U0)
        if poison:
            assert all(np.count_nonzero(~rk.valid) > 0 for rk in s.ranks)
            for rk in s.ranks:
                for name in ("m_slot", "l"):
                    getattr(rk, name)[~rk.valid] = pad_nan
                rk.P[~rk.valid[:rk.numbering.n_lo]] = pad_nan
            mirror, poisoned = s._k_mirror, []

            def nan_d(rk, lo, hi):
                rk.d[~rk.valid] = np.nan
                poisoned.append("d")
                mirror(rk, lo, hi)

            monkeypatch.setattr(s, "_k_mirror", nan_d)
        taus = [s.ssp_rk3_step() for _ in range(2)]
        runs.append((taus, s.get_state()))
    assert poisoned
    assert runs[1][0] == runs[0][0]
    assert same_bits(runs[1][1], runs[0][1])
    assert not np.array_equal(runs[0][1], setup.U0)
    for rk in s.ranks:
        for values in (rk.l[~rk.valid], rk.P[~rk.valid[:rk.numbering.n_lo]]):
            assert values.size and (values.view(np.int64) == pad_nan.view(np.int64)).all()


def test_second_limiter_pass_matches_the_dense_batch_bitwise(monkeypatch):
    # the second pass evaluates the slots whose rescaled P is not all +-0
    # (those whose first factor was below 1); their values must equal the
    # numpy limiter's on the whole padded stencil, also in a row whose base
    # state violates its raised entropy bound, and every other valid slot
    # takes 1
    setup = problems.mach3_channel(2, refine=1)
    mat = assemble(setup.mesh)
    s = Solver(mat, ranks=2, chunk_size=64, boundary=setup.boundary)
    s.set_state(setup.U0)
    for _ in range(3):
        s.ssp_rk3_step()
    update, limit = s._k_limited_update, s._k_limit
    seen = dict(chunks=0, live=0, dead=0, pads=0, diagonal=0, forced=0, still=0)
    # per rank, the slots whose first-pass min(l_ij, l_ji) is below 1, taken
    # by the update phase before the limiter phase overwrites l
    live_of = {}

    def checked_update(rk, lo, hi, last):
        if not last:
            sl = slice(lo, hi)
            lT = rk.l[rk.cols[sl], rk.trans_slot[sl]]
            live_of.setdefault(id(rk), np.zeros(rk.l.shape, dtype=bool))[sl] = (
                np.minimum(rk.l[sl], lT) < 1.0)
        update(rk, lo, hi, last)

    # step 4 runs its limiter before any update, so only the second pass's
    # limiter phase finds live_of filled
    def checked(rk, lo, hi):
        if id(rk) not in live_of:
            return limit(rk, lo, hi)
        sl = slice(lo, hi)
        # raise the entropy bound of one row so that Psi(U_i) < 0 there
        rk.phi_min[lo] = 2.0 * oracles.specific_entropy_phi(rk.U_next[lo])
        live = live_of[id(rk)][sl]
        limit(rk, lo, hi)
        assert oracles.psi_entropy(rk.U_next[lo], rk.phi_min[lo]) < 0.0
        want = oracles.limiter_entries_reference(s, rk, lo, hi)
        valid = rk.valid[sl]
        moving = valid & (rk.P[sl] != 0.0).any(axis=-1)
        assert same_bits(rk.l[sl][moving], want[moving])
        assert (rk.l[sl][valid & ~moving] == 1.0).all()
        assert (rk.l[lo][moving[0]] == 0.0).all()
        seen["chunks"] += 1
        seen["live"] += np.count_nonzero(live)
        seen["dead"] += np.count_nonzero(~live)
        seen["pads"] += np.count_nonzero(~rk.valid[sl])
        seen["diagonal"] += np.count_nonzero(~live[np.arange(hi - lo), rk.diag_slot[sl]])
        seen["forced"] += np.count_nonzero(moving[0])
        seen["still"] += np.count_nonzero(valid[0] & ~moving[0])
        return None

    monkeypatch.setattr(s, "_k_limited_update", checked_update)
    monkeypatch.setattr(s, "_k_limit", checked)
    s.euler_step()
    assert seen["chunks"] > 2
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("ranks", [1, 3])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_slots_without_a_correction_pair_up_and_take_one(monkeypatch, ranks, passes):
    # the limiter evaluates only the slots whose P is not all +-0 and gives
    # every other valid slot 1, which leaves the states as they were with a
    # factor per row because, after step 4 and after each rescale, the
    # diagonal's P is +0 and an owned slot's P is all +-0 exactly when its
    # mirror's is, wherever the mirror is owned; a slot whose P is all +-0
    # holds 1 after its pass's limiter, the phase synced on l.  From the
    # uniform start every P is +-0, so the checks begin after one RK3 step
    setup = problems.mach3_channel(2, refine=1)
    s = Solver(assemble(setup.mesh), ranks=ranks, limiter_passes=passes,
               boundary=setup.boundary)
    s.set_state(setup.U0)
    s.ssp_rk3_step()
    phase = s._phase
    seen = {"step4": [], "step5": []}

    def checked(name, kernel, synced=None, **kwargs):
        phase(name, kernel, synced, **kwargs)
        if name not in seen or synced != "l":
            return
        still = {}  # (global i, global j) -> P_ij is all +-0
        for rk in s.ranks:
            n_lo = rk.numbering.n_lo
            valid = rk.valid[:n_lo]
            assert not rk.P[np.arange(n_lo), rk.diag_slot[:n_lo]].view(np.int64).any()
            zero = valid & ~(rk.P != 0.0).any(axis=-1)
            assert (rk.l[:n_lo][zero] == 1.0).all()
            i, slot = np.nonzero(valid)
            gid = rk.orig_of_new
            still.update(zip(zip(gid[i].tolist(), gid[rk.cols[i, slot]].tolist()),
                             zero[i, slot].tolist()))
        assert all(z == still[j, i] for (i, j), z in still.items())
        off_diagonal = [z for (i, j), z in still.items() if i != j]
        seen[name].append((sum(off_diagonal), len(off_diagonal) - sum(off_diagonal)))

    monkeypatch.setattr(s, "_phase", checked)
    for _ in range(2):
        s.ssp_rk3_step()
    assert len(seen["step4"]) == 6 and len(seen["step5"]) == 6 * (passes - 1)
    # every check saw slots without a correction off the diagonal and
    # slots with one
    assert all(still > 0 and moving > 0 for checks in seen.values() for still, moving in checks)


def test_cylinder3d_steps_identically_over_ranks_workers_and_overlap():
    setup = problems.mach3_channel(3, refine=0)
    mat = assemble(setup.mesh)
    assert mat.n == 208
    finals = []
    configs = [(1, 1, True, 2048), (3, 2, True, 64), (2, 1, False, 2048)]
    for ranks, workers, overlap, chunk in configs:
        s = Solver(mat, ranks=ranks, workers=workers, overlap=overlap, chunk_size=chunk,
                   boundary=setup.boundary)
        s.set_state(setup.U0)
        for _ in range(10):
            s.ssp_rk3_step()
            assert physics.is_admissible(s.get_state()).all()
            for rk in s.ranks:
                alpha = rk.alpha[:rk.numbering.n_lo]
                assert ((alpha >= 0.0) & (alpha <= 1.0)).all()
        finals.append(s.get_state())
    assert not np.array_equal(finals[0], setup.U0)
    for state in finals[1:]:
        assert np.array_equal(state, finals[0])


@pytest.mark.parametrize("ranks,workers,chunk", [(1, 1, 2048), (3, 2, 64)])
def test_cylinder3d_constant_state_is_exactly_preserved(ranks, workers, chunk):
    # without boundary data every flux difference, viscous term and
    # correction of a constant state is zero, also on the boundary rows
    setup = problems.mach3_channel(3, refine=0)
    mat = assemble(setup.mesh)
    U = np.tile(oracles.primitive_to_conserved(1.4, [0.8, -0.3, 0.2], 1.0), (mat.n, 1))
    s = Solver(mat, ranks=ranks, workers=workers, chunk_size=chunk)
    s.set_state(U)
    for _ in range(10):
        assert s.ssp_rk3_step() > 0.0
    assert s.n_euler_steps == 30
    assert same_bits(s.get_state(), U)


def periodic_hex_box(n):
    """The unit cube as a fully periodic n x n x n hex mesh."""
    ijk = np.stack(np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    corners = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
    lower = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 1, 3)
    cell_ijk = lower + corners
    cells = (cell_ijk[..., 0] * (n + 1) + cell_ijk[..., 1]) * (n + 1) + cell_ijk[..., 2]
    wrapped = ijk % n
    reduced = (wrapped[:, 0] * n + wrapped[:, 1]) * n + wrapped[:, 2]
    return Mesh(ijk / n, cells, dim=3, reduced_index=reduced)


def test_periodic_3d_box_conserves_exactly_over_ranks():
    mat = assemble(periodic_hex_box(4))
    assert mat.n == 64
    U = random_field(np.random.default_rng(11), mat.n, dim=3)
    before = mat.m_lumped @ U
    finals = []
    for settings in (dict(ranks=1), dict(ranks=3, workers=2)):
        s = Solver(mat, **settings)
        s.set_state(U)
        for _ in range(5):
            s.ssp_rk3_step()
        finals.append(s.get_state())
    assert not np.array_equal(finals[0], U)
    drift = np.abs(mat.m_lumped @ finals[0] - before) / np.abs(before)
    assert drift.max() <= 1e-13, drift
    assert same_bits(finals[1], finals[0])


def star_matrices(leaves):
    """The matrices of a 2D stencil graph of one hub joined to every one of
    its leaves, whose stencils hold only themselves and the hub: the hub's
    stencil is leaves + 1 slots wide."""
    n = leaves + 1
    rows = [np.arange(n)] + [np.array([0, i]) for i in range(1, n)]
    indices = np.concatenate(rows)
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    rng = np.random.default_rng(leaves)
    m_lumped = np.diff(indptr).astype(np.float64)
    return assembly.PrecomputedMatrices(
        n=n, dim=2, indptr=indptr, indices=indices, m=np.ones(len(indices)),
        c=rng.normal(size=(len(indices), 2)), m_lumped=m_lumped, inv_m=1.0 / m_lumped)


@pytest.mark.parametrize("ranks", [1, 2])
def test_a_stencil_wider_than_a_slot_number_holds_is_rejected_at_setup(ranks):
    # slot numbers and row lengths are uint8: a 255-slot stencil is bound, a
    # 256-slot one raises instead of wrapping its row length to 0
    s = Solver(star_matrices(254), ranks=ranks)
    assert s.pad_width == 255 and max(int(rk.card.max()) for rk in s.ranks) == 255
    with pytest.raises(ValueError, match="256 slots is wider than the 255"):
        Solver(star_matrices(255), ranks=ranks)
