"""End-to-end acceptance checks, one per guaranteed property.

Each test prints a single pass/fail line (visible with pytest -s, or in the
captured output on failure) and asserts the same condition.
"""

import numpy as np

from eulerflow import perf, physics, problems
from eulerflow.assembly import assemble
from eulerflow.mesh import rectangle_mesh
from eulerflow.physics import AIR
from eulerflow.sparsity import build_pattern, renumber
from eulerflow.stepper import Solver

import oracles
from oracles import compiled_limiter, psi_entropy, quadratic_newton_step


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def _random_states(rng, count, dim=2):
    U = np.zeros((count, dim + 2))
    U[:, 0] = 0.1 + 1.9 * rng.random(count)
    vel = rng.normal(0.0, 1.5, (count, dim))
    U[:, 1:-1] = U[:, 0:1] * vel
    p = 0.05 + 2.0 * rng.random(count)
    U[:, -1] = p / AIR.gm1 + 0.5 * U[:, 0] * (vel**2).sum(axis=1)
    return U, vel, p


def _limiter_case(rng, dim=2):
    states = np.zeros((6, dim + 2))
    states[:, 0] = 0.3 + 1.5 * rng.random(6)
    states[:, 1:-1] = rng.normal(0.0, 0.5, (6, dim)) * states[:, 0:1]
    p = 0.2 + rng.random(6)
    states[:, -1] = p / AIR.gm1 + 0.5 * (states[:, 1:-1] ** 2).sum(axis=1) / states[:, 0]
    return (
        states[0],
        rng.normal(0.0, 0.4, dim + 2),
        states[:, 0].min(),
        states[:, 0].max(),
        oracles.specific_entropy_phi(states).min(),
    )


# ----- 1: invariant domain on the cylinder benchmark --------------------------

def test_criterion_01_invariant_domain():
    setup = problems.mach3_channel(2, refine=3)
    mat = assemble(setup.mesh)
    s = Solver(mat, c_cfl=0.9, limiter_passes=2, boundary=setup.boundary)
    s.set_state(setup.U0)
    worst = [np.inf]

    def check(step, t):
        U = s.get_state()
        eps = physics.internal_energy(U)
        worst[0] = min(worst[0], U[:, 0].min(), eps.min())
        assert (U[:, 0] > 0.0).all() and (eps > 0.0).all()

    # every forward-Euler stage is additionally hard-checked inside the solver
    steps = s.advance(0.2, on_step=check)
    _report(1, "invariant domain", worst[0] > 0.0,
            f"{mat.n} nodes, {steps} RK steps, min(rho, eps)={worst[0]:.3e}")


# ----- 2: low-order entropy minimum principle ---------------------------------

def test_criterion_02_entropy_minimum_principle():
    setup = problems.mach3_channel(2, refine=3)
    mat = assemble(setup.mesh)
    s = Solver(mat, c_cfl=0.9, limiter_passes=0, boundary=setup.boundary)
    s.set_state(setup.U0)
    interior = np.ones(mat.n, dtype=bool)
    interior[setup.boundary.inflow_nodes] = False
    interior[setup.boundary.slip_nodes] = False
    indptr, indices = mat.indptr, mat.indices

    t, worst = 0.0, np.inf
    while t < 0.2 - 1e-14:
        ent_old = oracles.specific_entropy(s.get_state())
        stencil_min = np.minimum.reduceat(ent_old[indices], indptr[:-1])
        tau = s.euler_step(tau_max=0.2 - t)
        t += tau
        slack = (oracles.specific_entropy(s.get_state()) - stencil_min)[interior]
        worst = min(worst, slack.min())
        assert slack.min() >= -1e-12
    _report(2, "entropy minimum principle", worst >= -1e-12,
            f"worst interior slack {worst:.3e}")


# ----- 3: conservation ----------------------------------------------------------

def test_criterion_03_conservation():
    setup = problems.periodic_smooth(n=64)
    mat = assemble(setup.mesh)
    s = Solver(mat)
    s.set_state(setup.U0)
    before = (mat.m_lumped[:, None] * setup.U0).sum(axis=0)
    for _ in range(100):
        s.ssp_rk3_step()
    after = (mat.m_lumped[:, None] * s.get_state()).sum(axis=0)
    scale = np.maximum(np.abs(before), np.abs(before).max())
    drift = np.abs(after - before) / scale
    _report(3, "conservation", drift.max() <= 1e-11,
            f"max relative drift {drift.max():.3e} over 100 RK steps")


# ----- 4: constant-state preservation -------------------------------------------

def test_criterion_04_constant_state_preservation():
    mat = assemble(rectangle_mesh(8, 8, periodic=(True, True)))
    U = np.tile([1.4, 4.2, -1.1, 8.8], (mat.n, 1))
    s = Solver(mat)
    s.set_state(U)
    for _ in range(10):
        s.ssp_rk3_step()
    ok = np.array_equal(s.get_state(), U)
    _report(4, "constant-state preservation", ok, "bitwise after 10 RK steps")


# ----- 5: wavespeed bound vs the exact Riemann solver ----------------------------

def test_criterion_05_riemann_bound():
    rng = np.random.default_rng(2024)
    n_pairs = 10_000
    UL, velL, pL = _random_states(rng, n_pairs)
    UR, velR, pR = _random_states(rng, n_pairs)
    n = rng.normal(size=(n_pairs, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    # the compiled bound: d_ij with c_ij = n and c_ji = 0 is lambda(n) |n|
    lam_bound = oracles.compiled_lambda_max(UL, UR, n)
    worst = np.inf
    for i in range(n_pairs):
        ul, ur = float(velL[i] @ n[i]), float(velR[i] @ n[i])
        try:
            lam_exact = oracles.exact_lambda_max(
                UL[i, 0], ul, pL[i], UR[i, 0], ur, pR[i]
            )
        except ValueError:
            # vacuum-generating expansion: the star pressure vanishes and the
            # extreme speeds are the undisturbed acoustic ones
            cl = np.sqrt(AIR.gamma * pL[i] / UL[i, 0])
            cr = np.sqrt(AIR.gamma * pR[i] / UR[i, 0])
            lam_exact = max(max(-(ul - cl), 0.0), max(ur + cr, 0.0))
        worst = min(worst, lam_bound[i] - lam_exact)
    lam_same = oracles.compiled_lambda_max(UL, UL, n)
    expect = np.abs((velL * n).sum(axis=1)) + np.sqrt(AIR.gamma * pL / UL[:, 0])
    gap_same = np.abs(lam_same - expect).max()
    ok = worst >= -1e-12 and gap_same <= 1e-10
    _report(5, "riemann wavespeed bound", ok,
            f"min slack {worst:.3e}, identical-pair gap {gap_same:.3e}")


# ----- 6: limiter optimality and safety ------------------------------------------

def test_criterion_06_limiter_optimality():
    rng = np.random.default_rng(4096)
    n_cases = 10_000
    cases = [_limiter_case(rng) for _ in range(n_cases)]
    U = np.array([c[0] for c in cases])
    P = np.array([c[1] for c in cases])
    rmin = np.array([c[2] for c in cases])
    rmax = np.array([c[3] for c in cases])
    pmin = np.array([c[4] for c in cases])
    t4 = compiled_limiter(U, P, rmin, rmax, pmin, max_newton=4)

    # feasibility of every returned factor
    V = U + t4[:, None] * P
    rho_eps = U[:, 0] * U[:, -1] - 0.5 * (U[:, 1:-1] ** 2).sum(axis=1)
    tol = 1e-10 * np.abs(rho_eps)
    feasible = (
        (t4 >= 0.0) & (t4 <= 1.0)
        & (V[:, 0] >= rmin - 1e-11) & (V[:, 0] <= rmax + 1e-11)
        & (psi_entropy(V, pmin) >= -tol)
    )

    psi0 = psi_entropy(U, pmin)
    worst, compared = 0.0, 0
    for i in range(n_cases):
        t_ref = oracles.limiter_bisection(U[i], P[i], rmin[i], rmax[i], pmin[i],
                                          scan=512)
        assert t4[i] <= t_ref + 1e-9
        if psi0[i] <= tol[i]:
            # the base state already sits on the entropy bound; the limiter
            # returns zero by construction
            continue
        if t_ref < 1.0 - 1e-9:
            compared += 1
            worst = max(worst, abs(t4[i] - t_ref))
    ok = feasible.all() and worst <= 1e-6 and compared > 1000
    _report(6, "limiter optimality", ok,
            f"{compared} oracle comparisons, worst gap {worst:.3e}")


# ----- 7: bracketing quadratic Newton ---------------------------------------------

def test_criterion_07_quadratic_newton():
    ok = True
    detail = []
    # exact one-step recovery on quadratics
    for r in (0.1, 0.37, 0.62, 0.95):
        def psi(t):
            return (t - r) * (t - r - 2.0)

        def dpsi(t):
            return 2.0 * t - 2.0 * r - 2.0

        nL, nR = quadratic_newton_step(
            np.array(0.0), np.array(1.0), np.array(psi(0.0)), np.array(psi(1.0)),
            np.array(dpsi(0.0)), np.array(dpsi(1.0)),
        )
        ok &= abs(float(nL) - r) <= 1e-12 and abs(float(nR) - r) <= 1e-12
    detail.append("quadratic roots exact")

    # cubics with single-signed third derivative: brackets stay valid and shrink
    suite = [
        (lambda t: 1.0 - t**3, lambda t: -3.0 * t * t, 1.0, 1.2),
        (lambda t: 0.5 - (t - 0.2) - (t - 0.2) ** 3,
         lambda t: -1.0 - 3.0 * (t - 0.2) ** 2, None, 1.0),
        (lambda t: 2.0 + t - 8.0 * t**3, lambda t: 1.0 - 24.0 * t * t, None, 1.0),
    ]
    for psi, dpsi, root, hi in suite:
        t_L, t_R = np.array(0.0), np.array(hi)
        width = float(t_R - t_L)
        for _ in range(4):
            t_L, t_R = quadratic_newton_step(
                t_L, t_R, np.array(psi(float(t_L))), np.array(psi(float(t_R))),
                np.array(dpsi(float(t_L))), np.array(dpsi(float(t_R))),
            )
            ok &= float(psi(float(t_L))) >= -1e-12
            ok &= 0.0 <= float(t_L) <= float(t_R) <= hi
            new_width = float(t_R - t_L)
            ok &= new_width <= width + 1e-15
            width = new_width
        if root is not None:
            ok &= float(t_L) <= root + 1e-12
    detail.append("cubic brackets valid and shrinking")
    _report(7, "quadratic newton", ok, "; ".join(detail))


# ----- 8: stencil storage equivalence ----------------------------------------------

def test_criterion_08_storage_equivalence():
    import scipy.sparse as sp

    rng = np.random.default_rng(77)
    order_rng = np.random.default_rng(78)
    dim = 3
    checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 28))
        dense_pat = np.eye(n, dtype=bool)
        for i in range(n):
            for j in rng.integers(0, n, rng.integers(1, 4)):
                dense_pat[i, j] = dense_pat[j, i] = True
        conn = sp.csr_matrix(dense_pat.astype(np.int8))
        width = int(dense_pat.sum(axis=1).max())
        # one view of the whole graph in a random global order, as the solver
        # builds it in Cuthill-McKee ids; each row order selects its rows
        order = order_rng.permutation(n)
        whole = build_pattern(conn, order).padded()
        # three row orders: no exports, a random export set, and a random
        # export set with the last rows as ghosts
        n_owned = int(rng.integers(1, n + 1))
        layouts = [
            ((), n),
            (rng.choice(n, int(rng.integers(1, n + 1)), replace=False), n),
            (rng.choice(n_owned, int(rng.integers(0, n_owned + 1)), replace=False), n_owned),
        ]
        for ncomp in (1, dim, dim + 2):
            shape = (n, n) if ncomp == 1 else (n, n, ncomp)
            values = rng.normal(size=shape) * (
                dense_pat if ncomp == 1 else dense_pat[:, :, None]
            )
            per_layout = []
            for export_set, owned in layouts:
                numbering = renumber(n, export_set, n_owned=owned)
                pv = whole.select(order[numbering.inv])
                perm_pat = dense_pat[np.ix_(numbering.inv, numbering.inv)]
                cols, valid, trans_slot = oracles.slot_view_reference(
                    perm_pat, order[numbering.inv], width)
                assert np.array_equal(pv.cols, cols)
                assert np.array_equal(pv.valid, valid)
                assert np.array_equal(pv.trans_slot, trans_slot)
                perm = values[np.ix_(numbering.inv, numbering.inv)]
                rows = np.arange(n)[:, None]
                mask = valid if ncomp == 1 else valid[..., None]
                slots = np.where(mask, perm[rows, pv.cols], 0.0)
                back = np.zeros_like(perm)
                back[np.nonzero(valid)[0], pv.cols[valid]] = slots[valid]
                assert np.array_equal(back, perm)
                mirrored = slots[pv.cols, pv.trans_slot]
                assert np.array_equal(mirrored[valid], perm.swapaxes(0, 1)[rows, pv.cols][valid])
                # slot rows in the original row order
                per_layout.append(slots[numbering.perm])
            assert np.array_equal(per_layout[0], per_layout[1])
            assert np.array_equal(per_layout[0], per_layout[2])
            checked += 1
    _report(8, "storage equivalence", checked == 300,
            "100 graphs x components (1, d, d+2), 3 row orders, slot view bitwise")


# ----- 9: determinism across workers, ranks and overlap -----------------------------

def test_criterion_09_parallel_determinism():
    setup = problems.mach3_channel(2, refine=2)
    mat = assemble(setup.mesh)

    def run(workers, ranks, overlap=True):
        s = Solver(mat, boundary=setup.boundary, workers=workers, ranks=ranks,
                   overlap=overlap, chunk_size=128)
        s.set_state(setup.U0)
        for _ in range(20):
            s.ssp_rk3_step()
        return s.get_state()

    ref = run(1, 1)
    ok = True
    for cfg in [(4, 1), (1, 4), (4, 4)]:
        ok &= np.array_equal(ref, run(*cfg))
    ok &= np.array_equal(ref, run(4, 4, overlap=False))
    _report(9, "parallel determinism", ok,
            "bitwise over (workers, ranks) grid and overlap on/off, 20 RK steps")


# ----- 10: high- vs low-order accuracy ------------------------------------------------

def test_criterion_10_accuracy_ordering():
    t_final = 0.05
    errors = {}
    for n in (32, 64):
        setup = problems.periodic_smooth(n=n)
        mat = assemble(setup.mesh)
        rep_pts = np.zeros((mat.n, 2))
        rep_pts[setup.mesh.reduced_index] = setup.mesh.points
        U_ref = setup.exact(rep_pts, t_final)
        for passes in (0, 2):
            s = Solver(mat, limiter_passes=passes)
            s.set_state(setup.U0)
            s.advance(t_final)
            err = (mat.m_lumped * np.abs(s.get_state()[:, 0] - U_ref[:, 0])).sum()
            errors[(n, passes)] = err
    rate_low = np.log2(errors[(32, 0)] / errors[(64, 0)])
    ok = (
        errors[(32, 2)] <= errors[(32, 0)]
        and errors[(64, 2)] <= errors[(64, 0)]
        and rate_low >= 0.8
    )
    _report(10, "accuracy ordering", ok,
            f"L1 low ({errors[(32, 0)]:.3e}, {errors[(64, 0)]:.3e}), "
            f"high ({errors[(32, 2)]:.3e}, {errors[(64, 2)]:.3e}), "
            f"low-order rate {rate_low:.2f}")


# ----- 11: memory traffic model --------------------------------------------------------

def test_criterion_11_perf_model():
    pred = perf.predict_traffic(3)["step6"]
    ok = abs(pred.reads - 6.69) <= 0.05 and abs(pred.writes - 0.19) <= 0.05
    _report(11, "traffic model", ok,
            f"final update d=3: {pred.reads:.2f}r + {pred.writes:.2f}w per nnz")


# ----- 12: SSP-RK3 convex-combination algebra -------------------------------------------

def test_criterion_12_ssp_rk3_algebra():
    mat = assemble(rectangle_mesh(4, 4, periodic=(True, True)))
    s = Solver(mat)
    U0 = np.tile([1.0, 0.3, -0.1, 3.0], (mat.n, 1))
    s.set_state(U0)

    a = 0.9  # frozen linear stage operator U -> a U

    def fake_euler_step(tau=None, tau_max=np.inf):
        for rk in s.ranks:
            rk.U *= a
        return 1.0 if tau is None else tau

    s.euler_step = fake_euler_step
    s.ssp_rk3_step()
    expected = U0 / 3.0 + (2.0 / 3.0) * a * (0.75 * U0 + 0.25 * a * a * U0)
    gap = np.abs(s.get_state() - expected).max()
    _report(12, "ssp-rk3 algebra", gap <= 1e-14, f"max deviation {gap:.3e}")
