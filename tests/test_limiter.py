"""Convex limiter: bracket safety, quadratic exactness, feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerflow import limiter, physics
from eulerflow.limiter import (
    TOL_SCALE,
    limiter_compute,
    psi_entropy,
    quadratic_newton_step,
)
from eulerflow.physics import AIR

import oracles


def make_case(rng, dim=2):
    """Admissible state, neighbor-derived bounds and a correction vector."""
    states = np.zeros((6, dim + 2))
    states[:, 0] = 0.3 + 1.5 * rng.random(6)
    states[:, 1:-1] = rng.normal(0.0, 0.5, (6, dim)) * states[:, 0:1]
    p = 0.2 + rng.random(6)
    states[:, -1] = p / AIR.gm1 + 0.5 * (states[:, 1:-1] ** 2).sum(axis=1) / states[:, 0]
    U = states[0]
    phi = oracles.specific_entropy_phi(states)
    rho_min = states[:, 0].min()
    rho_max = states[:, 0].max()
    phi_min = phi.min()
    P = rng.normal(0.0, 0.4, dim + 2)
    return U, P, rho_min, rho_max, phi_min


def test_exact_quadratic_root_in_one_step():
    # Psi(t) = (t - r)(t - r - 2) is concave-free quadratic with root r in
    # (0, 1); the divided-difference Newton step with sign -1 lands on it
    for r in (0.2, 0.5, 0.9):
        def Psi(t):
            return (t - r) * (t - r - 2.0)

        def dPsi(t):
            return 2.0 * t - 2.0 * r - 2.0

        t_L, t_R = 0.0, 1.0
        new_L, new_R = quadratic_newton_step(
            np.array(t_L), np.array(t_R),
            np.array(Psi(t_L)), np.array(Psi(t_R)),
            np.array(dPsi(t_L)), np.array(dPsi(t_R)),
        )
        assert float(new_L) == pytest.approx(r, abs=1e-12)
        assert float(new_R) == pytest.approx(r, abs=1e-12)


def test_cubic_brackets_shrink_monotonically():
    # Psi(t) = 1 - t^3 on [0, 1.2]: single root at t = 1, negative third
    # derivative, so sign -1 applies
    def Psi(t):
        return 1.0 - t**3

    def dPsi(t):
        return -3.0 * t * t

    t_L, t_R = np.array(0.0), np.array(1.2)
    widths = [float(t_R - t_L)]
    for _ in range(2):
        t_L, t_R = quadratic_newton_step(
            t_L, t_R, np.array(Psi(t_L)), np.array(Psi(t_R)),
            np.array(dPsi(t_L)), np.array(dPsi(t_R)),
        )
        assert 0.0 <= float(t_L) <= float(t_R) <= 1.2
        assert float(t_L) <= 1.0 <= float(t_R)
        widths.append(float(t_R - t_L))
    assert widths[2] < widths[1] < widths[0]


def test_psi_left_zero_keeps_endpoint():
    t_L, t_R = np.array(0.3), np.array(0.8)
    new_L, _ = quadratic_newton_step(
        t_L, t_R, np.array(0.0), np.array(-1.0), np.array(-1.0), np.array(-1.0)
    )
    assert float(new_L) == 0.3


@given(
    t_L=st.floats(0.0, 1.0),
    width=st.floats(0.0, 1.0),
    vals=st.tuples(*[st.floats(-1e6, 1e6) for _ in range(4)]),
)
@settings(max_examples=300, deadline=None)
def test_bracket_never_escapes(t_L, width, vals):
    t_R = min(t_L + width, 1.0)
    Psi_L, Psi_R, dPsi_L, dPsi_R = vals
    new_L, new_R = quadratic_newton_step(
        np.array(t_L), np.array(t_R),
        np.array(Psi_L), np.array(Psi_R),
        np.array(dPsi_L), np.array(dPsi_R),
    )
    assert t_L <= float(new_L) <= t_R
    assert t_L <= float(new_R) <= t_R
    assert np.isfinite(new_L) and np.isfinite(new_R)


def test_result_respects_density_and_entropy_constraints():
    rng = np.random.default_rng(51)
    for _ in range(200):
        U, P, rho_min, rho_max, phi_min = make_case(rng)
        t = float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=2))
        assert 0.0 <= t <= 1.0
        V = U + t * P
        tol = TOL_SCALE * abs(U[0] * U[-1] - 0.5 * float(U[1:-1] @ U[1:-1]))
        assert rho_min - 1e-11 <= V[0] <= rho_max + 1e-11
        assert float(psi_entropy(V, phi_min)) >= -tol


def test_converges_to_bisection_oracle():
    rng = np.random.default_rng(99)
    tested = 0
    for _ in range(300):
        U, P, rho_min, rho_max, phi_min = make_case(rng)
        t_ref = oracles.limiter_bisection(U, P, rho_min, rho_max, phi_min)
        t4 = float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=4))
        # never overshoot the maximal feasible factor
        assert t4 <= t_ref + 1e-9
        tol = TOL_SCALE * abs(U[0] * U[-1] - 0.5 * float(U[1:-1] @ U[1:-1]))
        if float(psi_entropy(U, phi_min)) <= tol:
            # U sits on the entropy bound; the limiter stops at zero by design
            continue
        tested += 1
        if t_ref < 1.0 - 1e-9:
            # interior roots: four Newton iterations reach the oracle
            assert t4 == pytest.approx(t_ref, abs=1e-6)
    assert tested > 100


def test_more_newton_steps_never_decrease_quality():
    rng = np.random.default_rng(123)
    for _ in range(100):
        U, P, rho_min, rho_max, phi_min = make_case(rng)
        t2 = float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=2))
        t6 = float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=6))
        assert t6 >= t2 - 1e-12


def test_zero_correction_returns_full_step():
    U = np.array([1.0, 0.2, 0.0, 2.6])
    phi_min = float(oracles.specific_entropy_phi(U)) - 1e-3
    t = float(limiter_compute(U, np.zeros(4), 0.5, 2.0, phi_min))
    assert t == 1.0


def test_density_clamp_handles_overshoot():
    U = np.array([1.0, 0.0, 0.0, 2.5])
    P = np.array([5.0, 0.0, 0.0, 12.5])  # pushes density far above rho_max
    t = float(limiter_compute(U, P, 0.9, 1.5, 0.0))
    V = U + t * P
    assert V[0] == pytest.approx(1.5, abs=1e-12)


def stepper_shaped_case(rng, n=12, L=9, dim=2):
    """Base states (n, 1, nvar), directions (n, L, nvar), row bounds (n, 1).

    Even rows sit on their entropy bound (phi_min = phi(U)), odd rows have
    slack.  Per row, the entries mix small directions, directions that drain
    internal energy and directions that push the density past its bounds.
    """
    nvar = dim + 2
    U = np.zeros((n, 1, nvar))
    U[:, 0, 0] = 0.5 + rng.random(n)
    U[:, 0, 1:-1] = rng.normal(0.0, 0.5, (n, dim)) * U[:, 0, :1]
    p = 0.5 + rng.random(n)
    U[:, 0, -1] = p / AIR.gm1 + 0.5 * (U[:, 0, 1:-1] ** 2).sum(axis=1) / U[:, 0, 0]
    phi = oracles.specific_entropy_phi(U[:, 0])
    phi_min = np.where(np.arange(n) % 2 == 0, phi, 0.9 * phi)[:, None]
    rho_min = 0.7 * U[..., 0]
    rho_max = 1.3 * U[..., 0]
    rho_eps = physics.internal_energy(U)  # (n, 1), per unit volume
    P = rng.normal(0.0, 1e-3, (n, L, nvar)) * np.abs(U)
    # entries 0-2 stay small (entry 0 adds energy); 3-5 drain 30-90% of the
    # internal energy; 6-8 also move the density by 50-100%
    P[:, 0, -1] = np.abs(P[:, 0, -1]) + 1e-2 * rho_eps[:, 0]
    P[:, 3:, -1] -= rng.uniform(0.3, 0.9, (n, L - 3)) * rho_eps
    sign = rng.choice([-1.0, 1.0], (n, L - 6))
    P[:, 6:, 0] = sign * rng.uniform(0.5, 1.0, (n, L - 6)) * U[:, :, 0]
    return U, P, rho_min, rho_max, phi_min


def entry_kinds(U, P, rho_min, rho_max, phi_min):
    """How the entries of a stepper-shaped batch leave the limiter iteration."""
    kinds = set()
    n, L, _ = P.shape
    for i in range(n):
        tol = TOL_SCALE * abs(float(psi_entropy(U[i, 0], 0.0)))
        psi_0 = float(psi_entropy(U[i, 0], phi_min[i, 0]))
        for s in range(L):
            V = U[i, 0] + P[i, s]
            if not rho_min[i, 0] <= V[0] <= rho_max[i, 0]:
                kinds.add("density clamp")
            elif float(psi_entropy(V, phi_min[i, 0])) >= 0.0:
                kinds.add("closes at t_R")
            elif psi_0 <= tol:
                kinds.add("stops on Psi_L <= tol")
            else:
                kinds.add("needs Newton")
    return kinds


def test_batched_matches_scalar():
    rng = np.random.default_rng(7)
    cases = [make_case(rng) for _ in range(32)]
    U = np.array([c[0] for c in cases])
    P = np.array([c[1] for c in cases])
    rmin = np.array([c[2] for c in cases])
    rmax = np.array([c[3] for c in cases])
    pmin = np.array([c[4] for c in cases])
    batch = limiter_compute(U, P, rmin, rmax, pmin)
    for k, c in enumerate(cases):
        assert batch[k] == float(limiter_compute(*c))

    # the stepper's call shape: one base state per row against a row of
    # directions, bounds per row
    U, P, rho_min, rho_max, phi_min = stepper_shaped_case(rng)
    n, L, _ = P.shape
    assert entry_kinds(U, P, rho_min, rho_max, phi_min) == {
        "density clamp", "closes at t_R", "stops on Psi_L <= tol", "needs Newton",
    }
    for max_newton in (0, 1, 2, 4):
        batch = limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=max_newton)
        assert batch.shape == (n, L)
        for i in range(n):
            for s in range(L):
                one = limiter_compute(
                    U[i, 0], P[i, s], rho_min[i, 0], rho_max[i, 0], phi_min[i, 0],
                    max_newton=max_newton,
                )
                assert batch[i, s] == one


def test_no_newton_steps_keep_the_admissible_clamped_step():
    # without Newton iterations an entry still takes its density-clamped t_R
    # where Psi(t_R) >= 0, and 0 elsewhere
    rng = np.random.default_rng(11)
    U, P, rho_min, rho_max, phi_min = stepper_shaped_case(rng)
    l0 = limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=0)
    l2 = limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=2)
    assert (l0 <= l2).all()
    n, L, _ = P.shape
    taken = 0
    for i in range(n):
        rho = U[i, 0, 0]
        for s in range(L):
            rho_p = P[i, s, 0]
            t_R = 1.0
            if rho + rho_p > rho_max[i, 0]:
                t_R = abs(rho_max[i, 0] - rho) / abs(rho_p)
            elif rho + rho_p < rho_min[i, 0]:
                t_R = abs(rho_min[i, 0] - rho) / abs(rho_p)
            t_R = min(max(t_R, 0.0), 1.0)
            if float(psi_entropy(U[i, 0] + t_R * P[i, s], phi_min[i, 0])) >= 0.0:
                assert l0[i, s] == t_R
                taken += 1
            else:
                assert l0[i, s] == 0.0
    assert 0 < taken < n * L

    U, P, rho_min, rho_max, phi_min = make_case(rng)
    P = 1e-3 * P
    assert float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=1)) == 1.0
    assert float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=0)) == 1.0


def primitive_state(rho, velocity, p):
    U = np.empty(len(velocity) + 2)
    U[0] = rho
    U[1:-1] = rho * np.asarray(velocity)
    U[-1] = p / AIR.gm1 + 0.5 * rho * float(np.dot(velocity, velocity))
    return U


@given(
    log_rho=st.floats(-10.0, 10.0),
    log_rho_ratio=st.floats(-3.0, 3.0),
    log_p_ratio=st.floats(-12.0, 12.0),
    mach=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    mach_target=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    lo=st.floats(0.0, 0.5),
    hi=st.floats(0.0, 1.0),
    slack=st.floats(0.0, 0.5),
    scale=st.floats(1e-3, 1.0),
)
@settings(max_examples=400, deadline=None)
def test_extreme_ratios_stay_feasible(
    log_rho, log_rho_ratio, log_p_ratio, mach, mach_target, lo, hi, slack, scale
):
    # a base state and a direction towards a state with up to 1e12 times
    # (or 1e-12 times) its pressure; the bounds admit the base state
    rho = 10.0**log_rho
    p = rho ** AIR.gamma
    c = np.sqrt(AIR.gamma * p / rho)
    U = primitive_state(rho, c * np.array(mach), p)
    rho_t = rho * 10.0**log_rho_ratio
    p_t = p * 10.0**log_p_ratio
    c_t = np.sqrt(AIR.gamma * p_t / rho_t)
    P = scale * (primitive_state(rho_t, c_t * np.array(mach_target), p_t) - U)
    rho_min, rho_max = rho * (1.0 - lo), rho * (1.0 + hi)
    phi_min = float(oracles.specific_entropy_phi(U)) * (1.0 - slack)

    l = float(limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=2))
    assert 0.0 <= l <= 1.0
    V = U + l * P
    assert rho_min * (1.0 - 1e-12) <= V[0] <= rho_max * (1.0 + 1e-12)
    tol = TOL_SCALE * abs(float(psi_entropy(U, 0.0)))
    assert float(psi_entropy(V, phi_min)) >= -tol


def test_dpsi_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        U, P, _, _, phi_min = make_case(rng)
        t = float(rng.random() * 0.5)
        h = 1e-7
        fd = (
            float(limiter.psi_entropy(U + (t + h) * P, phi_min))
            - float(limiter.psi_entropy(U + (t - h) * P, phi_min))
        ) / (2 * h)
        an = float(limiter.dpsi_dt(U, P, np.array(t), phi_min))
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-7)


# components of U + t P: ordinary values, signed zeros and extreme magnitudes
_component = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150),
)


@given(
    dim=st.integers(1, 3),
    rows=st.integers(1, 4),
    slots=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_psi_along_the_ray_matches_the_state_block_formula_bitwise(dim, rows, slots, data):
    # the limiter forms Psi(U + t P) one component at a time; the values must
    # be those of psi_entropy on the (..., d+2) block U + t[..., None] * P,
    # on a row state broadcast over the slots as the stepper passes it
    nvar = dim + 2
    block = st.lists(_component, min_size=rows * slots * nvar, max_size=rows * slots * nvar)
    rho = data.draw(st.lists(st.floats(1e-10, 1e10), min_size=rows, max_size=rows))
    rest = data.draw(st.lists(_component, min_size=rows * (nvar - 1), max_size=rows * (nvar - 1)))
    U = np.column_stack([rho, np.reshape(rest, (rows, nvar - 1))])
    U = np.broadcast_to(U[:, None], (rows, slots, nvar))
    P = np.reshape(data.draw(block), (rows, slots, nvar))
    t = np.reshape(data.draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), st.just(-0.0)), min_size=rows * slots, max_size=rows * slots,
    )), (rows, slots))
    phi_min = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=rows, max_size=rows)))[:, None]

    with np.errstate(all="ignore"):
        got = limiter._psi_on_ray(U, P, t, phi_min, AIR)
        want = psi_entropy(U + t[..., None] * P, phi_min)
    assert got.shape == want.shape == (rows, slots)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
