"""Convex limiter: the compiled stages against the numpy oracle, bracket
safety, quadratic exactness, feasibility.

The properties of the limiter's factors are asserted on compiled values
(oracles.compiled_limiter runs each entry as a row with one valid slot);
those of the Newton update formula and of Psi alone run on the numpy
oracle, which the compiled stages equal bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerflow import limiter, physics, rowkernels
from eulerflow.limiter import TOL_SCALE
from eulerflow.physics import AIR

import oracles
from oracles import compiled_limiter, psi_entropy, quadratic_newton_step


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
        t = float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2))
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
        t4 = float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=4))
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
        t2 = float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2))
        t6 = float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=6))
        assert t6 >= t2 - 1e-12


def test_zero_correction_returns_full_step():
    U = np.array([1.0, 0.2, 0.0, 2.6])
    phi_min = float(oracles.specific_entropy_phi(U)) - 1e-3
    t = float(compiled_limiter(U, np.zeros(4), 0.5, 2.0, phi_min))
    assert t == 1.0


def test_entry_on_the_tolerance_stops_at_t_L():
    # Psi(U) equals tol exactly: Psi(t_L) <= tol stops the entry at t_L = 0,
    # although a Newton step would move it to the root of Psi near 1.7e-10.
    # tol = 2^-33 is a multiple of the spacing of the doubles near E, so
    # E - phi_min is exactly tol
    tol = 2.0**-33
    E = tol / TOL_SCALE
    U, P, phi_min = np.array([1.0, 0.0, 0.0, E]), np.array([0.0, 0.0, 0.0, -E]), E - tol
    assert TOL_SCALE * E == tol and float(psi_entropy(U, phi_min)) == tol
    for max_newton in (1, 2, 4):
        assert float(compiled_limiter(U, P, 0.5, 2.0, phi_min, max_newton=max_newton)) == 0.0


def test_density_clamp_handles_overshoot():
    U = np.array([1.0, 0.0, 0.0, 2.5])
    P = np.array([5.0, 0.0, 0.0, 12.5])  # pushes density far above rho_max
    t = float(compiled_limiter(U, P, 0.9, 1.5, 0.0))
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


def chunk_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2, lo=0):
    """The compiled limiter of the stepper-shaped case's rows [lo, n) as one
    chunk: (the factors of its slots, NaN before row lo, and those of its
    entries)."""
    n, L, _ = P.shape
    l = np.full((n, L), np.nan)
    factors = limiter.limiter_compute(
        oracles.bind(card=np.full(n, L, dtype=np.uint8), U_next=np.ascontiguousarray(U[:, 0]),
                     P=np.ascontiguousarray(P), rho_min=rho_min[:, 0].copy(),
                     rho_max=rho_max[:, 0].copy(), phi_min=phi_min[:, 0].copy(), l=l),
        lo, n, max_newton=max_newton,
    )
    return l, factors


def test_batched_matches_scalar():
    rng = np.random.default_rng(7)
    cases = [make_case(rng) for _ in range(32)]
    U = np.array([c[0] for c in cases])
    P = np.array([c[1] for c in cases])
    rmin = np.array([c[2] for c in cases])
    rmax = np.array([c[3] for c in cases])
    pmin = np.array([c[4] for c in cases])
    batch = compiled_limiter(U, P, rmin, rmax, pmin)
    for k, c in enumerate(cases):
        assert batch[k] == float(compiled_limiter(*c))

    # the stepper's call shape: one chunk of rows, each with one base state,
    # its bounds and a row of directions; from row 0 and from row 5 on
    U, P, rho_min, rho_max, phi_min = stepper_shaped_case(rng)
    n, L, _ = P.shape
    assert entry_kinds(U, P, rho_min, rho_max, phi_min) == {
        "density clamp", "closes at t_R", "stops on Psi_L <= tol", "needs Newton",
    }
    for max_newton in (0, 1, 2, 4):
        one = compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=max_newton)
        assert one.shape == (n, L)
        for lo in (0, 5):
            l, factors = chunk_limiter(U, P, rho_min, rho_max, phi_min, max_newton, lo)
            # one entry per slot whose P is not all +-0
            assert factors.shape == (np.count_nonzero((P[lo:] != 0.0).any(axis=-1)),)
            assert np.isnan(l[:lo]).all()
            assert np.array_equal(l[lo:], one[lo:])


def test_no_newton_steps_keep_the_admissible_clamped_step():
    # without Newton iterations an entry still takes its density-clamped t_R
    # where Psi(t_R) >= 0, and 0 elsewhere
    rng = np.random.default_rng(11)
    U, P, rho_min, rho_max, phi_min = stepper_shaped_case(rng)
    l0, _ = chunk_limiter(U, P, rho_min, rho_max, phi_min, max_newton=0)
    l2, _ = chunk_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2)
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
    assert float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=1)) == 1.0
    assert float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=0)) == 1.0


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

    l = float(compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2))
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
            float(psi_entropy(U + (t + h) * P, phi_min))
            - float(psi_entropy(U + (t - h) * P, phi_min))
        ) / (2 * h)
        an = float(oracles.dpsi_dt(U, P, np.array(t), phi_min))
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
        got = oracles._psi_on_ray(U, P, t, phi_min, AIR)
        want = psi_entropy(U + t[..., None] * P, phi_min)
    assert got.shape == want.shape == (rows, slots)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def conserved(rho, velocity, p):
    """States of densities rho (n,), velocities (n, dim) and pressures (n,)."""
    U = np.empty((len(rho), velocity.shape[1] + 2))
    U[:, 0] = rho
    U[:, 1:-1] = rho[:, None] * velocity
    U[:, -1] = p / AIR.gm1 + 0.5 * rho * physics.component_sum(velocity * velocity)
    return U


_signed_zero = st.sampled_from([0.0, -0.0])
# velocities in units of the sound speed, signed zeros included
_mach = st.one_of(st.floats(-3.0, 3.0), _signed_zero)


@given(dim=st.integers(1, 3), rows=st.integers(1, 5), width=st.integers(1, 6),
       max_newton=st.integers(0, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_limiter_equals_the_numpy_oracle_bitwise(dim, rows, width, max_newton, data):
    # base states with rho and p from 1e-10 to 1e10; directions towards
    # states of up to 1e12 (or 1e-12) times the pressure and 1e3 times the
    # density, or all +-0, or +-0 in some components; bounds that admit the
    # base state, down to a near-vacuum rho_min, and entropy bounds with
    # slack, on the base state's phi or above it, where a zero direction
    # would not be admissible.  A valid slot whose P is all +-0 takes 1.  The
    # pads of P hold NaN, which must not be read, and l's pads and rows
    # before lo a NaN of their own, which must not be written
    nvar = dim + 2
    lo = data.draw(st.integers(0, rows - 1))
    card = data.draw(hnp.arrays(np.uint8, rows, elements=st.integers(1, width)))
    valid = np.arange(width) < card[:, None]

    def draw(shape, elements):
        return data.draw(hnp.arrays(np.float64, shape, elements=elements))

    def states(shape, log_rho, log_p):
        rho, p = 10.0 ** log_rho, 10.0 ** log_p
        mach = draw(shape + (dim,), _mach).reshape(-1, dim)
        c = np.sqrt(AIR.gamma * p / rho)
        return conserved(rho.reshape(-1), c.reshape(-1, 1) * mach, p.reshape(-1))

    log_rho = draw(rows, st.floats(-10.0, 10.0))
    log_p = draw(rows, st.floats(-10.0, 10.0))
    U = states((rows,), log_rho, log_p)
    target = states(
        (rows, width),
        log_rho[:, None] + draw((rows, width), st.floats(-12.0, 3.0)),
        log_p[:, None] + draw((rows, width), st.floats(-12.0, 12.0)),
    ).reshape(rows, width, nvar)
    scale = draw((rows, width, 1), st.floats(1e-3, 1.0))
    P = scale * (target - U[:, None])
    kind = draw((rows, width, nvar), st.sampled_from([0, 0, 0, 1, 2]))
    P = np.where(kind == 1, 0.0, np.where(kind == 2, -0.0, P))
    still = data.draw(hnp.arrays(np.bool_, (rows, width)))
    P = np.where(still[..., None], draw((rows, width, nvar), _signed_zero), P)
    P[~valid] = np.nan

    rho = U[:, 0]
    below = draw(rows, st.one_of(st.floats(0.0, 0.5), st.floats(0.999999, 1.0)))
    rho_min, rho_max = rho * (1.0 - below), rho * (1.0 + draw(rows, st.floats(0.0, 1.0)))
    slack = draw(rows, st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(-0.5, 0.0)))
    phi_min = oracles.specific_entropy_phi(U) * (1.0 - slack)

    untouched = np.array(0x7FF8000000000ABC, dtype=np.int64).view(np.float64)
    got_l, want_l = np.full((rows, width), untouched), np.full((rows, width), untouched)
    with np.errstate(all="ignore"):
        got = limiter.limiter_compute(
            oracles.bind(card=card, U_next=U, P=P, rho_min=rho_min, rho_max=rho_max,
                         phi_min=phi_min, l=got_l), lo, rows,
            max_newton=max_newton)
        want = oracles.limiter_rows_reference(lo, rows, card, U, P, rho_min, rho_max, phi_min,
                                              want_l, max_newton=max_newton)
    moving = valid[lo:] & (P[lo:] != 0.0).any(axis=-1)
    assert got.shape == (np.count_nonzero(moving),)
    assert got.tobytes() == want.tobytes()
    assert got_l.tobytes() == want_l.tobytes()
    assert (got_l[lo:][valid[lo:] & ~moving] == 1.0).all()
    assert np.array_equal(np.isnan(got_l), ~valid | (np.arange(rows) < lo)[:, None])
    assert ((got >= 0.0) & (got <= 1.0)).all()


def test_every_pow_value_comes_from_the_bound_power_loop(monkeypatch):
    # the kernels raise to powers with the loop bound when their binding is
    # made.  With np.float_power's loop bound, which is libm's pow and
    # differs from np.power in the last bit, and the oracles taking
    # np.float_power through physics.power, the compiled limiter, wavespeed
    # and step 0 still equal the oracles, and differ from the np.power run:
    # no kernel evaluates a pow of its own
    rng = np.random.default_rng(5)
    U, P, rho_min, rho_max, phi_min = stepper_shaped_case(rng)
    n, L, _ = P.shape
    card = np.full(n, L, dtype=np.uint8)
    # wavespeed pairs, every other one with c_ji = -c_ij (one direction); the
    # star pressure moves the bound only where it lies between the pressures
    # of the ends, so a few of them show the pow() values
    E = 1024
    Ui, Uj = (conserved(10.0 ** rng.uniform(-2, 2, E), rng.normal(0.0, 1.0, (E, 2)),
                        10.0 ** rng.uniform(-2, 2, E)) for _ in range(2))
    c_ij, c_ji = rng.normal(0.0, 1.0, (2, E, 2))
    c_ji[::2] = -c_ij[::2]
    runs = []
    for ufunc in (np.power, np.float_power):
        monkeypatch.setattr(rowkernels, "POWER", rowkernels.power_loop(ufunc))
        physics.set_power_function(ufunc)
        try:
            run = []
            for max_newton in (0, 1, 2, 4):
                got, _ = chunk_limiter(U, P, rho_min, rho_max, phi_min, max_newton, lo=1)
                want = np.full((n, L), np.nan)
                oracles.limiter_rows_reference(1, n, card, U[:, 0], P, rho_min[:, 0],
                                               rho_max[:, 0], phi_min[:, 0], want, max_newton)
                assert got.tobytes() == want.tobytes()
                run.append(got)
            got = oracles.compiled_d_ij_low(Ui, Uj, c_ij, c_ji)[0]
            assert got.tobytes() == oracles.d_ij_low(Ui, Uj, c_ij, c_ji).tobytes()
            run.append(got)
            eor, phi, eta_scale = np.empty(E), np.empty(E), np.empty(E)
            assert oracles.bind(U=Ui, eor=eor, phi=phi, eta_scale=eta_scale).entropies(
                0, E, E, AIR) == 0
            assert eor.tobytes() == (oracles.harten_entropy(Ui) / Ui[:, 0]).tobytes()
            assert phi.tobytes() == oracles.specific_entropy_phi(Ui).tobytes()
            assert eta_scale.tobytes() == oracles.eta_scale(Ui).tobytes()
            runs.append(run + [eor, phi, eta_scale])
        finally:
            physics.set_power_function(None)
    # the limiter without Newton steps evaluates Psi(t_R) only, whose pow
    # rarely moves a factor
    for with_power, with_float_power in list(zip(*runs))[1:]:
        assert not np.array_equal(with_power, with_float_power)
