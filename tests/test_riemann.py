"""Two-rarefaction wavespeed bound against an exact iterative Riemann solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerflow import physics, riemann
from eulerflow.physics import AIR, AdmissibilityError

import oracles


def pair(rng, dim):
    def one():
        rho = 0.1 + 2.0 * rng.random()
        vel = rng.normal(0.0, 1.0, dim)
        p = 0.05 + 2.0 * rng.random()
        return oracles.primitive_to_conserved(rho, vel, p)
    n = rng.normal(0.0, 1.0, dim)
    n /= np.linalg.norm(n)
    return one(), one(), n


def test_identity_pair_gives_normal_speed_plus_sound():
    rng = np.random.default_rng(21)
    for _ in range(50):
        U, _, n = pair(rng, 2)
        lam = float(riemann.lambda_max(U, U, n))
        u_n = float(U[1:-1] @ n) / U[0]
        c = float(oracles.speed_of_sound(U))
        assert lam == pytest.approx(abs(u_n) + c, abs=1e-10)


def test_rest_state_gives_sound_speed():
    U = oracles.primitive_to_conserved(1.0, [0.0, 0.0], 1.0)
    lam = float(riemann.lambda_max(U, U, np.array([1.0, 0.0])))
    assert lam == pytest.approx(float(oracles.speed_of_sound(U)), abs=1e-12)


def test_projection_preserves_internal_energy():
    rng = np.random.default_rng(4)
    for _ in range(30):
        U, _, n = pair(rng, 3)
        S = riemann.project(U, n)
        eps = float(physics.internal_energy(U))
        eps_proj = S.E - 0.5 * S.m * S.m / S.rho
        assert eps_proj == pytest.approx(eps, rel=1e-13)


def test_projection_rejects_inadmissible():
    bad = np.array([1.0, 5.0, 0.0, 1.0])  # negative internal energy
    with pytest.raises(AdmissibilityError):
        riemann.project(bad, np.array([1.0, 0.0]))


def test_two_rarefaction_pstar_solves_psi_for_double_rarefaction():
    # diverging velocities make both waves rarefactions, where the
    # two-rarefaction pressure is the exact star pressure
    Li = riemann.project(
        oracles.primitive_to_conserved(1.0, [-0.5], 1.0), np.array([1.0])
    )
    Rj = riemann.project(
        oracles.primitive_to_conserved(0.8, [0.7], 0.9), np.array([1.0])
    )
    p_star = float(riemann.two_rarefaction_pstar(Li, Rj))
    res = float(riemann.psi(np.array(p_star), Li, Rj))
    assert res == pytest.approx(0.0, abs=1e-12)
    exact = oracles.exact_pstar(1.0, -0.5, 1.0, 0.8, 0.7, 0.9)
    assert p_star == pytest.approx(exact, rel=1e-10)


def test_wavespeed_bound_sample():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 300:
        Ui, Uj, n = pair(rng, 2)
        Li = riemann.project(Ui, n)
        Rj = riemann.project(Uj, n)
        try:
            exact = oracles.exact_lambda_max(Li.rho, Li.u, Li.p, Rj.rho, Rj.u, Rj.p)
        except ValueError:
            continue  # vacuum-generating sample
        lam = float(riemann.lambda_max(Ui, Uj, n))
        assert lam >= exact - 1e-12
        checked += 1


def test_d_ij_symmetry_and_zero_c():
    rng = np.random.default_rng(13)
    Ui, Uj, _ = pair(rng, 2)
    c_ij = rng.normal(0.0, 1.0, 2)
    c_ji = rng.normal(0.0, 1.0, 2)
    d1 = riemann.d_ij_low(Ui, Uj, c_ij, c_ji)
    d2 = riemann.d_ij_low(Uj, Ui, c_ji, c_ij)
    assert float(d1) == float(d2)
    zero = np.zeros(2)
    assert float(riemann.d_ij_low(Ui, Uj, zero, zero)) == 0.0
    # only one direction zero: the other still contributes
    assert float(riemann.d_ij_low(Ui, Uj, c_ij, zero)) > 0.0


def test_lambda_batch_matches_scalar():
    rng = np.random.default_rng(6)
    pairs = [pair(rng, 2) for _ in range(16)]
    Ui = np.array([p[0] for p in pairs])
    Uj = np.array([p[1] for p in pairs])
    n = np.array([p[2] for p in pairs])
    lam = riemann.lambda_max(Ui, Uj, n)
    for k in range(len(pairs)):
        assert lam[k] == float(riemann.lambda_max(Ui[k], Uj[k], n[k]))


def batched_operands(rng, dim, shape):
    """Admissible state pairs and c vectors of the given batch shape, with
    signed zero momenta and zero-length c vectors of either sign."""
    def states():
        rho = 10.0 ** rng.uniform(-3.0, 3.0, shape)
        vel = rng.normal(0.0, 2.0, shape + (dim,))
        vel[rng.random(shape + (dim,)) < 0.2] = 0.0
        vel[rng.random(shape + (dim,)) < 0.2] = -0.0
        p = 10.0 ** rng.uniform(-3.0, 3.0, shape)
        U = np.empty(shape + (dim + 2,))
        U[..., 0] = rho
        U[..., 1:-1] = rho[..., None] * vel
        U[..., -1] = p / AIR.gm1 + 0.5 * rho * (vel * vel).sum(axis=-1)
        return U

    def cs():
        c = rng.normal(0.0, 1.0, shape + (dim,))
        c[rng.random(shape) < 0.15] = 0.0
        c[rng.random(shape) < 0.15] = -0.0
        c[rng.random(shape + (dim,)) < 0.1] = -0.0
        return c

    return states(), states(), cs(), cs()


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shape", [(400,), (7, 60), ()])
def test_per_component_formulas_match_the_block_formulas_bitwise(dim, shape):
    rng = np.random.default_rng(10 * dim + len(shape))
    Ui, Uj, c_ij, c_ji = batched_operands(rng, dim, shape)
    if shape:
        assert (c_ij == 0.0).all(axis=-1).any() and np.signbit(c_ij).any()
    d = riemann.d_ij_low(Ui, Uj, c_ij, c_ji)
    assert same_bits(d, oracles.d_ij_low_block_reference(Ui, Uj, c_ij, c_ji))
    assert same_bits(d, riemann.d_ij_low(Uj, Ui, c_ji, c_ij))
    both_zero = (c_ij == 0.0).all(axis=-1) & (c_ji == 0.0).all(axis=-1)
    assert (d[both_zero] == 0.0).all() and (d[~both_zero] > 0.0).all()

    # batched directions with signed zero components, and one direction for all
    norm = np.linalg.norm(c_ij, axis=-1)
    n = c_ij / np.where(norm > 0.0, norm, 1.0)[..., None]
    n[norm == 0.0] = np.eye(dim)[0]
    for direction in (n, n.reshape(-1, dim)[0]):
        got = riemann.project(Ui, direction)
        want = oracles.project_block_reference(Ui, direction)
        for name in ("rho", "m", "E", "u", "p", "c"):
            assert same_bits(getattr(got, name), getattr(want, name))
        lam = riemann.lambda_max(Ui, Uj, direction)
        want = riemann._lambda_max_projected(
            oracles.project_block_reference(Ui, direction),
            oracles.project_block_reference(Uj, direction), AIR,
        )
        assert same_bits(lam, want)


@given(
    log_rho=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    log_p=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    mach=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=300, deadline=None)
def test_lambda_max_bounds_the_exact_wavespeed_at_extreme_ratios(log_rho, log_p, mach, sign):
    # densities 1e-10 to 1e10 and pressure ratios up to 1e12; velocities of
    # up to twice the smaller sound speed never open a vacuum
    rho = [10.0**x for x in log_rho]
    p = [10.0**x for x in log_p]
    c_min = min(np.sqrt(AIR.gamma * pk / rk) for pk, rk in zip(p, rho))
    Ui, Uj = (oracles.primitive_to_conserved(rk, [m * c_min], pk)
              for rk, m, pk in zip(rho, mach, p))
    n = np.array([sign])
    Li, Rj = riemann.project(Ui, n), riemann.project(Uj, n)
    exact = oracles.exact_lambda_max(Li.rho, Li.u, Li.p, Rj.rho, Rj.u, Rj.p)
    lam = float(riemann.lambda_max(Ui, Uj, n))
    # brentq places the exact p* within 1e-15 in absolute terms, which moves
    # a shock speed by up to about 0.5e-15 / p <= 1e-9 in relative terms
    assert lam >= exact * (1.0 - 1e-8)
