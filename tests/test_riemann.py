"""The compiled wavespeed bound against its numpy form and an exact
iterative Riemann solver.

riemann.d_ij_low runs in compiled stages; tests/oracles.py keeps the numpy
bound, which the compiled one must equal bit for bit.  The properties of
the bound are checked on the compiled values, those of the numpy
projection and star pressure on the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerflow import physics, riemann, stepper
from eulerflow.assembly import assemble
from eulerflow.mesh import rectangle_mesh
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
        lam = float(oracles.compiled_lambda_max(U, U, n))
        u_n = float(U[1:-1] @ n) / U[0]
        c = float(oracles.speed_of_sound(U))
        assert lam == pytest.approx(abs(u_n) + c, abs=1e-10)


def test_rest_state_gives_sound_speed():
    U = oracles.primitive_to_conserved(1.0, [0.0, 0.0], 1.0)
    lam = float(oracles.compiled_lambda_max(U, U, np.array([1.0, 0.0])))
    assert lam == pytest.approx(float(oracles.speed_of_sound(U)), abs=1e-12)


def test_projection_preserves_internal_energy():
    # projecting the momentum on n and taking the tangential kinetic energy
    # out of E keeps the internal energy: the 1D problem along n has the
    # node's pressure and sound speed, and v.n as its velocity
    rng = np.random.default_rng(4)
    for _ in range(30):
        U, _, n = pair(rng, 3)
        S = oracles.project(U, n)
        m_n = float(U[1:-1] @ n)
        tangential = U[1:-1] - m_n * n
        E_n = U[-1] - 0.5 * float(tangential @ tangential) / U[0]
        assert AIR.gm1 * (E_n - 0.5 * m_n * m_n / U[0]) == pytest.approx(float(S.p), rel=1e-13)
        assert float(S.p) == float(physics.pressure(U))
        assert float(S.u) == pytest.approx(m_n / U[0], rel=1e-13)


def test_projection_rejects_inadmissible():
    bad = np.array([1.0, 5.0, 0.0, 1.0])  # negative internal energy
    with pytest.raises(AdmissibilityError):
        oracles.project(bad, np.array([1.0, 0.0]))


def test_two_rarefaction_pstar_solves_psi_for_double_rarefaction():
    # diverging velocities make both waves rarefactions, where the
    # two-rarefaction pressure is the exact star pressure
    Li = oracles.project(
        oracles.primitive_to_conserved(1.0, [-0.5], 1.0), np.array([1.0])
    )
    Rj = oracles.project(
        oracles.primitive_to_conserved(0.8, [0.7], 0.9), np.array([1.0])
    )
    p_star = float(oracles.two_rarefaction_pstar(Li, Rj))
    res = float(oracles.psi(np.array(p_star), Li, Rj))
    assert res == pytest.approx(0.0, abs=1e-12)
    exact = oracles.exact_pstar(1.0, -0.5, 1.0, 0.8, 0.7, 0.9)
    assert p_star == pytest.approx(exact, rel=1e-10)


def test_wavespeed_bound_sample():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 300:
        Ui, Uj, n = pair(rng, 2)
        Li = oracles.project(Ui, n)
        Rj = oracles.project(Uj, n)
        try:
            exact = oracles.exact_lambda_max(Li.rho, Li.u, Li.p, Rj.rho, Rj.u, Rj.p)
        except ValueError:
            continue  # vacuum-generating sample
        lam = float(oracles.compiled_lambda_max(Ui, Uj, n))
        assert lam >= exact - 1e-12
        checked += 1


def test_d_ij_symmetry_and_zero_c():
    rng = np.random.default_rng(13)
    Ui, Uj, _ = pair(rng, 2)
    c_ij = rng.normal(0.0, 1.0, 2)
    c_ji = rng.normal(0.0, 1.0, 2)
    d1, _ = oracles.compiled_d_ij_low(Ui, Uj, c_ij, c_ji)
    d2, _ = oracles.compiled_d_ij_low(Uj, Ui, c_ji, c_ij)
    assert float(d1) == float(d2)
    # with c_ji = -c_ij the one direction evaluated is the one whose left
    # state has the lower pressure, whichever end is the row
    assert oracles.pressure_of(Ui) < oracles.pressure_of(Uj)
    d1, _ = oracles.compiled_d_ij_low(Ui, Uj, c_ij, -c_ij)
    d2, _ = oracles.compiled_d_ij_low(Uj, Ui, -c_ij, c_ij)
    n, norm = oracles._unit(c_ij)
    assert float(d1) == float(d2) == float(oracles.lambda_max(Ui, Uj, np.array(n)) * norm)
    zero = np.zeros(2)
    assert float(oracles.compiled_d_ij_low(Ui, Uj, zero, zero)[0]) == 0.0
    # only one direction zero: the other still contributes
    assert float(oracles.compiled_d_ij_low(Ui, Uj, c_ij, zero)[0]) > 0.0


def test_lambda_batch_matches_scalar():
    # an edge's value does not depend on the chunk it is in
    rng = np.random.default_rng(6)
    pairs = [pair(rng, 2) for _ in range(16)]
    Ui = np.array([p[0] for p in pairs])
    Uj = np.array([p[1] for p in pairs])
    n = np.array([p[2] for p in pairs])
    lam = oracles.compiled_lambda_max(Ui, Uj, n)
    for k in range(len(pairs)):
        assert lam[k] == float(oracles.compiled_lambda_max(Ui[k], Uj[k], n[k]))
        assert lam[k] == oracles.compiled_d_ij_low(Ui, Uj, n, np.zeros_like(n), e0=k)[0][0]


def batched_operands(rng, dim, shape, log_range=3.0, sonic=False):
    """Admissible state pairs and c vectors of the given batch shape, with
    signed zero momenta and zero-length c vectors of either sign.  rho and p
    range over 10^-log_range to 10^log_range; with sonic, the velocities are
    in units of each state's sound speed, so that p stays far above the
    rounding of E - |m|^2 / (2 rho)."""
    def states():
        rho = 10.0 ** rng.uniform(-log_range, log_range, shape)
        vel = rng.normal(0.0, 2.0, shape + (dim,))
        vel[rng.random(shape + (dim,)) < 0.2] = 0.0
        vel[rng.random(shape + (dim,)) < 0.2] = -0.0
        p = 10.0 ** rng.uniform(-log_range, log_range, shape)
        if sonic:
            vel *= np.sqrt(AIR.gamma * p / rho)[..., None]
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
    # half of the pairs have c_ji = -c_ij, whose bound is one direction; the
    # per-component oracle, the whole-block formulas and the compiled stages
    # agree bit for bit, and so do both orders of a pair's ends
    rng = np.random.default_rng(10 * dim + len(shape))
    Ui, Uj, c_ij, c_ji = batched_operands(rng, dim, shape)
    c_ji = np.where((rng.random(shape) < 0.5)[..., None], -c_ij, c_ji)
    one = oracles.mirrored(c_ij, c_ji)
    if shape:
        assert (c_ij == 0.0).all(axis=-1).any() and np.signbit(c_ij).any()
        assert one.any() and not one.all()
    d = oracles.d_ij_low(Ui, Uj, c_ij, c_ji)
    assert same_bits(d, oracles.d_ij_low_block_reference(Ui, Uj, c_ij, c_ji))
    assert same_bits(d, oracles.d_ij_low(Uj, Ui, c_ji, c_ij))
    assert same_bits(d, oracles.compiled_d_ij_low(Ui, Uj, c_ij, c_ji)[0])
    both_zero = (c_ij == 0.0).all(axis=-1) & (c_ji == 0.0).all(axis=-1)
    assert (d[both_zero] == 0.0).all() and (d[~both_zero] > 0.0).all()
    # a zero-length c has the unit normal e_1 in both directions: two directions
    assert not one[both_zero].any()


@given(
    log_rho=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    log_p=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    mach=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sign=st.sampled_from([1.0, -1.0]),
    one_direction=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_lambda_max_bounds_the_exact_wavespeed_at_extreme_ratios(log_rho, log_p, mach, sign,
                                                                 one_direction):
    # densities 1e-10 to 1e10 and pressure ratios up to 1e12; velocities of
    # up to twice the smaller sound speed never open a vacuum.  With
    # one_direction, c_ji = -n and the compiled bound evaluates one
    # direction, the mirror image of this problem where p_j < p_i
    rho = [10.0**x for x in log_rho]
    p = [10.0**x for x in log_p]
    c_min = min(np.sqrt(AIR.gamma * pk / rk) for pk, rk in zip(p, rho))
    Ui, Uj = (oracles.primitive_to_conserved(rk, [m * c_min], pk)
              for rk, m, pk in zip(rho, mach, p))
    n = np.array([sign])
    Li, Rj = oracles.project(Ui, n), oracles.project(Uj, n)
    exact = oracles.exact_lambda_max(Li.rho, Li.u, Li.p, Rj.rho, Rj.u, Rj.p)
    # c_ij = n is a coordinate axis of norm 1, so d_ij is lambda itself
    lam = float(oracles.compiled_lambda_max(Ui, Uj, n, one_direction=one_direction))
    # brentq places the exact p* within 1e-15 in absolute terms, which moves
    # a shock speed by up to about 0.5e-15 / p <= 1e-9 in relative terms
    assert lam >= exact * (1.0 - 1e-8)


def receding(rng, Ui, Uj, c_ij, c_ji, share=0.25):
    """Turn a share of the pairs into strongly receding ones: c_ji = -c_ij,
    sound speeds within a factor 10 of each other and velocities along n_ij
    of -+6 (c_i + c_j), so that u_R - u_L > 2 (c_L + c_R) / (gamma - 1) in
    both directions and the two-rarefaction base clamps to 0.  Returns the
    mask of those pairs."""
    mask = rng.random(len(Ui)) < share
    k = np.nonzero(mask)[0]
    c_ji[k] = -c_ij[k]
    rho_i, p_i = Ui[k, 0], oracles.pressure_of(Ui[k])
    rho_j, p_j = rho_i * 10.0 ** rng.uniform(-1.0, 1.0, len(k)), p_i * 10.0 ** rng.uniform(
        -1.0, 1.0, len(k))
    V = 6.0 * (np.sqrt(AIR.gamma * p_i / rho_i) + np.sqrt(AIR.gamma * p_j / rho_j))
    n, _ = stepper._unit_normals(c_ij[k])
    for U, rho, p, sign in ((Ui, rho_i, p_i, -1.0), (Uj, rho_j, p_j, 1.0)):
        vel = sign * V[:, None] * n
        U[k, 0] = rho
        U[k, 1:-1] = rho[:, None] * vel
        U[k, -1] = p / AIR.gm1 + 0.5 * rho * (vel * vel).sum(axis=-1)
    return mask


@given(dim=st.integers(1, 3), edges=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_compiled_wavespeed_equals_the_numpy_bound_bitwise(dim, edges, seed, data):
    # rho and p from 1e-10 to 1e10, signed zeros, zero-length c of either
    # sign, receding near-vacuum pairs, pairs with c_ji = -c_ij (one
    # direction) among general ones (two), and chunks that start at e0 > 0;
    # the compiled stages write the edges' slots of d and nothing else, and
    # give the same bits with the ends of every pair swapped
    rng = np.random.default_rng(seed)
    Ui, Uj, c_ij, c_ji = batched_operands(rng, dim, (edges,), log_range=10.0, sonic=True)
    clamped = receding(rng, Ui, Uj, c_ij, c_ji)
    mirror = rng.random(edges) < data.draw(st.floats(0.0, 1.0))
    c_ji[mirror] = -c_ij[mirror]
    assert (oracles.mirrored(c_ij, c_ji) == ((clamped | mirror) & (c_ij != 0.0).any(axis=1))).all()
    e0 = data.draw(st.integers(0, edges - 1))
    with np.errstate(all="ignore"):
        want = oracles.d_ij_low(Ui[e0:], Uj[e0:], c_ij[e0:], c_ji[e0:])
        n_ij = oracles._unit(c_ij)[0]
        Li, Rj = oracles._project(Ui, n_ij, AIR), oracles._project(Uj, n_ij, AIR)
        num = Li.c + Rj.c - 0.5 * AIR.gm1 * (Rj.u - Li.u)
    assert (num[clamped] < 0.0).all()
    got, d = oracles.compiled_d_ij_low(Ui, Uj, c_ij, c_ji, e0=e0)
    assert same_bits(got, want)
    assert same_bits(oracles.compiled_d_ij_low(Uj, Ui, c_ji, c_ij, e0=e0)[0], want)
    assert same_bits(d[e0:edges, 1], want)
    written = np.zeros(d.shape, dtype=bool)
    written[e0:edges, 1] = True
    assert np.isnan(d[~written]).all()


def test_inadmissible_projected_state_raises_before_d_is_written():
    rng = np.random.default_rng(8)
    layout = oracles.edge_layout(*batched_operands(rng, 2, (12,)))
    # one neighbour with negative internal energy: its node state has p < 0
    layout["U"][12 + 5, -1] = -1.0
    d = rng.normal(size=layout["cols"].shape)
    before = d.copy()
    bound = oracles.bind_edges(d=d, **layout)
    with pytest.raises(AdmissibilityError, match="projected state requires rho > 0 and p > 0"):
        riemann.d_ij_low(bound, 0, 12)
    assert same_bits(d, before)
    # the edges before it are admissible
    riemann.d_ij_low(bound, 0, 5)
    assert not same_bits(d, before)


def test_failed_wavespeed_leaves_the_solver_state_as_it_was():
    mat = assemble(rectangle_mesh(5, 5, periodic=(True, True)))
    rng = np.random.default_rng(2)
    U = np.tile([1.0, 0.2, -0.1, 2.5], (mat.n, 1))
    U[:, 0] += 0.2 * rng.random(mat.n)
    s = stepper.Solver(mat)
    s.set_state(U)
    s.euler_step()
    rk = s.ranks[0]
    # past set_state's check and step 0's rho eps > 0: a node with rho < 0
    # and eps < 0 in the state step 1 reads, whose projections have rho < 0
    rk.U[7, 0] = -rk.U[7, 0]
    rk.U[7, -1] = -1.0
    assert rk.U[7, 0] * physics.internal_energy(rk.U[7]) > 0.0
    state, d = rk.U.copy(), rk.d.copy()
    # step 0's phi of that node is NaN; step 1 raises
    with np.errstate(invalid="ignore"), pytest.raises(AdmissibilityError, match="projected state"):
        s.euler_step()
    assert same_bits(rk.U, state) and same_bits(rk.d, d)
    assert s.n_euler_steps == 1
