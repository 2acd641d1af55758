"""The compiled row kernels against their numpy forms, and their build."""

import ctypes
import importlib
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerflow import limiter, physics, problems, riemann, rowkernels
from eulerflow.assembly import assemble
from eulerflow.indicator import IndicatorAccumulator
from eulerflow.stepper import Solver

import oracles

# slot values: ordinary values, signed zeros and extreme magnitudes
_entry = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150),
)

# each Solver phase kernel that runs a row kernel, and its numpy form
PHASES = {
    "_k_viscosity": oracles.viscosity_kernel,
    "_k_mirror": oracles.mirror_kernel,
    "_k_low_order": oracles.low_order_kernel,
    "_k_correction": oracles.correction_kernel,
    "_k_limited_update": oracles.limited_update_kernel,
    "_k_limit": oracles.limit_kernel,
}


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_or_nan(a, b):
    """Equal bits, or NaN in both: which NaN a sum of two NaNs keeps depends
    on the operand order of the machine's add."""
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and same_bits(np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b))


def clone(rk):
    """A copy of a rank's data with every array copied."""
    twin = type(rk)()
    for name in type(rk).__slots__:
        value = getattr(rk, name)
        setattr(twin, name, value.copy() if isinstance(value, np.ndarray) else value)
    return twin


def assert_same_rank_data(got, want):
    for name in type(got).__slots__:
        value = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert same_bits(value, getattr(want, name)), name


class _Stop(Exception):
    """Ends a step after the checked kernel call."""


def checked(solver, name, calls=None, perturb=None, stop=False, factors=None):
    """solver.name, checked bitwise on every call against its numpy form run
    on a copy of the rank's data: every array of the rank must agree, so the
    kernel also writes nothing the numpy form leaves alone.  perturb(rk, lo,
    hi, **kwargs) edits the inputs first; with stop, the first call raises
    _Stop.  Every call's (rk, lo, hi) is appended to calls.  Given the list
    to which limiter.limiter_compute appends the entry factors it returns,
    both forms must return the same factors of the same entries."""
    original = getattr(solver, name)

    def run(rk, lo, hi, **kwargs):
        if perturb is not None:
            perturb(rk, lo, hi, **kwargs)
        want = clone(rk)
        want_factors = PHASES[name](solver, want, lo, hi, **kwargs)
        first = len(factors) if factors is not None else 0
        original(rk, lo, hi, **kwargs)
        assert_same_rank_data(rk, want)
        if factors is not None:
            got = factors[first:]
            assert len(got) == (want_factors is not None)
            assert not got or same_bits(got[0], want_factors)
        if calls is not None:
            calls.append((rk, lo, hi))
        if stop:
            raise _Stop

    return run


def stepped(setup, ranks, chunk):
    """A solver of the problem setup after two RK3 steps."""
    s = Solver(assemble(setup.mesh), ranks=ranks, chunk_size=chunk, boundary=setup.boundary)
    s.set_state(setup.U0)
    for _ in range(2):
        s.ssp_rk3_step()
    return s


def stepped_solver(dim, refine, ranks, chunk):
    return stepped(problems.mach3_channel(dim, refine=refine), ranks, chunk)


@pytest.mark.parametrize("dim,refine,chunk", [(2, 1, 2048), (2, 0, 1), (3, 0, 2048), (3, 0, 1)])
def test_row_kernels_match_their_numpy_forms_bitwise(monkeypatch, dim, refine, chunk):
    # 3 ranks: every rank runs the rows other ranks need as their own chunk
    # first; chunk 1 runs every row alone
    check_every_kernel_call(monkeypatch, stepped_solver(dim, refine, 3, chunk), chunk)


@pytest.mark.parametrize("ranks,chunk", [(1, 2048), (3, 1)])
def test_row_kernels_match_their_numpy_forms_bitwise_on_the_shock_tube(monkeypatch, ranks, chunk):
    # sod1d's strip: periodic across, with no boundary data, and a shock,
    # a contact and a rarefaction for the limiter
    check_every_kernel_call(monkeypatch, stepped(problems.sod1d(), ranks, chunk), chunk)


def check_every_kernel_call(monkeypatch, s, chunk):
    """One RK3 step of the solver s with every call of each phase kernel of
    PHASES checked against its numpy form; each runs at least once, and
    with chunk 1 on one row at a time."""
    factors = []
    compute = limiter.limiter_compute

    def recording(*args, **kwargs):
        factors.append(compute(*args, **kwargs).copy())
        return factors[-1]

    monkeypatch.setattr(limiter, "limiter_compute", recording)
    sizes = {name: [] for name in PHASES}
    for name in PHASES:
        monkeypatch.setattr(s, name, checked(s, name, sizes[name], factors=factors))
    s.ssp_rk3_step()
    for name, calls in sizes.items():
        assert calls, name
        if chunk == 1:
            assert {hi - lo for _, lo, hi in calls} == {1}, name


def test_nan_neighbour_density_propagates_into_the_bounds(monkeypatch):
    s = stepped_solver(2, 1, 3, 2048)
    seen = []

    def nan_neighbour(rk, lo, hi, tau):
        j = next(j for j in rk.cols[lo, :rk.card[lo]] if j != lo)
        rk.U[j, 0] = np.nan
        rk.phi[j] = np.nan
        seen.append((rk, lo))

    monkeypatch.setattr(s, "_k_low_order",
                        checked(s, "_k_low_order", perturb=nan_neighbour, stop=True))
    with pytest.raises(_Stop):
        s.euler_step()
    (rk, lo), = seen
    assert np.isnan(rk.rho_min[lo]) and np.isnan(rk.rho_max[lo]) and np.isnan(rk.phi_min[lo])


@pytest.mark.parametrize("name,last_pass", [
    ("_k_low_order", None), ("_k_correction", None),
    ("_k_limited_update", False), ("_k_limited_update", True), ("_k_limit", None),
])
def test_row_kernels_keep_signed_zero_corrections(monkeypatch, name, last_pass):
    # every third valid slot of the chunk's P enters as -0.0; the scaling by
    # 1 - min(l_ij, l_ji) = 0 in the limited update makes more of them, and
    # the limiter gives a slot whose P is all +-0 the factor 1
    s = stepped_solver(2, 1, 3, 2048)
    zeroed = []

    def signed_zeros(rk, lo, hi, last=None, **_):
        if last == last_pass:
            mask = rk.valid[lo:hi] & (np.arange(s.pad_width) % 3 == 0)
            rk.P[lo:hi][mask] = -0.0
            zeroed.append(np.count_nonzero(mask))

    monkeypatch.setattr(s, name, checked(s, name, perturb=signed_zeros))
    s.euler_step()
    assert zeroed and min(zeroed) > 0
    negative_zeros = sum(np.count_nonzero((rk.P == 0.0) & np.signbit(rk.P)) for rk in s.ranks)
    assert negative_zeros > 0


@given(rows=st.integers(1, 4), width=st.integers(1, 40), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mirror_row_sum_adds_the_valid_off_diagonal_slots_left_to_right(rows, width, data):
    # widths 1-40 cover the short rows and the 33-wide 3D rows.  As in the
    # solver, where they are upper slots, the mirrors come from rows the
    # kernel does not write: row i's from row rows + i.  The lower slots are
    # those before the diagonal; every pad of the kernel's rows holds NaN,
    # which the kernel must neither read nor overwrite
    d = data.draw(hnp.arrays(np.float64, (2 * rows, width), elements=_entry))
    card = data.draw(hnp.arrays(np.uint8, rows, elements=st.integers(1, width)))
    diag = np.array([data.draw(st.integers(0, int(c) - 1)) for c in card] + [0] * rows,
                    dtype=np.uint8)
    d[:rows][np.arange(width) >= card[:, None]] = np.nan
    card = np.concatenate([card, np.full(rows, width, dtype=np.uint8)])
    cols = np.repeat((np.arange(2 * rows, dtype=np.int32)[:, None] + rows) % (2 * rows), width,
                     axis=1)
    trans_slot = np.tile(np.arange(width, dtype=np.uint8), (2 * rows, 1))
    want = d.copy()
    for i in range(rows):
        total = 0.0
        for s in range(card[i]):
            if s < diag[i]:
                want[i, s] = d[rows + i, s]
            if s != diag[i]:
                total += float(want[i, s])
        want[i, diag[i]] = -total
    bound = oracles.bind(cols=cols, trans_slot=trans_slot, card=card, diag_slot=diag, d=d)
    bound.mirror(0, rows)
    assert same_bits(d, want)


@given(rows=st.integers(1, 4), slots=st.integers(1, 33), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_low_order_sums_and_bounds_match_the_numpy_reduce_bitwise(rows, slots, dim, data):
    # the C loop adds the slots one after the other from +0.0: the bits of
    # numpy's reduce over a slot axis with an axis after it, signed zeros
    # included; the bounds follow np.minimum / np.maximum slot after slot,
    # and on positive values they are the reduce's
    # every slot is valid, its neighbour a node of its own after the rows,
    # whose rows of the stencil arrays the kernel does not walk
    nvar = dim + 2
    n = rows * (slots + 1)
    cols = np.zeros((n, slots), dtype=np.int32)
    cols[:rows] = rows + np.arange(rows * slots).reshape(rows, slots)
    card = np.full(n, slots, dtype=np.uint8)
    U = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    d = np.full((n, slots), np.nan)
    d[:rows] = data.draw(hnp.arrays(np.float64, (rows, slots), elements=_entry))
    P = data.draw(hnp.arrays(np.float64, (rows, slots, nvar), elements=_entry))
    alpha = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    phi = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-300, 1e300)))
    inv_m = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    tau = data.draw(st.floats(1e-6, 1.0))
    U_next, R = np.full((n, nvar), np.nan), np.full((n, nvar), np.nan)
    bounds = [np.full(rows, np.nan) for _ in range(3)]
    viscous = P.copy()
    oracles.bind(cols=cols, card=card, inv_m=inv_m, U=U, U_next=U_next, R=R, phi=phi,
                 alpha=alpha, d=d, P=viscous, rho_min=bounds[0], rho_max=bounds[1],
                 phi_min=bounds[2]).low_order(0, rows, tau)
    assert np.isnan(U_next[rows:]).all() and np.isnan(R[rows:]).all()
    U_next, R, cols, d, inv_m = U_next[:rows], R[:rows], cols[:rows], d[:rows], inv_m[:rows]

    with np.errstate(all="ignore"):
        U_i = U[:rows]
        dU = U[cols] - U_i[:, None]
        dH = d * (0.5 * (alpha[:rows][:, None] + alpha[cols]))
        assert same_bits_or_nan(
            U_next, U_i + (tau * inv_m)[:, None] * (d[..., None] * dU - P).sum(axis=1))
        assert same_bits_or_nan(R, (dH[..., None] * dU - P).sum(axis=1))
        assert same_bits_or_nan(viscous, (dH - d)[..., None] * dU)
        d_safe = np.where(d != 0.0, d, 1.0)
        rho_bar = 0.5 * (U_i[:, None, 0] + U[cols][..., 0]) - np.where(
            d != 0.0, P[..., 0] / (2.0 * d_safe), 0.0)
        assert same_bits_or_nan(bounds[0], oracles.slot_bound(np.minimum, rho_bar))
        assert same_bits_or_nan(bounds[1], oracles.slot_bound(np.maximum, rho_bar))
    assert same_bits(bounds[2], phi[cols].min(axis=1))


@given(rows=st.integers(1, 4), width=st.integers(1, 33), dim=st.integers(1, 3), last=st.booleans(),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_correction_and_limited_update_match_their_numpy_forms_at_every_width(rows, width, dim,
                                                                             last, data):
    # the solver's meshes are 2D and 3D, so only here do these two run at
    # nvar 3.  Slot 0 of each row is its diagonal and every other valid slot
    # has a node of its own after the rows, whose mirror slot is any of its
    # row; P's pads hold NaN, which neither kernel may read or overwrite
    nvar = dim + 2
    n = rows * width
    card = data.draw(hnp.arrays(np.uint8, rows, elements=st.integers(1, width)))
    valid = np.arange(width) < card[:, None]
    cols = np.zeros((n, width), dtype=np.int32)
    cols[:rows, 0] = np.arange(rows)
    cols[:rows, 1:] = rows + np.arange(rows * (width - 1)).reshape(rows, width - 1)
    trans_slot = np.zeros((n, width), dtype=np.uint8)
    trans_slot[:rows] = data.draw(hnp.arrays(np.uint8, (rows, width),
                                             elements=st.integers(0, width - 1)))
    card = np.concatenate([card, np.full(n - rows, width, dtype=np.uint8)])
    m = data.draw(hnp.arrays(np.float64, (n, width), elements=st.floats(1e-3, 1e3)))
    inv_m = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    R = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    l = data.draw(hnp.arrays(np.float64, (n, width), elements=st.floats(0.0, 1.0)))
    U_next = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    P = np.full((rows, width, nvar), np.nan)
    P[valid] = data.draw(hnp.arrays(np.float64, (int(valid.sum()), nvar), elements=_entry))
    tau = data.draw(st.floats(1e-6, 1.0))
    corrected, U_want = P.copy(), U_next.copy()
    bound = oracles.bind(cols=cols, trans_slot=trans_slot, card=card, m_slot=m, inv_m=inv_m, R=R,
                         l=l, U_next=U_next, P=P)
    bound.correction(0, rows, tau)

    # widened: under NEP 50 card - 1 stays uint8
    cols, card, m = cols[:rows], card[:rows].astype(np.int64), m[:rows]
    with np.errstate(all="ignore"):
        delta = (cols == np.arange(rows)[:, None]).astype(np.float64)
        b, bT = delta - m * inv_m[cols], delta - m * inv_m[:rows][:, None]
        flux = corrected + (b[..., None] * R[cols] - bT[..., None] * R[:rows][:, None])
        flux *= (tau * inv_m[:rows] * (card - 1))[:, None, None]
    corrected[valid] = flux[valid]
    assert same_bits_or_nan(P, corrected)
    assert np.isnan(P[~valid]).all()

    bound.limited_update(0, rows, last=last)
    minl = np.minimum(l[:rows], l[cols, trans_slot[:rows]])
    with np.errstate(all="ignore"):
        terms = np.where(valid[..., None], minl[..., None] * corrected, 0.0)
        U_want[:rows] += (1.0 / np.maximum(card - 1, 1))[:, None] * oracles.slot_sum(terms)
        if not last:
            corrected[valid] *= (1.0 - minl[valid])[:, None]
    assert same_bits_or_nan(U_next, U_want)
    assert same_bits_or_nan(P, corrected)
    assert np.isnan(P[~valid]).all()


@given(rows=st.integers(1, 4), width=st.integers(1, 33), nvar=st.sampled_from(rowkernels.WIDTHS),
       gamma=st.sampled_from([7.0 / 5.0, 5.0 / 3.0]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_flux_contraction_and_indicator_sums_match_the_slot_loop_bitwise(rows, width, nvar, gamma,
                                                                         data):
    # P and the indicator's sums a and b of the rows [lo, rows) are the numpy
    # contraction of each valid slot over physics.flux and its slot-after-slot
    # sums from +0.0, signed zeros included: the kernel forms each flux from
    # U and the node states vpc of step 0, here the oracle's, in the
    # operations of physics.flux.  Some momenta are +-0.  Each valid slot has a node of its
    # own after the rows; the pads point at a node whose state, node state
    # and eta / rho are NaN and have NaN c, and P's pads hold a NaN of its
    # own payload, which the kernel must neither read nor overwrite
    # the neighbours' rows of the stencil arrays are not walked
    gas, dim = physics.GasConstants(gamma), nvar - 2
    n = rows * (width + 1) + 1
    lo = data.draw(st.integers(0, rows - 1))
    card = data.draw(hnp.arrays(np.uint8, rows, elements=st.integers(1, width)))
    valid = np.arange(width) < card[:, None]
    cols = np.where(valid, rows + np.arange(rows * width).reshape(rows, width),
                    n - 1).astype(np.int32)
    U = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    zeros = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.sampled_from([0.0, -0.0])))
    U[:, 1:-1] = np.where(data.draw(hnp.arrays(np.bool_, (n, dim))), zeros, U[:, 1:-1])
    eor = data.draw(hnp.arrays(np.float64, n, elements=_entry))
    c = data.draw(hnp.arrays(np.float64, (rows, width, dim), elements=_entry))
    U[-1], eor[-1], c[~valid] = np.nan, np.nan, np.nan
    with np.errstate(all="ignore"):
        vpc = np.stack(oracles.node_states(U, gas), axis=-1)
    pad_nan = np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64)
    P = np.full((rows, width, nvar), pad_nan)
    P[valid] = 0.0
    want_P = P.copy()
    stencil = dict(cols=cols, card=card, c_slot=c)
    stencil = {name: np.concatenate([x, np.zeros((n - rows,) + x.shape[1:], x.dtype)])
               for name, x in stencil.items()}
    a, b = oracles.bind(gas, U=U, eor=eor, vpc=vpc, P=P, **stencil).flux_contraction(lo, rows)

    assert a.shape == (rows - lo,) and b.shape == (rows - lo, nvar)
    with np.errstate(all="ignore"):
        f = physics.flux(U, gas)
        fdc = oracles.flux_contraction(f[cols], f[:rows][:, None], c)
        a_term = (eor[cols] - eor[:rows, None]) * physics.component_sum(U[cols][..., 1:-1] * c)
    want_P[lo:][valid[lo:]] = fdc[lo:][valid[lo:]]
    assert same_bits_or_nan(P, want_P)
    assert same_bits(P[~valid], want_P[~valid])
    for i in range(lo, rows):
        with np.errstate(all="ignore"):
            want_a, want_b = (oracles.slot_sum(x[i:i + 1, :card[i]])[0] for x in (a_term, fdc))
        assert same_bits_or_nan(a[i - lo], want_a)
        assert same_bits_or_nan(b[i - lo], want_b)


def gas_states(data, n, dim, p_signs=(1.0,)):
    """n states with rho and |p| from 1e-10 to 1e10, p of the signs p_signs
    (0.0 among them gives p = 0), velocities up to 1e3 sound speeds and
    signed zero components."""
    def draw(shape, elements):
        return data.draw(hnp.arrays(np.float64, shape, elements=elements))

    rho = 10.0 ** draw(n, st.floats(-10.0, 10.0))
    p = 10.0 ** draw(n, st.floats(-10.0, 10.0)) * draw(n, st.sampled_from(p_signs))
    u = draw((n, dim), st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])))
    U = np.empty((n, dim + 2))
    U[:, 0] = rho
    U[:, 1:-1] = rho[:, None] * (u * np.sqrt(np.abs(p) / rho)[:, None])
    U[:, -1] = p / physics.AIR.gm1 + 0.5 * physics.component_sum(U[:, 1:-1] ** 2) / rho
    return U


@given(rows=st.integers(1, 6), dim=st.integers(1, 3), gamma=st.sampled_from([1.4, 5.0 / 3.0]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_step0_stage_matches_the_node_states_and_internal_energy_bitwise(rows, dim, gamma, data):
    # vpc of the rows [lo, hi) is the oracle's node states, bit for bit; no
    # other row of vpc is written.  Some rows have p <= 0, and the stage
    # counts those below own whose rho eps <= 0.
    # Where there are none, eta / rho and phi of the rows [lo, hi) and the
    # eta' scale of those below own are numpy's forms of the internal energy
    # eps: (rho eps)^(1 / (gamma + 1)) / rho, eps rho^(-gamma) and the
    # oracle's eta' scale; no other row of them is written.  Otherwise no
    # pow() level runs from the block of the first such row on, which holds
    # every row here
    gas = physics.GasConstants(gamma)
    lo = data.draw(st.integers(0, rows - 1))
    hi = data.draw(st.integers(lo, rows))
    own = data.draw(st.integers(lo, hi))
    U = gas_states(data, rows, dim, p_signs=(1.0, 1.0, 1.0, -1.0, 0.0))
    vpc = np.full((rows, dim + 2), np.nan)
    eor, phi, eta_scale = np.full(rows, np.nan), np.full(rows, np.nan), np.full(rows, np.nan)
    bad = oracles.bind(gas, U=U, vpc=vpc, eor=eor, phi=phi,
                       eta_scale=eta_scale).entropies(lo, hi, own)

    sl = slice(lo, hi)
    with np.errstate(all="ignore"):
        eps = physics.internal_energy(U[sl])
        rho_eps = U[sl, 0] * eps
        assert same_bits(vpc[sl], np.stack(oracles.node_states(U[sl], gas), axis=-1))
        want_eor = physics.power(rho_eps, gas.gp1_inv) / U[sl, 0]
    assert bad == np.count_nonzero(rho_eps[:own - lo] <= 0.0)
    for a in (eor, phi, vpc):
        assert np.isnan(a[:lo]).all() and np.isnan(a[hi:]).all()
    if bad:
        assert np.isnan(eor[sl]).all() and np.isnan(eta_scale).all()
        return
    assert same_bits_or_nan(eor[sl], want_eor)
    assert same_bits(phi[sl], oracles.specific_entropy_phi(U[sl], gas))
    assert same_bits(eta_scale[lo:own], oracles.eta_scale(U[lo:own], gas))
    assert np.isnan(eta_scale[:lo]).all() and np.isnan(eta_scale[own:]).all()
    ok = rho_eps > 0.0
    assert same_bits(eor[sl][ok], oracles.harten_entropy(U[sl][ok], gas) / U[sl][ok, 0])


@given(rows=st.integers(1, 6), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_indicator_result_matches_the_numpy_result_bitwise(rows, dim, data):
    # alpha of the rows [lo, rows) from the accumulated sums is the numpy
    # result with eta' from the oracle, bit for bit; some rows have a of the
    # order of the other terms of the numerator, where its rounding shows,
    # and some vanishing sums.  No other row of alpha is written
    nvar = dim + 2
    lo = data.draw(st.integers(0, rows - 1))
    U = gas_states(data, rows, dim)
    eor = oracles.harten_entropy(U) / U[:, 0]
    alpha = np.full(rows, np.nan)
    b = data.draw(hnp.arrays(np.float64, (rows - lo, nvar), elements=_entry))
    with np.errstate(all="ignore"):
        terms = physics.component_sum(oracles.harten_entropy_derivative(U[lo:]) * b) - (
            eor[lo:] * b[:, 0])
    near = terms * data.draw(hnp.arrays(np.float64, rows - lo, elements=st.floats(-2.0, 2.0)))
    a = np.where(data.draw(hnp.arrays(np.bool_, rows - lo)), near,
                 data.draw(hnp.arrays(np.float64, rows - lo, elements=_entry)))
    still = data.draw(hnp.arrays(np.bool_, rows - lo))
    a[still], b[still] = 0.0, -0.0
    acc = IndicatorAccumulator()
    acc.reset(oracles.bind(U=U, eor=eor, eta_scale=oracles.eta_scale(U), alpha=alpha), lo,
              rows)
    acc.accumulate(a, b)
    got = acc.result()

    with np.errstate(all="ignore"):
        want = oracles.indicator_result(acc.a, acc.b, eor[lo:],
                                        oracles.harten_entropy_derivative(U[lo:]))
    assert same_bits_or_nan(got, want)
    assert (got[still] == 0.0).all()
    assert np.isnan(alpha[:lo]).all()


@pytest.mark.parametrize("lo,hi", [(0, 3), (-1, 1), (2, 1)])
def test_rows_outside_the_arrays_are_rejected(lo, hi):
    d = np.zeros((2, 3))
    cols, trans_slot = np.zeros((2, 3), dtype=np.int32), np.zeros((2, 3), dtype=np.uint8)
    index = np.zeros(2, dtype=np.uint8)
    bound = oracles.bind(cols=cols, trans_slot=trans_slot, card=index, diag_slot=index, d=d)
    with pytest.raises(ValueError, match="outside"):
        bound.mirror(lo, hi)
    # the owned rows are among the rows of cols
    with pytest.raises(ValueError, match="more than"):
        oracles.bind(cols=cols, P=np.zeros((3, 3, 3)))


# per compiled kernel: the row count its range is checked against (rows,
# owned or edges), the rank arrays it reads, and a call of it on a binding
# over the range (lo, hi)
EDGE_ARRAYS = ("up_row", "up_slot", "two_edge", "n_up", "norm_up", "nT_two", "normT_two", "cols",
               "U", "vpc", "d")
KERNEL_CALLS = {
    "entropies": ("rows", ("U", "vpc", "eor", "phi", "eta_scale"),
                  lambda b, lo, hi: b.entropies(lo, hi, min(hi, b.counts["owned"]))),
    "flux_contraction": ("owned", ("cols", "card", "c_slot", "U", "vpc", "eor", "P"),
                         lambda b, lo, hi: b.flux_contraction(lo, hi)),
    "indicator": ("owned", ("U", "eor", "alpha", "eta_scale"),
                  lambda b, lo, hi: b.indicator(lo, hi, np.zeros(hi - lo),
                                                np.zeros((hi - lo, b.nvar)), 1e-300)),
    "mirror": ("rows", ("cols", "trans_slot", "card", "diag_slot", "d"),
               lambda b, lo, hi: b.mirror(lo, hi)),
    "low_order": ("owned", ("cols", "card", "inv_m", "U", "U_next", "R", "phi", "alpha", "d",
                            "P", "rho_min", "rho_max", "phi_min"),
                  lambda b, lo, hi: b.low_order(lo, hi, 1e-3)),
    "correction": ("owned", ("cols", "card", "m_slot", "inv_m", "R", "P"),
                   lambda b, lo, hi: b.correction(lo, hi, 1e-3)),
    "limited_update": ("owned", ("cols", "trans_slot", "card", "U_next", "l", "P"),
                       lambda b, lo, hi: b.limited_update(lo, hi, last=False)),
    "limiter_compute": ("owned", ("card", "U_next", "P", "rho_min", "rho_max", "phi_min", "l"),
                        lambda b, lo, hi: limiter.limiter_compute(b, lo, hi)),
    "wavespeed": ("edges", EDGE_ARRAYS, lambda b, e0, e1: b.wavespeed(e0, e1)),
    "d_ij_low": ("edges", EDGE_ARRAYS, lambda b, e0, e1: riemann.d_ij_low(b, e0, e1)),
}


def rank_binding(rk, **replaced):
    """A binding of copies of the rank's arrays, some replaced, for air."""
    return rowkernels.Binding({**{name: getattr(rk, name).copy() for name in rowkernels.ARRAYS},
                               **replaced}, physics.AIR)


@pytest.mark.parametrize("kernel", list(KERNEL_CALLS))
def test_short_and_narrow_arrays_are_rejected(kernel):
    # a kernel's range must lie within its row count, checked on each call;
    # every array must have the rows of its count, the width of cols, the
    # nvar components of U and dim = nvar - 2, be of its dtype, and be given
    # at all, checked when the arrays are bound.  Otherwise C would read or
    # write past the end of an array, or read a wider index than is stored.
    # Rank 0 of 3 has ghost rows, so its owned rows are fewer than its rows,
    # and it lists some of its upper edges as two directions
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    count, names, call = KERNEL_CALLS[kernel]
    hi = {"rows": len(rk.cols), "owned": rk.numbering.n_lo, "edges": len(rk.up_row)}[count]
    assert 1 < len(rk.two_edge) < rk.numbering.n_lo < len(rk.cols) < len(rk.up_row)
    call(rank_binding(rk), 0, hi)
    with pytest.raises(ValueError, match="outside"):
        call(rank_binding(rk), 0, hi + 1)
    for name in names:
        a = getattr(rk, name)
        with pytest.raises(ValueError, match="shape"):
            rank_binding(rk, **{name: a[:-1].copy()})
        if a.ndim > 1:
            with pytest.raises(ValueError, match="shape"):
                rank_binding(rk, **{name: np.ascontiguousarray(a[..., :-1])})
        if a.dtype.kind in "iu":
            assert a.dtype in (np.int32, np.uint8), name
            wide = a.astype(np.int64)
            with pytest.raises(ValueError, match=f"^{name} must be given as .* {a.dtype} array"):
                rank_binding(rk, **{name: wide})
        with pytest.raises(ValueError, match=f"^{name} must be given"):
            rowkernels.Binding({other: getattr(rk, other) for other in rowkernels.ARRAYS
                                if other != name}, physics.AIR)


def _past_the_end(rk, name):
    """A copy of the rank's index array name whose last entry is the first
    value past its range: the row count for a row id, L for a slot number,
    L + 1 for a row length and the edge count for an edge number."""
    top = {"cols": len(rk.cols), "up_row": len(rk.cols), "card": rk.cols.shape[1] + 1,
           "two_edge": len(rk.up_row)}.get(name, rk.cols.shape[1])
    a = getattr(rk, name).copy()
    a.reshape(-1)[-1] = top
    return a


@pytest.mark.parametrize("name", ["cols", "trans_slot", "diag_slot", "card", "up_row", "up_slot",
                                  "two_edge"])
def test_an_index_value_past_its_range_is_rejected(name):
    # the kernels follow these values without a check: a row id at or past
    # the row count, a slot number at or past L, a row length above L or an
    # edge number at or past the edge count would read or write out of the
    # arrays.  The value just inside the range binds
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    bad = _past_the_end(rk, name)
    with pytest.raises(ValueError, match=f"^{name} holds values outside"):
        rank_binding(rk, **{name: bad})
    bad.reshape(-1)[-1] -= 1
    if name in ("up_row", "up_slot"):
        rank_binding(rk, **_moved_edge(rk, name, bad[-1]))
    elif name != "two_edge":
        rank_binding(rk, **{name: bad})


def _moved_edge(rk, name, value):
    """Copies of up_row and up_slot whose last upper edge lies in the row
    value (name up_row) or the slot value (name up_slot), at a slot whose
    column is another row: a pad or the diagonal is rejected."""
    up_row, up_slot = rk.up_row.copy(), rk.up_slot.copy()
    other = rk.cols != np.arange(len(rk.cols))[:, None]
    if name == "up_row":
        up_row[-1], up_slot[-1] = value, np.flatnonzero(other[value])[0]
    else:
        up_row[-1], up_slot[-1] = np.flatnonzero(other[:, value])[0], value
    return dict(up_row=up_row, up_slot=up_slot)


@pytest.mark.parametrize("rank,target", [(0, "diagonal"), (0, "pad"), (1, "ghost row's pad")])
def test_an_upper_edge_on_a_pad_or_the_diagonal_is_rejected(rank, target):
    # the wavespeed writes d_ij into the slot of each upper edge; a pad and
    # the diagonal hold their own row as column, an upper edge never.  A
    # ghost row keeps the slots of its columns outside the rank as pads
    # where they stand, before the end of its card (rank 1 of 3 has some)
    rk = stepped_solver(2, 0, 3, 2048).ranks[rank]
    n, L = rk.cols.shape
    if target == "diagonal":
        e, slot = 0, rk.diag_slot[rk.up_row[0]]
    else:
        pad = rk.cols == np.arange(n)[:, None]
        pad[np.arange(n), rk.diag_slot] = False
        if target == "ghost row's pad":
            pad &= np.arange(L) < rk.card[:, None]
        e = np.flatnonzero(pad[rk.up_row].any(axis=1))[0]
        slot = np.flatnonzero(pad[rk.up_row[e]])[0]
    up_slot = rk.up_slot.copy()
    up_slot[e] = slot
    with pytest.raises(ValueError, match="^up_slot names a pad or the diagonal of its row"):
        rank_binding(rk, up_slot=up_slot)


def test_a_negative_row_id_is_rejected():
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    for name in ("cols", "up_row", "two_edge"):
        bad = getattr(rk, name).copy()
        bad[0] = -1
        with pytest.raises(ValueError, match=f"^{name} holds values outside"):
            rank_binding(rk, **{name: bad})


@pytest.mark.parametrize("step", [0, -1])
def test_listed_edges_out_of_order_are_rejected(step):
    # the wavespeed bisects two_edge and walks it beside its edges, which
    # needs strictly ascending edge numbers: a repeated or a descending entry
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    bad = rk.two_edge.copy()
    bad[1] = bad[0] + step
    with pytest.raises(ValueError, match="two_edge is not strictly ascending"):
        rank_binding(rk, two_edge=bad)


@pytest.mark.parametrize("nvar", [2, 3, 4, 5, 6])
def test_a_state_width_without_compiled_kernels_is_rejected(nvar):
    # every kernel is compiled for nvar 3, 4 and 5 only; a rank of another
    # width, its arrays shaped for it, would run the body of another width
    arrays = rowkernels.zeros(rowkernels.ARRAYS, rows=4, owned=3, edges=5, L=2, nvar=nvar)
    arrays["cols"][0, 0] = 1  # the upper edges' slot, which must not point at its own row
    if nvar in rowkernels.WIDTHS:
        assert rowkernels.Binding(arrays, physics.AIR).nvar == nvar
    else:
        with pytest.raises(ValueError, match="compiled for"):
            rowkernels.Binding(arrays, physics.AIR)


@pytest.mark.parametrize("L", [255, 256])
def test_a_slot_width_beyond_the_index_types_is_rejected(L):
    # slot numbers and row lengths are uint8, so a row has at most 255 slots
    arrays = rowkernels.zeros(rowkernels.ARRAYS, rows=2, owned=2, edges=1, L=L, nvar=4)
    arrays["cols"][0, 0] = 1  # the upper edge's slot, which must not point at its own row
    if L < 256:
        assert rowkernels.Binding(arrays, physics.AIR).L == L
    else:
        with pytest.raises(ValueError, match="wider than the 255"):
            rowkernels.Binding(arrays, physics.AIR)


def test_limiter_rejects_strided_and_mistyped_arrays():
    # the kernels take the addresses of the arrays they are bound to: one that
    # is not C-contiguous or not of its dtype must be rejected at the binding
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    for name in rowkernels.ARRAYS:
        value = getattr(rk, name)
        strided = np.repeat(value, 2, axis=0)[::2]
        retyped = value.astype(np.int64 if value.dtype.kind in "iu" else np.float32)
        assert not strided.flags.c_contiguous
        for bad in (strided, retyped):
            with pytest.raises(ValueError, match="C-contiguous"):
                rank_binding(rk, **{name: bad})


def test_binding_follows_the_struct_of_the_c_source():
    # rowkernels.ARRAYS lays out struct rank of rowkernels.c field by field,
    # after the sizes and the gas, and gives each array the integer type of
    # its C field.  _Rank declares every field with the ctypes type of its C
    # declaration: a scalar field moved, dropped or of another width would
    # misbind every pointer after it without any error
    source = rowkernels.SOURCE.read_text()
    body = re.search(r"struct rank \{(.*?)\};", source, re.S).group(1)
    fields = re.findall(r"\*?\s*(\w+)\s*[,;]", body)
    assert fields == ["L", "nvar", "twos", "gamma", "pw", *rowkernels.ARRAYS]
    scalar = {"idx": ctypes.c_int64, "double": ctypes.c_double}
    typed = []
    for ctype, names in re.findall(r"^\s*(?:const )?(struct \w+|\w+) ([^;]*);", body, re.M):
        for name in (name.strip() for name in names.split(",")):
            typed.append((name.lstrip("*"), ctypes.c_void_p if "*" in name else scalar[ctype]))
    assert [f for f, _ in typed] == fields
    assert rowkernels._Rank._fields_ == typed
    assert typed[:5] == [("L", ctypes.c_int64), ("nvar", ctypes.c_int64), ("twos", ctypes.c_int64),
                         ("gamma", ctypes.c_double), ("pw", ctypes.c_void_p)]
    assert re.search(r"^\s*const struct power \*pw;", body, re.M)
    assert "typedef int32_t idx32;" in source and "typedef uint8_t idx8;" in source
    c_int = {"idx32": np.int32, "idx8": np.uint8}
    declared = {name: c_int[ctype]
                for ctype, names in re.findall(r"const (idx32|idx8) (\*[^;]*);", body)
                for name in re.findall(r"\*(\w+)", names)}
    assert declared == {name: dtype for name, (dtype, _) in rowkernels.ARRAYS.items()
                        if np.dtype(dtype).kind in "iu"}


def exported_functions():
    """The non-static functions of rowkernels.c, whose declarations have one
    word before the name: name -> (return type, the parameter declarations,
    the body)."""
    source = rowkernels.SOURCE.read_text()
    found = re.findall(r"^(\w+) (\w+)\(([^)]*)\)\n\{\n(.*?)^\}", source, re.M | re.S)
    return {name: (ret, [p.strip() for p in params.split(",")], body)
            for ret, name, params, body in found}


def test_declared_argument_types_follow_the_c_signatures():
    # each kernel's restype and argtypes are those of its C declaration; a
    # mismatch passes a value of the wrong width or kind without any error
    # the gas reaches a kernel through its struct rank alone: only powers,
    # the check of the pow() loop at import, takes a struct power or gamma
    c_types = {"idx": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int}
    functions = exported_functions()
    assert len(functions) == 12
    for name, (ret, params, _) in functions.items():
        fn = getattr(rowkernels._lib, name)
        assert fn.restype == (None if ret == "void" else c_types[ret]), name
        want = [ctypes.c_void_p if "*" in p else c_types[p.split()[0]] for p in params]
        assert fn.argtypes == tuple(want), name
        gas = [p for p in params if "struct power" in p or re.search(r"\bgamma$", p)]
        assert bool(gas) == (name == "powers"), (name, gas)


def function_bodies():
    """Every function of rowkernels.c whose body opens on a line of its own,
    static or not, with its comments removed: name -> body."""
    source = re.sub(r"/\*.*?\*/", "", rowkernels.SOURCE.read_text(), flags=re.S)
    return dict(re.findall(r"(\w+)\([^)]*\)\n\{\n(.*?)^\}", source, re.M | re.S))


def reached_bodies(name, bodies):
    """The bodies of the function name and of every function of bodies that
    it calls or hands to PER_WIDTH, directly or through those: an exported
    kernel's own body only hands its inlined body to the dispatch macro."""
    seen, todo = set(), [name]
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            named = re.findall(r"\b(\w+)\(", bodies[f]) + re.findall(r"PER_WIDTH\([^,]*, (\w+)",
                                                                     bodies[f])
            todo.extend(g for g in named if g in bodies)
    return [bodies[f] for f in seen]


def test_kernels_read_only_the_arrays_their_calls_name():
    # the rank arrays read by each kernel, its dispatch and every body it
    # reaches, are among the arrays that its entry of KERNEL_CALLS names, and
    # so among those its rejection test shortens and narrows; the two limiter
    # kernels run as limiter_compute, and the pow() helper takes no rank
    # the size twos is that of two_edge; the sizes and the gas are scalars
    bodies = function_bodies()
    for name, (_, params, _) in exported_functions().items():
        if params[0] != "const struct rank *r":
            continue
        fields = {"two_edge" if field == "twos" else field
                  for body in reached_bodies(name, bodies)
                  for field in re.findall(r"\br->(\w+)", body)} - {"L", "nvar", "gamma", "pw"}
        call = "limiter_compute" if name.startswith("limiter_") else name
        assert fields and fields <= set(KERNEL_CALLS[call][1]), (name, fields)


def test_every_kernel_is_compiled_for_each_state_width_through_one_dispatch():
    # each exported kernel that takes a rank, but mirror, which has no
    # per-component loop, only hands r->nvar to PER_WIDTH, whose calls pass
    # the widths of WIDTHS as constants
    source = rowkernels.SOURCE.read_text()
    macro = re.search(r"#define PER_WIDTH\(nvar, body, \.\.\.\)(.*?)\n\n", source, re.S).group(1)
    assert tuple(int(w) for w in re.findall(r"body\(__VA_ARGS__, (\d+)\)", macro)) == \
        rowkernels.WIDTHS
    for name, (_, params, body) in exported_functions().items():
        if params[0] == "const struct rank *r" and name != "mirror":
            assert "PER_WIDTH(r->nvar, " in body, name
            assert set(re.findall(r"\br->(\w+)", body)) == {"nvar"}, name


def test_library_imports_no_libm_function():
    # every pow() goes through np.power's own loop, and under -fno-math-errno
    # sqrt compiles to an instruction: the library imports nothing from libm
    done = subprocess.run(["nm", "-D", "--undefined-only", str(rowkernels.library_path())],
                          capture_output=True, text=True, check=True)
    imported = {line.split()[-1].split("@")[0] for line in done.stdout.splitlines() if line}
    assert imported and not imported & {
        name + suffix for name in ("pow", "exp", "log", "sqrt", "cbrt") for suffix in ("", "f", "l")}


def test_row_kernels_compile_without_warnings(tmp_path):
    # the library's own build with every warning an error: a helper, a
    # variable or a kernel argument that nothing uses fails it, and so do the
    # warnings that only the optimiser's analysis finds; -Wvla fails a stack
    # array whose length is known only at run time, such as one of nvar
    # entries where nvar is not a constant; -Wconversion and -Wsign-conversion
    # fail an implicit narrowing or change of sign, such as a 64-bit index
    # stored into a 32-bit scratch entry without a cast
    done = subprocess.run(
        [rowkernels.COMPILER, *rowkernels.FLAGS, "-std=c99", "-Wall", "-Wextra", "-Wvla",
         "-Wconversion", "-Wsign-conversion", "-Werror", "-o", str(tmp_path / "rowkernels.so"),
         str(rowkernels.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_second_import_does_not_recompile(monkeypatch):
    assert rowkernels.library_path().exists()

    def no_compiling(*args, **kwargs):
        raise AssertionError("the row kernels were compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiling)
    importlib.reload(rowkernels)


def test_library_is_named_by_the_host_cpu_of_a_native_build(monkeypatch):
    # a library built with -march=native runs only on a CPU with the same
    # features, so a _build directory copied to another CPU builds anew; the
    # name of a portable build does not depend on the CPU
    assert "-march=native" in rowkernels.FLAGS and rowkernels.host_cpu()
    portable = tuple(flag for flag in rowkernels.FLAGS if flag != "-march=native")
    paths = []
    for cpu in ("flags\t: fpu sse2", "flags\t: fpu sse2 avx512f"):
        monkeypatch.setattr(rowkernels, "host_cpu", lambda cpu=cpu: cpu)
        paths.append((rowkernels.library_path(), rowkernels.library_path(flags=portable)))
    (native_a, portable_a), (native_b, portable_b) = paths
    assert native_a != native_b and portable_a == portable_b


def test_bound_pow_loop_is_checked_against_np_power():
    # the kernels call np.power's own float64 loop; the check at import
    # compares it with np.power on the probe, called as the kernels call it.
    # np.float_power's loop is libm's pow, which differs in the last bit
    rowkernels.check_power_loop(rowkernels.power_loop(np.power))
    assert np.isnan(rowkernels.PROBE).any() and (rowkernels.PROBE == 0.0).any()
    assert (rowkernels.PROBE == 5e-324).any() and np.isinf(rowkernels.PROBE).sum() == 2
    exponents = [y for gas in (physics.AIR, physics.GasConstants(5.0 / 3.0))
                 for y in rowkernels._exponents(gas)]
    with np.errstate(all="ignore"):
        agree = all(np.array_equal(np.power(rowkernels.PROBE, y),
                                   np.float_power(rowkernels.PROBE, y), equal_nan=True)
                    for y in exponents)
    if agree:
        pytest.skip("np.float_power and np.power agree on the probe on this host")
    with pytest.raises(ImportError, match="differs from np.power"):
        rowkernels.check_power_loop(rowkernels.power_loop(np.float_power))


@pytest.mark.parametrize("ufunc", [np.sqrt, np.bitwise_and, len])
def test_a_ufunc_without_a_float64_binary_loop_is_rejected(ufunc):
    with pytest.raises(ImportError):
        rowkernels.power_loop(ufunc)


def test_library_is_named_by_source_and_flags_and_built_once(tmp_path, monkeypatch):
    source = tmp_path / "kernels.c"
    shutil.copy(rowkernels.SOURCE, source)
    path = rowkernels.library_path(source)
    assert path.parent == tmp_path / "_build"
    assert rowkernels.library_path(source, rowkernels.FLAGS + ("-g",)) != path
    runs = []
    run = subprocess.run

    def counting(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    assert rowkernels.build(source) == path
    assert rowkernels.build(source) == path
    assert len(runs) == 1
    # the temporary file was renamed into place
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    source.write_text(source.read_text() + "\n")
    assert rowkernels.library_path(source) != path


def test_a_build_deletes_the_libraries_of_earlier_sources(tmp_path):
    # a build keeps only its own library; a cache hit deletes nothing
    source = tmp_path / "kernels.c"
    shutil.copy(rowkernels.SOURCE, source)
    first = rowkernels.build(source)
    source.write_text(source.read_text() + "\n")
    path = rowkernels.build(source)
    assert path != first
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    other = path.with_name("kernels-0000000000000000.so")
    other.touch()
    assert rowkernels.build(source) == path
    assert sorted(p.name for p in path.parent.iterdir()) == [other.name, path.name]


def test_missing_compiler_raises_import_error(tmp_path, monkeypatch):
    source = tmp_path / "kernels.c"
    shutil.copy(rowkernels.SOURCE, source)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="C compiler"):
        rowkernels.build(source)
    assert not (tmp_path / "_build").exists()
