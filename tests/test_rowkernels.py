"""The compiled row kernels against their numpy forms, and their build."""

import importlib
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerflow import limiter, physics, problems, rowkernels
from eulerflow.assembly import assemble
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


def stepped_solver(dim, refine, ranks, chunk):
    setup = problems.mach3_channel(dim, refine=refine)
    mat = assemble(setup.mesh)
    s = Solver(mat, ranks=ranks, chunk_size=chunk, boundary=setup.boundary)
    s.set_state(setup.U0)
    for _ in range(2):
        s.ssp_rk3_step()
    return s


@pytest.mark.parametrize("dim,refine,chunk", [(2, 1, 2048), (2, 0, 1), (3, 0, 2048), (3, 0, 1)])
def test_row_kernels_match_their_numpy_forms_bitwise(monkeypatch, dim, refine, chunk):
    # 3 ranks: every rank runs the rows other ranks need as their own chunk
    # first; chunk 1 runs every row alone
    s = stepped_solver(dim, refine, 3, chunk)
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
    ("_k_limited_update", False), ("_k_limited_update", True),
])
def test_row_kernels_keep_signed_zero_corrections(monkeypatch, name, last_pass):
    # every third valid slot of the chunk's P enters as -0.0; the scaling by
    # 1 - min(l_ij, l_ji) = 0 in the limited update makes more of them
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
    card = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(1, width)))
    diag = np.array([data.draw(st.integers(0, c - 1)) for c in card] + [0] * rows)
    d[:rows][np.arange(width) >= card[:, None]] = np.nan
    card = np.concatenate([card, np.full(rows, width)])
    cols = np.repeat((np.arange(2 * rows)[:, None] + rows) % (2 * rows), width, axis=1)
    trans_slot = np.tile(np.arange(width), (2 * rows, 1))
    want = d.copy()
    for i in range(rows):
        total = 0.0
        for s in range(card[i]):
            if s < diag[i]:
                want[i, s] = d[rows + i, s]
            if s != diag[i]:
                total += float(want[i, s])
        want[i, diag[i]] = -total
    rowkernels.mirror(0, rows, cols, trans_slot, card, diag, d)
    assert same_bits(d, want)


@given(rows=st.integers(1, 4), slots=st.integers(1, 33), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_low_order_sums_and_bounds_match_the_numpy_reduce_bitwise(rows, slots, dim, data):
    # the C loop adds the slots one after the other from +0.0: the bits of
    # numpy's reduce over a slot axis with an axis after it, signed zeros
    # included; the bounds follow np.minimum / np.maximum slot after slot,
    # and on positive values they are the reduce's
    nvar = dim + 2
    n = rows * (slots + 1)
    # every slot is valid, its neighbour a node of its own after the rows
    cols = rows + np.arange(rows * slots).reshape(rows, slots)
    card = np.full(rows, slots)
    U = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    d = data.draw(hnp.arrays(np.float64, (rows, slots), elements=_entry))
    P = data.draw(hnp.arrays(np.float64, (rows, slots, nvar), elements=_entry))
    alpha = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    phi = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-300, 1e300)))
    inv_m = data.draw(hnp.arrays(np.float64, rows, elements=st.floats(1e-3, 1e3)))
    tau = data.draw(st.floats(1e-6, 1.0))
    U_next, R = np.full((rows, nvar), np.nan), np.full((rows, nvar), np.nan)
    bounds = [np.full(rows, np.nan) for _ in range(3)]
    viscous = P.copy()
    rowkernels.low_order(0, rows, cols, card, tau, inv_m, U, d, alpha, phi, viscous, U_next, R,
                         *bounds)

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


@given(rows=st.integers(1, 4), width=st.integers(1, 33), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_flux_contraction_and_indicator_sums_match_the_slot_loop_bitwise(rows, width, dim, data):
    # P and the indicator's sums a and b of the rows [lo, rows) are the numpy
    # contraction of each valid slot and its slot-after-slot sums from +0.0,
    # signed zeros included.  Each valid slot has a node of its own after the
    # rows; the pads point at a node whose state, eta / rho and flux are NaN
    # and have NaN c, and P's pads hold a NaN of its own payload, which the
    # kernel must neither read nor overwrite
    nvar = dim + 2
    n = rows * (width + 1) + 1
    lo = data.draw(st.integers(0, rows - 1))
    card = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(1, width)))
    valid = np.arange(width) < card[:, None]
    cols = np.where(valid, rows + np.arange(rows * width).reshape(rows, width), n - 1)
    U = data.draw(hnp.arrays(np.float64, (n, nvar), elements=_entry))
    eor = data.draw(hnp.arrays(np.float64, n, elements=_entry))
    f = data.draw(hnp.arrays(np.float64, (n, nvar, dim), elements=_entry))
    c = data.draw(hnp.arrays(np.float64, (rows, width, dim), elements=_entry))
    U[-1], eor[-1], f[-1], c[~valid] = np.nan, np.nan, np.nan, np.nan
    pad_nan = np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64)
    P = np.full((rows, width, nvar), pad_nan)
    P[valid] = 0.0
    want_P = P.copy()
    a, b = rowkernels.flux_contraction(lo, rows, cols, card, U, eor, f, c, P)

    assert a.shape == (rows - lo,) and b.shape == (rows - lo, nvar)
    with np.errstate(all="ignore"):
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


@pytest.mark.parametrize("lo,hi", [(0, 3), (-1, 1), (2, 1)])
def test_rows_outside_the_arrays_are_rejected(lo, hi):
    d = np.zeros((2, 3))
    cols = np.zeros((2, 3), dtype=np.int64)
    index = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError, match="outside"):
        rowkernels.mirror(lo, hi, cols, cols, index, index, d)


def kernel_arguments(rk):
    """Per compiled kernel, its range arguments, (lo, hi) = (0, n_lo) of the
    owned rows, (e0, e1) = (0, E) of the upper edges or none, and its keyword
    arguments on copies of a rank's arrays.  The limiter's stages run under
    limiter.limiter_compute."""
    a = {name: getattr(rk, name).copy() for name in (
        "cols", "trans_slot", "card", "diag_slot", "f", "c_slot", "P", "d", "inv_m", "U",
        "alpha", "phi", "U_next", "R", "rho_min", "rho_max", "phi_min", "m_slot", "l", "eor",
        "up_row", "up_slot", "n_up", "norm_up", "nT_up", "normT_up")}
    rows, edges = (0, rk.numbering.n_lo), (0, len(a["up_row"]))
    edge = dict(up_row=a["up_row"], up_slot=a["up_slot"], cols=a["cols"], gas=physics.AIR)
    states, q, _ = rowkernels.wavespeed_project(*edges, U=a["U"], n_ij=a["n_up"],
                                                n_ji=a["nT_up"], **edge)
    return {
        rowkernels.flux_contraction: (rows, dict(
            cols=a["cols"], card=a["card"], U=a["U"], eor=a["eor"], f=a["f"], c=a["c_slot"],
            P=a["P"])),
        rowkernels.mirror: (rows, dict(cols=a["cols"], trans_slot=a["trans_slot"],
                                       card=a["card"], diag_slot=a["diag_slot"], d=a["d"])),
        rowkernels.low_order: (rows, dict(
            cols=a["cols"], card=a["card"], tau=1e-3, inv_m=a["inv_m"], U=a["U"], d=a["d"],
            alpha=a["alpha"], phi=a["phi"], P=a["P"], U_next=a["U_next"],
            R=a["R"], rho_min=a["rho_min"], rho_max=a["rho_max"], phi_min=a["phi_min"])),
        rowkernels.correction: (rows, dict(cols=a["cols"], card=a["card"], tau=1e-3,
                                           inv_m=a["inv_m"], m_slot=a["m_slot"], R=a["R"],
                                           P=a["P"])),
        rowkernels.limited_update: (rows, dict(cols=a["cols"], trans_slot=a["trans_slot"],
                                               card=a["card"], l=a["l"], P=a["P"],
                                               U_next=a["U_next"], last=False)),
        limiter.limiter_compute: (rows, dict(card=a["card"], U=a["U_next"], P=a["P"],
                                             rho_min=a["rho_min"], rho_max=a["rho_max"],
                                             phi_min=a["phi_min"], l=a["l"])),
        rowkernels.wavespeed_project: (edges, dict(U=a["U"], n_ij=a["n_up"], n_ji=a["nT_up"],
                                                   **edge)),
        rowkernels.wavespeed_base: ((), dict(states=states.copy(), q=q.copy(),
                                             gas=physics.AIR)),
        rowkernels.wavespeed_bound: (edges, dict(norm_ij=a["norm_up"], norm_ji=a["normT_up"],
                                                 states=states, q=q, d=a["d"], **edge)),
    }


@pytest.mark.parametrize("fn", [
    rowkernels.flux_contraction, rowkernels.mirror, rowkernels.low_order, rowkernels.correction,
    rowkernels.limited_update, limiter.limiter_compute, rowkernels.wavespeed_project,
    rowkernels.wavespeed_base, rowkernels.wavespeed_bound,
], ids=lambda fn: fn.__name__)
def test_short_and_narrow_arrays_are_rejected(fn):
    # every array a kernel indexes by row must hold the rows [lo, hi), every
    # per-edge array the edges e0:e1, the stencil arrays of the wavespeed
    # stages the same rows as cols, and the scratch arrays between them the
    # same edges; every per-slot array must have the width of cols, the
    # normals the width dim and the scratch arrays theirs.  Otherwise C would
    # read or write past the end of an array
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    bounds, kwargs = kernel_arguments(rk)[fn]
    fn(*bounds, **kwargs)
    arrays = [name for name, value in kwargs.items() if isinstance(value, np.ndarray)]
    if bounds and bounds[1] != rk.numbering.n_lo:
        # the stencil arrays hold fewer rows than the rank has upper edges
        assert len(rk.cols) < bounds[1]
        with pytest.raises(ValueError, match="outside"):
            fn(bounds[0], bounds[1] + 1, **kwargs)
    for name in arrays:
        rows = min(len(kwargs[name]), bounds[1] if bounds else np.inf) - 1
        short = dict(kwargs, **{name: kwargs[name][:rows].copy()})
        with pytest.raises(ValueError, match="outside"):
            fn(*bounds, **short)
        if kwargs[name].ndim > 1 and name != "cols":
            narrow = dict(kwargs, **{name: np.ascontiguousarray(kwargs[name][:, :-1])})
            with pytest.raises(ValueError, match="shape"):
                fn(*bounds, **narrow)


def test_limiter_rejects_strided_and_mistyped_arrays():
    # the limiter's stages take the addresses of its arrays: one that is not
    # C-contiguous or not of its dtype must be rejected before C runs
    rk = stepped_solver(2, 0, 3, 2048).ranks[0]
    bounds, kwargs = kernel_arguments(rk)[limiter.limiter_compute]
    for name, value in kwargs.items():
        strided = np.repeat(value, 2, axis=0)[::2]
        retyped = value.astype(np.int32 if value.dtype == np.int64 else np.float32)
        assert not strided.flags.c_contiguous
        for bad in (strided, retyped):
            with pytest.raises(ValueError, match="C-contiguous"):
                limiter.limiter_compute(*bounds, **dict(kwargs, **{name: bad}))


def test_row_kernels_compile_without_warnings():
    # -Wextra makes a kernel argument that no kernel reads fail the build
    done = subprocess.run(
        [rowkernels.COMPILER, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         str(rowkernels.SOURCE)], capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_second_import_does_not_recompile(monkeypatch):
    assert rowkernels.library_path().exists()

    def no_compiling(*args, **kwargs):
        raise AssertionError("the row kernels were compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiling)
    importlib.reload(rowkernels)


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


def test_missing_compiler_raises_import_error(tmp_path, monkeypatch):
    source = tmp_path / "kernels.c"
    shutil.copy(rowkernels.SOURCE, source)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="C compiler"):
        rowkernels.build(source)
    assert not (tmp_path / "_build").exists()
