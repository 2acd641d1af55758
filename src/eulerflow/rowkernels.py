"""The compiled row kernels of rowkernels.c and their build.

Importing this module compiles rowkernels.c with one C compiler call into
the directory _build next to it, unless that directory already holds the
library of the same source and flags, built for a CPU with the same feature
flags (-march=native).  A build writes to a temporary file and renames it
into place, so processes that import the package at the same time never
load a partly written library, and then deletes the other libraries in
_build.  ctypes releases the GIL for each call, so the kernels of different
row chunks run in parallel on the solver's worker pool.

The kernels raise to powers with np.power's own inner loop on float64
operands, which power_loop takes from the ufunc's table of loops, not with
libm's pow(), whose bits differ; at import, check_power_loop compares it
with np.power.  A Binding checks one rank's arrays against ARRAYS once and
keeps their addresses, which never change, in the struct rank that every
kernel takes.  The index arrays are narrow: row ids and edge numbers are
int32, slot numbers and row lengths uint8, and a rank's flat slots
row * L + slot fit int32 (sparsity.check_width).  Each kernel (see
rowkernels.c) is then one C call on a range of rows [lo, hi) or upper edges
e0:e1 within the row count it indexes by (rows, owned or edges), plus
scalars; the limiter's, one to start and one per Newton round, keep their
int32 scratch indices in a LimiterChunk.  Every
kernel is compiled once for each state width of WIDTHS, nvar = 3, 4 and 5
in 1, 2 and 3 dimensions, and one dispatch in the C source picks the body
of a rank's width on each call; a Binding rejects any other nvar.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .physics import AIR, GasConstants
from .sparsity import ROW, SLOT, check_width

__all__ = ["SOURCE", "FLAGS", "WIDTHS", "host_cpu", "library_path", "build", "power_loop",
           "check_power_loop", "POWER", "ARRAYS", "zeros", "Binding", "LimiterChunk"]

SOURCE = Path(__file__).with_name("rowkernels.c")
# code for this CPU, with the loops marked #pragma omp simd vectorized; the
# loops over a body's constant nvar and dim unrolled completely, which -O2
# alone does only where that does not grow the code; no multiply-add
# contraction: the kernels must give numpy's bits; sqrt() compiles to the
# instruction, with no libm call to set errno
FLAGS = ("-O2", "-fpeel-loops", "-march=native", "-fopenmp-simd", "-shared", "-fPIC",
         "-ffp-contract=off", "-fno-math-errno")
COMPILER = "gcc"
# the state widths nvar = dim + 2 that rowkernels.c compiles each kernel for
WIDTHS = (3, 4, 5)


def host_cpu() -> str:
    """The features of this host's CPU: the first flags line of /proc/cpuinfo,
    or the empty string where there is none."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return ""
    return next((line for line in lines if line.startswith("flags")), "")


def library_path(source: Path = SOURCE, flags=FLAGS) -> Path:
    """Where the library of this source and these flags is built; with
    -march=native among the flags, the name also depends on host_cpu()."""
    host = host_cpu() if "-march=native" in flags else ""
    tag = hashlib.sha256(source.read_bytes() + "\0".join((*flags, host)).encode()).hexdigest()[:16]
    return source.with_name("_build") / f"{source.stem}-{tag}.so"


def build(source: Path = SOURCE, flags=FLAGS) -> Path:
    """The path of the compiled library, compiling it first if it is missing.

    Raises ImportError when no C compiler is found or the compile fails.
    """
    path = library_path(source, flags)
    if path.exists():
        return path
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise ImportError(
            f"eulerflow compiles its row kernels from {source.name} and needs the C "
            f"compiler {COMPILER!r} on PATH, which was not found"
        )
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *flags, "-o", tmp, str(source)], capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise ImportError(f"compiling {source.name} failed:\n{done.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # the libraries of earlier sources or flags; a process that loaded one
    # keeps its mapping
    for old in path.parent.glob(f"{source.stem}-*.so"):
        if old != path:
            old.unlink(missing_ok=True)
    return path


_lib = ctypes.CDLL(str(build()))

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_int = ctypes.c_int
_ptr = ctypes.c_void_p

_F = np.float64
# The arrays a Binding takes, in the order of struct rank in rowkernels.c:
# name -> (dtype, shape).  A shape is its row count, then its row shape: the
# row count is rows (the rows of cols), owned (the rank's owned rows), edges
# (its upper edges) or twos (the upper edges that keep two directions, whose
# ascending edge numbers two_edge lists); the row shape is in terms of the
# slot width L, nvar and dim = nvar - 2.
ARRAYS = {
    "cols": (ROW, ("rows", "L")), "trans_slot": (SLOT, ("rows", "L")), "card": (SLOT, ("rows",)),
    "diag_slot": (SLOT, ("rows",)), "up_row": (ROW, ("edges",)), "up_slot": (SLOT, ("edges",)),
    "two_edge": (ROW, ("twos",)),
    "m_slot": (_F, ("rows", "L")), "c_slot": (_F, ("rows", "L", "dim")), "inv_m": (_F, ("rows",)),
    "n_up": (_F, ("edges", "dim")), "norm_up": (_F, ("edges",)), "nT_two": (_F, ("twos", "dim")),
    "normT_two": (_F, ("twos",)),
    "U": (_F, ("rows", "nvar")), "U_next": (_F, ("rows", "nvar")), "R": (_F, ("rows", "nvar")),
    "f": (_F, ("rows", "nvar", "dim")), "vpc": (_F, ("rows", "nvar")), "eor": (_F, ("rows",)),
    "phi": (_F, ("rows",)),
    "alpha": (_F, ("rows",)), "d": (_F, ("rows", "L")), "l": (_F, ("rows", "L")),
    "P": (_F, ("owned", "L", "nvar")), "eta_scale": (_F, ("owned",)),
    "rho_min": (_F, ("owned",)), "rho_max": (_F, ("owned",)), "phi_min": (_F, ("owned",)),
}


def _shape(name, sizes):
    return tuple(sizes[k] for k in ARRAYS[name][1])


def zeros(names, rows, owned, edges, L, nvar, twos=0):
    """Zero-filled arrays of the names of ARRAYS, as name -> array, for a
    rank of these row counts, slot width L and nvar state components."""
    sizes = dict(rows=rows, owned=owned, edges=edges, twos=twos, L=L, nvar=nvar, dim=nvar - 2)
    return {name: np.zeros(_shape(name, sizes), ARRAYS[name][0]) for name in names}


class _Rank(ctypes.Structure):
    """struct rank of rowkernels.c."""

    _fields_ = [("L", _i64), ("nvar", _i64), ("twos", _i64)] + [(name, _ptr) for name in ARRAYS]


def _declare(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


# every kernel takes the address of a struct rank first, and those that
# raise to a power the address of a struct power next
_powers = _declare("powers", None, _ptr, _i64, _ptr, _f64, _ptr)
_entropies = _declare("entropies", _i64, _ptr, _ptr, _i64, _i64, _i64, _f64)
_flux_contraction = _declare("flux_contraction", None, _ptr, _i64, _i64, _ptr, _ptr)
_indicator = _declare("indicator", None, _ptr, _i64, _i64, _ptr, _ptr, _f64)
_mirror = _declare("mirror", None, _ptr, _i64, _i64)
_low_order = _declare("low_order", None, _ptr, _i64, _i64, _f64)
_correction = _declare("correction", None, _ptr, _i64, _i64, _f64)
_limited_update = _declare("limited_update", None, _ptr, _i64, _i64, _int)
_wavespeed = _declare("wavespeed", _i64, _ptr, _ptr, _i64, _i64, _f64, _ptr)
_limiter_start = _declare("limiter_start", _i64, _ptr, _ptr, _i64, _i64, _f64, _f64, _int, _i64,
                          _ptr, _ptr, _ptr, _ptr)
_limiter_round = _declare("limiter_round", _i64, _ptr, _ptr, _i64, _f64, _f64, _int, _i64, _ptr,
                          _ptr, _ptr)


class _UFuncHead(ctypes.Structure):
    """PyUFuncObject of numpy/ufuncobject.h up to types; its object header,
    PyObject_HEAD, is as large as that of object on every CPython build."""

    _fields_ = [("ob_base", ctypes.c_char * object.__basicsize__), ("nin", _int),
                ("nout", _int), ("nargs", _int), ("identity", _int),
                ("functions", ctypes.POINTER(_ptr)), ("data", ctypes.POINTER(_ptr)),
                ("ntypes", _int), ("reserved1", _int), ("name", ctypes.c_char_p),
                ("types", ctypes.POINTER(ctypes.c_char))]


class _Power(ctypes.Structure):
    _fields_ = [("loop", _ptr), ("data", _ptr)]  # struct power of rowkernels.c


def power_loop(ufunc=np.power):
    """The 'dd->d' inner loop of a binary numpy ufunc, as the kernels take it.
    Raises ImportError when there is none, or the ufunc's C object does not
    hold what numpy/ufuncobject.h lays out."""
    if not (isinstance(ufunc, np.ufunc) and "dd->d" in ufunc.types):
        raise ImportError(f"{ufunc!r} is not a numpy ufunc with a float64 loop ('dd->d')")
    head, k = _UFuncHead.from_address(id(ufunc)), ufunc.types.index("dd->d")
    if (head.name, head.ntypes, head.nargs, head.types[3 * k:3 * k + 3]) != (
            ufunc.__name__.encode(), ufunc.ntypes, 3, bytes([np.dtype("d").num] * 3)):
        raise ImportError(f"the C object of np.{ufunc.__name__} is not laid out as "
                          "numpy/ufuncobject.h describes")
    return _Power(head.functions[k], head.data[k])


def _exponents(gas):
    """The exponents of step 0, the wavespeed and the limiter."""
    return (gas.gp1_inv, -gas.gamma, -gas.gamma * gas.gp1_inv, -gas.gm1_over_2g,
            gas.two_g_over_gm1, gas.gamma + 1.0, gas.gamma)


# zeros, a subnormal, one, infinities, NaN, a negative value, 1e-3 to 1e3
PROBE = np.append([0.0, -0.0, 5e-324, 1.0, np.inf, -np.inf, np.nan, -2.0],
                  np.geomspace(1e-3, 1e3, 64))


def check_power_loop(loop, gases=(AIR, GasConstants(5.0 / 3.0))):
    """Raise ImportError unless the loop, called as the kernels call it,
    gives np.power's bits on PROBE at every exponent of the gases."""
    got = np.empty_like(PROBE)
    for y in (y for gas in gases for y in _exponents(gas)):
        _powers(ctypes.addressof(loop), len(PROBE), PROBE.ctypes.data, y, got.ctypes.data)
        with np.errstate(all="ignore"):
            if got.tobytes() != np.power(PROBE, y).tobytes():
                raise ImportError(f"the pow() loop of the row kernels differs from np.power at "
                                  f"the exponent {y!r}, so they would not give numpy's bits")


# the loop of np.power, which every binding made from now on takes
POWER = power_loop(np.power)
check_power_loop(POWER)


def _address(a, size=0):
    """The address of a's data; raises ValueError unless a is a C-contiguous
    float64 array with at least size entries."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous):
        raise ValueError("a C-contiguous float64 array is needed")
    if a.size < size:
        raise ValueError(f"{size} entries are outside an array of {a.size}")
    return a.ctypes.data


class Binding:
    """One rank's arrays, checked once and bound for the compiled kernels.

    arrays maps every name of ARRAYS to an array (other names are ignored).
    The slot width L is that of cols and nvar that of U; counts holds the
    row counts rows = len(cols), owned = len(P), edges = len(up_row) and
    twos = len(two_edge).  Raises ValueError for a missing array, one of
    another dtype or not in C order, one whose shape is not the one ARRAYS
    gives for these sizes, for owned > rows, for an nvar not in WIDTHS and
    for rows and L that sparsity.check_width rejects.  The binding keeps the
    arrays alive, and rank their addresses, and the kernels raise to powers
    with the loop POWER of when it was made.
    """

    def __init__(self, arrays):
        for name, (dtype, _) in ARRAYS.items():
            a = arrays.get(name)
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
                raise ValueError(f"{name} must be given as a C-contiguous {np.dtype(dtype)} array")
        self.arrays = a = {name: arrays[name] for name in ARRAYS}
        self.L, self.nvar = a["cols"].shape[-1], a["U"].shape[-1]
        self.counts = dict(rows=len(a["cols"]), owned=len(a["P"]), edges=len(a["up_row"]),
                           twos=len(a["two_edge"]))
        if self.counts["owned"] > self.counts["rows"]:
            raise ValueError(f"P has {len(a['P'])} rows, more than the {len(a['cols'])} of cols")
        if self.nvar not in WIDTHS:
            raise ValueError(f"U has {self.nvar} components, and the kernels are compiled for "
                             f"{WIDTHS} only")
        check_width(self.counts["rows"], self.L)
        sizes = dict(self.counts, L=self.L, nvar=self.nvar, dim=self.nvar - 2)
        self.rank = _Rank(self.L, self.nvar, self.counts["twos"])
        self.address = ctypes.addressof(self.rank)
        self.power, self.pw = POWER, ctypes.addressof(POWER)
        for name, x in a.items():
            shape = _shape(name, sizes)
            if x.shape != shape:
                raise ValueError(f"{name} has shape {x.shape} where {shape[0]} rows "
                                 f"({ARRAYS[name][1][0]}) of shape {shape[1:]} are needed")
            setattr(self.rank, name, x.ctypes.data)

    def check(self, count, lo, hi):
        """Raise ValueError unless 0 <= lo <= hi <= counts[count], count one
        of rows, owned and edges."""
        n = self.counts[count]
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"[{lo}, {hi}) is outside the range of {count}, [0, {n})")

    def entropies(self, lo, hi, own, gas):
        """Step 0 on the rows [lo, hi): f, vpc, eor, phi and eta_scale below
        own, an owned row count.  Returns the number of rows below own with
        rho eps <= 0; where it is not 0, the last three are written in part."""
        self.check("rows", lo, hi)
        self.check("owned", 0, own)
        return _entropies(self.address, self.pw, lo, hi, own, gas.gamma)

    def flux_contraction(self, lo, hi):
        """Writes the flux contraction of the rows [lo, hi) into P and
        returns their indicator slot sums (a, b)."""
        self.check("owned", lo, hi)
        a, b = np.zeros(hi - lo), np.zeros((hi - lo, self.nvar))
        _flux_contraction(self.address, lo, hi, a.ctypes.data, b.ctypes.data)
        return a, b

    def indicator(self, lo, hi, a, b, floor):
        """Writes alpha of the rows [lo, hi) from their slot sums a and b and
        eta_scale, 0 where the denominator is not above floor."""
        self.check("owned", lo, hi)
        _indicator(self.address, lo, hi, _address(a, hi - lo), _address(b, (hi - lo) * self.nvar),
                   floor)

    def mirror(self, lo, hi):
        """d of the lower slots and the diagonal of the rows [lo, hi)."""
        self.check("rows", lo, hi)
        _mirror(self.address, lo, hi)

    def low_order(self, lo, hi, tau):
        """The low-order update, R and the bounds of the rows [lo, hi); P
        takes the viscous part of the correction fluxes."""
        self.check("owned", lo, hi)
        _low_order(self.address, lo, hi, tau)

    def correction(self, lo, hi, tau):
        """The correction fluxes of the rows [lo, hi) into P."""
        self.check("owned", lo, hi)
        _correction(self.address, lo, hi, tau)

    def limited_update(self, lo, hi, last=True):
        """The limited update of U_next over the rows [lo, hi); unless last,
        P is then scaled by 1 - min(l_ij, l_ji) in place."""
        self.check("owned", lo, hi)
        _limited_update(self.address, lo, hi, int(last))

    def wavespeed(self, e0, e1, gas):
        """d_ij of the upper edges e0:e1 from the node states of step 0,
        written into their slots of d.  Returns d_ij as an (e1 - e0,) array
        and the number of directions evaluated, two for an edge of two_edge
        and one for any other; that number is -1, and d is not written, when
        a node state has rho <= 0 or p <= 0."""
        self.check("edges", e0, e1)
        out = np.empty(e1 - e0)
        return out, _wavespeed(self.address, self.pw, e0, e1, gas.gamma, out.ctypes.data)


class LimiterChunk:
    """The limiter of the rows [lo, hi) of a bound rank (see rowkernels.c).

    start makes the chunk's entries, the valid slots whose P is not all
    +-0, gives every other valid slot 1 and tests every entry at t_R; each
    round is one Newton round of the entries still open.  Both return the
    number of entries left open, which the scratch arrays keep in between.
    l, and factors in entry order, hold each entry's factor so far.
    """

    def __init__(self, bound, lo, hi):
        bound.check("owned", lo, hi)
        cap = (hi - lo) * bound.L
        # row, flat and number of the open entries, which the binding's
        # check_width keeps within ROW; their t_L, t_R, tol and Psi(t_R), then
        # the factors of all entries
        self.ix, self.x = np.empty(3 * cap, dtype=ROW), np.empty(5 * cap)
        self.factors = self.x[4 * cap:]
        self.kernel, self.rows = (bound.address, bound.pw), (lo, hi)
        self.scratch = (cap, self.ix.ctypes.data, self.x.ctypes.data, self.factors.ctypes.data)

    def start(self, tol_scale, newton, gas):
        """The entries, with tol = tol_scale |rho eps(U_i)|; without newton
        every entry closes."""
        entries = ctypes.c_int64()
        self.open = _limiter_start(*self.kernel, *self.rows, gas.gamma, tol_scale, int(newton),
                                   *self.scratch, ctypes.byref(entries))
        self.factors = self.factors[:entries.value]
        return self.open

    def round(self, sign, test, gas):
        """A Newton round, whose quadratic models bend by sign; with test,
        it ends with the test at the new t_R."""
        self.open = _limiter_round(*self.kernel, self.open, gas.gamma, sign, int(test),
                                   *self.scratch)
        return self.open
