"""The compiled row kernels of rowkernels.c and their build.

Importing this module compiles rowkernels.c with one C compiler call into
the directory _build next to it, unless that directory already holds the
library of the same source and flags: the library's name carries a hash of
both.  A build writes to a temporary file and renames it into place, so
processes that import the package at the same time never load a partly
written library.  The library is loaded with ctypes, which releases the GIL
for the duration of each call, so the kernels of different row chunks run
in parallel on the solver's worker pool.

A Binding takes one rank's arrays once: it checks dtype, C order and row
shape of every array (a per-slot array has the width of cols) and that the
per-node arrays hold the rows of cols, and keeps their addresses in the
struct rank that every kernel takes.  Each kernel is then one C call on a
range of rows [lo, hi) (or upper edges e0:e1) plus scalars, which checks
only that the range lies within the arrays the kernel indexes by it; see
rowkernels.c for what each computes.  Every kernel reads and writes the
valid slots of its rows only; like the neighbour ids in cols, the rows and
slots an edge list names are taken as they are.  The stages of step 0, of
the wavespeed (chained by riemann.d_ij_low) and of the limiter (chained by
limiter.limiter_compute through a LimiterChunk) allocate their scratch
arrays per call, as chunks of one rank may run at the same time, and take
the pow() values numpy computed between them after checking their dtype,
C order and size.
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

__all__ = ["SOURCE", "FLAGS", "library_path", "build", "ARRAYS", "Binding", "wavespeed_base",
           "LimiterChunk"]

SOURCE = Path(__file__).with_name("rowkernels.c")
# no multiply-add contraction: the kernels must give numpy's bits; sqrt()
# compiles to the instruction, with no libm call to set errno
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")
COMPILER = "gcc"


def library_path(source: Path = SOURCE, flags=FLAGS) -> Path:
    """Where the library of this source and these flags is built."""
    tag = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()[:16]
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
    return path




_lib = ctypes.CDLL(str(build()))

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_int = ctypes.c_int
_ptr = ctypes.c_void_p

_F, _I = np.float64, np.int64
# The arrays a Binding takes, in the order of struct rank in rowkernels.c:
# name -> (dtype, row shape), the row shape in terms of the slot width L,
# nvar and dim = nvar - 2.  The per-edge arrays have one row per upper edge,
# P, eta_scale and the bounds one per owned row, the others one per row of
# cols.
ARRAYS = {
    "cols": (_I, ("L",)), "trans_slot": (_I, ("L",)), "card": (_I, ()), "diag_slot": (_I, ()),
    "up_row": (_I, ()), "up_slot": (_I, ()),
    "m_slot": (_F, ("L",)), "c_slot": (_F, ("L", "dim")), "inv_m": (_F, ()),
    "n_up": (_F, ("dim",)), "norm_up": (_F, ()), "nT_up": (_F, ("dim",)), "normT_up": (_F, ()),
    "U": (_F, ("nvar",)), "U_next": (_F, ("nvar",)), "R": (_F, ("nvar",)),
    "f": (_F, ("nvar", "dim")), "eor": (_F, ()), "phi": (_F, ()), "alpha": (_F, ()),
    "d": (_F, ("L",)), "l": (_F, ("L",)), "l_next": (_F, ("L",)),
    "P": (_F, ("L", "nvar")), "eta_scale": (_F, ()), "rho_min": (_F, ()), "rho_max": (_F, ()),
    "phi_min": (_F, ()),
}
_EDGE = ("up_row", "up_slot", "n_up", "norm_up", "nT_up", "normT_up")
# a kernel may read these at any row of cols, so they must hold its rows
_NODE = tuple(name for name in ARRAYS if name not in _EDGE + (
    "P", "eta_scale", "rho_min", "rho_max", "phi_min"))
# per kernel, the arrays it reads; its range of rows must lie within each of
# them, and the wavespeed's range of upper edges within each per-edge array
_KERNELS = {
    "entropies": ("U", "f"),
    "flux_contraction": ("cols", "card", "c_slot", "U", "eor", "f", "P"),
    "indicator": ("U", "eor", "alpha", "eta_scale"),
    "mirror": ("cols", "trans_slot", "card", "diag_slot", "d"),
    "low_order": ("cols", "card", "inv_m", "U", "U_next", "R", "phi", "alpha", "d", "P",
                  "rho_min", "rho_max", "phi_min"),
    "correction": ("cols", "card", "m_slot", "inv_m", "R", "P"),
    "limited_update": ("cols", "trans_slot", "card", "U_next", "l", "P"),
    "limiter": ("card", "U_next", "P", "rho_min", "rho_max", "phi_min"),
    "wavespeed": _EDGE + ("cols", "U", "d"),
}


class _Rank(ctypes.Structure):
    """struct rank of rowkernels.c."""

    _fields_ = [("L", _i64), ("nvar", _i64)] + [(name, _ptr) for name in ARRAYS]


def _declare(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


# every kernel takes the address of a struct rank first
_entropies = _declare("entropies", _i64, _ptr, _i64, _i64, _i64, _f64, _ptr, _ptr)
_flux_contraction = _declare("flux_contraction", None, _ptr, _i64, _i64, _ptr, _ptr)
_indicator = _declare("indicator", None, _ptr, _i64, _i64, _ptr, _ptr, _f64)
_mirror = _declare("mirror", None, _ptr, _i64, _i64)
_low_order = _declare("low_order", None, _ptr, _i64, _i64, _f64)
_correction = _declare("correction", None, _ptr, _i64, _i64, _f64)
_limited_update = _declare("limited_update", None, _ptr, _i64, _i64, _int)
_wavespeed_project = _declare("wavespeed_project", _i64, _ptr, _i64, _i64, _f64, _f64, _ptr,
                              _ptr)
_wavespeed_base = _declare("wavespeed_base", None, _i64, _f64, _ptr, _ptr)
_wavespeed_bound = _declare("wavespeed_bound", None, _ptr, _i64, _i64, _f64, _f64, _ptr, _ptr,
                            _ptr)
_limiter_start = _declare("limiter_start", _i64, _ptr, _i64, _i64, _f64, _i64, _ptr, _ptr, _ptr)
_limiter_test = _declare("limiter_test", _i64, _ptr, _i64, _int, _i64, _ptr, _ptr, _ptr, _ptr)
_limiter_newton = _declare("limiter_newton", _i64, _ptr, _i64, _f64, _f64, _i64, _ptr, _ptr,
                           _ptr, _ptr, _ptr)
_limiter_scatter = _declare("limiter_scatter", None, _ptr, _i64, _i64, _ptr, _i64, _i64, _ptr,
                            _ptr)


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

    arrays maps names of ARRAYS to arrays (others are ignored, and an array
    left out only disables the kernels that read it); L is the slot width
    and nvar the number of state components.  Raises ValueError for an array
    of another dtype, not in C order, of another row shape or, when cols is
    given, a per-node array without the rows of cols.  The binding keeps the
    arrays alive, and rank holds their addresses.
    """

    def __init__(self, arrays, L, nvar):
        sizes = {"L": L, "nvar": nvar, "dim": nvar - 2}
        self.L, self.nvar = L, nvar
        self.arrays = {}
        self.rank = _Rank(L, nvar)
        self.address = ctypes.addressof(self.rank)
        for name, (dtype, row) in ARRAYS.items():
            a = arrays.get(name)
            if a is None:
                continue
            row = tuple(sizes[k] for k in row)
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
                raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array")
            if a.shape[1:] != row:
                raise ValueError(f"{name} has shape {a.shape} where rows of shape {row} "
                                 "are needed")
            self.arrays[name] = a
            setattr(self.rank, name, a.ctypes.data)
        if "cols" in self.arrays:
            n = len(self.arrays["cols"])
            for name in _NODE:
                if len(self.arrays.get(name, self.arrays["cols"])) != n:
                    raise ValueError(f"{name} has {len(self.arrays[name])} rows outside "
                                     f"the {n} rows of cols")
        self._set_limits()

    def _set_limits(self):
        # per kernel and per array, how far its range may reach; None where
        # an array it reads is not bound
        arrays = self.arrays
        self._limit = {name: len(a) for name, a in arrays.items()}
        for kernel, names in _KERNELS.items():
            ranged = _EDGE if kernel == "wavespeed" else names
            bound = all(name in arrays for name in names)
            self._limit[kernel] = min(len(arrays[name]) for name in ranged) if bound else None

    def check(self, kernel, lo, hi):
        """Raise ValueError unless kernel (a kernel or an array name) has its
        arrays bound and 0 <= lo <= hi <= the rows of each it indexes."""
        limit = self._limit.get(kernel)
        if limit is None:
            raise ValueError(f"{kernel} needs arrays that are not bound")
        if not 0 <= lo <= hi <= limit:
            raise ValueError(f"rows [{lo}, {hi}) outside the arrays of {kernel}")

    def swap(self, a, b):
        """Bind the array of a as b and that of b as a, as the solver swaps
        U and U_next, and l and l_next; nothing is checked again."""
        if ARRAYS[a] != ARRAYS[b]:
            raise ValueError(f"{a} and {b} have different row shapes")
        arrays = self.arrays
        arrays[a], arrays[b] = arrays[b], arrays[a]
        for name in (a, b):
            setattr(self.rank, name, arrays[name].ctypes.data)
        self._set_limits()

    def entropies(self, lo, hi, own, gas):
        """Step 0's stage: writes f of the rows [lo, hi); returns their eps
        and rho eps, and the number of rows below own with rho eps <= 0."""
        self.check("entropies", lo, hi)
        out = np.empty((2, hi - lo))
        p = out.ctypes.data
        bad = _entropies(self.address, lo, hi, own, gas.gm1, p, p + 8 * (hi - lo))
        return out[0], out[1], bad

    def flux_contraction(self, lo, hi):
        """Writes the flux contraction of the rows [lo, hi) into P and
        returns their indicator slot sums (a, b)."""
        self.check("flux_contraction", lo, hi)
        a, b = np.zeros(hi - lo), np.zeros((hi - lo, self.nvar))
        _flux_contraction(self.address, lo, hi, a.ctypes.data, b.ctypes.data)
        return a, b

    def indicator(self, lo, hi, a, b, floor):
        """Writes alpha of the rows [lo, hi) from their slot sums a and b and
        eta_scale, 0 where the denominator is not above floor."""
        self.check("indicator", lo, hi)
        _indicator(self.address, lo, hi, _address(a, hi - lo), _address(b, (hi - lo) * self.nvar),
                   floor)

    def mirror(self, lo, hi):
        """d of the lower slots and the diagonal of the rows [lo, hi)."""
        self.check("mirror", lo, hi)
        _mirror(self.address, lo, hi)

    def low_order(self, lo, hi, tau):
        """The low-order update, R and the bounds of the rows [lo, hi); P
        takes the viscous part of the correction fluxes."""
        self.check("low_order", lo, hi)
        _low_order(self.address, lo, hi, tau)

    def correction(self, lo, hi, tau):
        """The correction fluxes of the rows [lo, hi) into P."""
        self.check("correction", lo, hi)
        _correction(self.address, lo, hi, tau)

    def limited_update(self, lo, hi, last=True):
        """The limited update of U_next over the rows [lo, hi); unless last,
        P is then scaled by 1 - min(l_ij, l_ji) in place."""
        self.check("limited_update", lo, hi)
        _limited_update(self.address, lo, hi, int(last))

    def wavespeed_project(self, e0, e1, gas):
        """Stage 1 of the wavespeed of the upper edges e0:e1: returns their
        projected states (e1 - e0, 4, 4), pressure ratios (e1 - e0, 2) and
        the number of projected states with rho <= 0 or p <= 0."""
        self.check("wavespeed", e0, e1)
        states, q = np.empty((e1 - e0, 4, 4)), np.empty((e1 - e0, 2))
        bad = _wavespeed_project(self.address, e0, e1, gas.gamma, gas.gm1, states.ctypes.data,
                                 q.ctypes.data)
        return states, q, bad

    def wavespeed_bound(self, e0, e1, states, q, gas):
        """Stage 3: d_ij of the upper edges e0:e1 from their projected states
        and q, the bases to the power 2 gamma / (gamma - 1), written into
        their slots of d and returned."""
        self.check("wavespeed", e0, e1)
        out = np.empty(e1 - e0)
        _wavespeed_bound(self.address, e0, e1, gas.gamma, gas.gm1,
                         _address(states, 16 * (e1 - e0)), _address(q, 2 * (e1 - e0)),
                         out.ctypes.data)
        return out


def wavespeed_base(states, q, gas):
    """Stage 2: q, the pressure ratios to the power -(gamma - 1) / (2 gamma),
    takes the clamped two-rarefaction base of each direction in place."""
    ne = len(states)
    _wavespeed_base(ne, gas.gm1, _address(states, 16 * ne), _address(q, 2 * ne))


class LimiterChunk:
    """The limiter stages over the rows [lo, hi) of one chunk of a bound
    rank, around the states U_next, into its array named out (l or l_next).

    The chunk's range is checked and its scratch arrays allocated when the
    chunk is made; each stage is then one C call.  Its entries are one per
    row, with P = 0, and one per valid slot whose P is not all +-0, row after
    row; n is the number of open entries.  A stage that hands densities to
    numpy returns them as views of the scratch array q, valid until the next
    stage runs.
    """

    def __init__(self, bound, lo, hi, out="l"):
        bound.check("limiter", lo, hi)
        bound.check(out, lo, hi)
        self.r, self.rows, self.l = bound.address, (lo, hi), getattr(bound.rank, out)
        self.cap = cap = (hi - lo) * (bound.L + 1)
        # row, flat and open; t_L, t_R, tol and Psi(t_R); packed densities
        self.ix = np.empty((3, cap), dtype=np.int64)
        self.x, self.q = np.empty((4, cap)), np.empty(2 * cap)
        self._ix, self._x, self._q = (a.ctypes.data for a in (self.ix, self.x, self.q))
        self.n = self.entries = 0

    def start(self, tol_scale):
        """Stage start: every entry opens with t_L = 0, the density-clamped
        t_R and tol = tol_scale |rho eps(U_i)|; returns their densities at
        t_R."""
        self.n = self.entries = _limiter_start(self.r, *self.rows, tol_scale, self.cap, self._ix,
                                               self._x, self._q)
        return self.q[:self.n]

    def test(self, w, newton):
        """Stage test, w the densities of start or newton to the power
        gamma + 1: Psi(t_R) >= 0 closes an entry at t_R, and so does every
        entry without newton.  Returns the densities of the open entries at
        t_L, and at t_L and then t_R."""
        self.n = _limiter_test(self.r, self.n, int(newton), self.cap, self._ix, self._x,
                               _address(w, self.n), self._q)
        return self.q[:self.n], self.q[:2 * self.n]

    def newton(self, w_L, g, gp1, sign):
        """Stage newton, w_L the densities at t_L to the power gamma + 1 and g
        those at t_L and t_R to the power gamma = gp1 - 1: Psi(t_L) <= tol
        closes an entry at t_L, the others take one Newton step, whose
        quadratic models bend by sign.  Returns the densities of the open
        entries at their new t_R."""
        self.n = _limiter_newton(self.r, self.n, gp1, sign, self.cap, self._ix, self._x,
                                 _address(w_L, self.n), _address(g, 2 * self.n), self._q)
        return self.q[:self.n]

    def scatter(self):
        """Stage scatter: writes the factor of every valid slot into l and
        returns the factors of the entries."""
        _limiter_scatter(self.r, *self.rows, self.l, self.entries, self.cap, self._ix, self._x)
        return self.x[0, :self.entries]
