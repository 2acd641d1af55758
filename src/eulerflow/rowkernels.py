"""The compiled row kernels of rowkernels.c and their build.

Importing this module compiles rowkernels.c with one C compiler call into
the directory _build next to it, unless that directory already holds the
library of the same source and flags: the library's name carries a hash of
both.  A build writes to a temporary file and renames it into place, so
processes that import the package at the same time never load a partly
written library; once it is in place, the libraries of other sources or
flags in _build are deleted.  The library is loaded with ctypes, which
releases the GIL for the duration of each call, so the kernels of different
row chunks run in parallel on the solver's worker pool.

A Binding takes all of one rank's arrays once: it checks the dtype, C
order and shape of every array against ARRAYS, and keeps their addresses,
which never change, in the struct rank that every kernel takes.  Each kernel
is then one C call on a range of rows [lo, hi) (or upper edges e0:e1) plus
scalars, which checks only that the range lies within the row count the
kernel indexes by: rows, owned or edges.  See rowkernels.c for what each
computes.  Every kernel reads and writes the valid slots of its rows only;
like the neighbour ids in cols, the rows and slots an edge list names are
taken as they are.  The stages of step 0, of the wavespeed (chained by
riemann.d_ij_low) and of the limiter (chained by limiter.limiter_compute
through a LimiterChunk) allocate their scratch arrays per call, as chunks of
one rank may run at the same time, and take the pow() values numpy computed
between them after checking their dtype, C order and size.
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

__all__ = ["SOURCE", "FLAGS", "library_path", "build", "ARRAYS", "zeros", "Binding",
           "wavespeed_base", "LimiterChunk"]

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

_F, _I = np.float64, np.int64
# The arrays a Binding takes, in the order of struct rank in rowkernels.c:
# name -> (dtype, shape).  A shape is its row count, then its row shape: the
# row count is rows (the rows of cols), owned (the rank's owned rows) or
# edges (its upper edges); the row shape is in terms of the slot width L,
# nvar and dim = nvar - 2.
ARRAYS = {
    "cols": (_I, ("rows", "L")), "trans_slot": (_I, ("rows", "L")), "card": (_I, ("rows",)),
    "diag_slot": (_I, ("rows",)), "up_row": (_I, ("edges",)), "up_slot": (_I, ("edges",)),
    "m_slot": (_F, ("rows", "L")), "c_slot": (_F, ("rows", "L", "dim")), "inv_m": (_F, ("rows",)),
    "n_up": (_F, ("edges", "dim")), "norm_up": (_F, ("edges",)), "nT_up": (_F, ("edges", "dim")),
    "normT_up": (_F, ("edges",)),
    "U": (_F, ("rows", "nvar")), "U_next": (_F, ("rows", "nvar")), "R": (_F, ("rows", "nvar")),
    "f": (_F, ("rows", "nvar", "dim")), "vpc": (_F, ("rows", "nvar")), "eor": (_F, ("rows",)),
    "phi": (_F, ("rows",)),
    "alpha": (_F, ("rows",)), "d": (_F, ("rows", "L")), "l": (_F, ("rows", "L")),
    "P": (_F, ("owned", "L", "nvar")), "eta_scale": (_F, ("owned",)),
    "rho_min": (_F, ("owned",)), "rho_max": (_F, ("owned",)), "phi_min": (_F, ("owned",)),
}


def _shape(name, sizes):
    return tuple(sizes[k] for k in ARRAYS[name][1])


def zeros(names, rows, owned, edges, L, nvar):
    """Zero-filled arrays of the names of ARRAYS, as name -> array, for a
    rank of these row counts, slot width L and nvar state components."""
    sizes = dict(rows=rows, owned=owned, edges=edges, L=L, nvar=nvar, dim=nvar - 2)
    return {name: np.zeros(_shape(name, sizes), ARRAYS[name][0]) for name in names}


class _Rank(ctypes.Structure):
    """struct rank of rowkernels.c."""

    _fields_ = [("L", _i64), ("nvar", _i64)] + [(name, _ptr) for name in ARRAYS]


def _declare(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


# every kernel takes the address of a struct rank first
_entropies = _declare("entropies", _i64, _ptr, _i64, _i64, _i64, _f64, _f64, _ptr, _ptr)
_flux_contraction = _declare("flux_contraction", None, _ptr, _i64, _i64, _ptr, _ptr)
_indicator = _declare("indicator", None, _ptr, _i64, _i64, _ptr, _ptr, _f64)
_mirror = _declare("mirror", None, _ptr, _i64, _i64)
_low_order = _declare("low_order", None, _ptr, _i64, _i64, _f64)
_correction = _declare("correction", None, _ptr, _i64, _i64, _f64)
_limited_update = _declare("limited_update", None, _ptr, _i64, _i64, _int)
_wavespeed_project = _declare("wavespeed_project", _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr)
_wavespeed_base = _declare("wavespeed_base", None, _i64, _f64, _ptr, _ptr)
_wavespeed_bound = _declare("wavespeed_bound", _i64, _ptr, _i64, _i64, _f64, _f64, _i64, _ptr,
                            _ptr, _ptr)
_limiter_start = _declare("limiter_start", _i64, _ptr, _i64, _i64, _f64, _i64, _ptr, _ptr, _ptr)
_limiter_test = _declare("limiter_test", _i64, _ptr, _i64, _int, _i64, _ptr, _ptr, _ptr, _ptr)
_limiter_newton = _declare("limiter_newton", _i64, _ptr, _i64, _f64, _f64, _i64, _ptr, _ptr,
                           _ptr, _ptr, _ptr)
_limiter_scatter = _declare("limiter_scatter", None, _ptr, _i64, _i64, _i64, _i64, _ptr, _ptr)


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
    row counts rows = len(cols), owned = len(P) and edges = len(up_row).
    Raises ValueError for a missing array, one of another dtype or not in C
    order, one whose shape is not the one ARRAYS gives for these sizes, and
    for owned > rows.  The binding keeps the arrays alive, and rank holds
    their addresses, which never change: the solver commits a step by
    copying into U, and every limiter pass writes l in place.
    """

    def __init__(self, arrays):
        for name, (dtype, _) in ARRAYS.items():
            a = arrays.get(name)
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
                raise ValueError(f"{name} must be given as a C-contiguous {np.dtype(dtype)} array")
        self.arrays = a = {name: arrays[name] for name in ARRAYS}
        self.L, self.nvar = a["cols"].shape[-1], a["U"].shape[-1]
        self.counts = dict(rows=len(a["cols"]), owned=len(a["P"]), edges=len(a["up_row"]))
        if self.counts["owned"] > self.counts["rows"]:
            raise ValueError(f"P has {len(a['P'])} rows, more than the {len(a['cols'])} of cols")
        sizes = dict(self.counts, L=self.L, nvar=self.nvar, dim=self.nvar - 2)
        self.rank = _Rank(self.L, self.nvar)
        self.address = ctypes.addressof(self.rank)
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
        """Step 0's stage: writes f and the node states vpc of the rows
        [lo, hi); returns their eps and rho eps, and the number of rows below
        own with rho eps <= 0."""
        self.check("rows", lo, hi)
        out = np.empty((2, hi - lo))
        p = out.ctypes.data
        bad = _entropies(self.address, lo, hi, own, gas.gamma, gas.gm1, p, p + 8 * (hi - lo))
        return out[0], out[1], bad

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

    def wavespeed_project(self, e0, e1):
        """Stage 1 of the wavespeed of the upper edges e0:e1, from the node
        states of step 0: returns the left and right states of their
        directions (nd, 2, 4), one for an edge whose c_ji is bitwise -c_ij
        and two for any other, the pressure ratios (nd,) and the number of
        node states gathered with rho <= 0 or p <= 0."""
        self.check("edges", e0, e1)
        states, q = np.empty((2 * (e1 - e0), 2, 4)), np.empty(2 * (e1 - e0))
        bad = ctypes.c_int64()
        nd = _wavespeed_project(self.address, e0, e1, ctypes.addressof(bad), states.ctypes.data,
                                q.ctypes.data)
        return states[:nd], q[:nd], bad.value

    def wavespeed_bound(self, e0, e1, states, q, gas):
        """Stage 3: d_ij of the upper edges e0:e1 from the states of their
        directions and q, the bases to the power 2 gamma / (gamma - 1),
        written into their slots of d and returned.  Raises ValueError when
        the edges take other than the len(q) directions given."""
        self.check("edges", e0, e1)
        out, nd = np.empty(e1 - e0), len(q)
        used = _wavespeed_bound(self.address, e0, e1, gas.gamma, gas.gm1, nd,
                                _address(states, 8 * nd), _address(q, nd), out.ctypes.data)
        if used != nd:
            took = "more" if used < 0 else used
            raise ValueError(f"edges {e0}:{e1} take {took} directions, not the {nd} given")
        return out


def wavespeed_base(states, q, gas):
    """Stage 2: q, the pressure ratios to the power -(gamma - 1) / (2 gamma),
    takes the clamped two-rarefaction base of each direction in place."""
    nd = len(q)
    _wavespeed_base(nd, gas.gm1, _address(states, 8 * nd), _address(q, nd))


class LimiterChunk:
    """The limiter stages over the rows [lo, hi) of one chunk of a bound
    rank, around the states U_next, into its l.

    The chunk's range is checked and its scratch arrays allocated when the
    chunk is made; each stage is then one C call.  Its entries are the valid
    slots whose P is not all +-0, row after row, and every other valid slot
    takes 1; n is the number of open entries.  A stage that hands densities to
    numpy returns them as views of the scratch array q, valid until the next
    stage runs.
    """

    def __init__(self, bound, lo, hi):
        bound.check("owned", lo, hi)
        self.r, self.rows = bound.address, (lo, hi)
        self.cap = cap = (hi - lo) * bound.L
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
        """Stage scatter: writes the factor of every valid slot into l, 1 where
        it has no entry, and returns the factors of the entries."""
        _limiter_scatter(self.r, *self.rows, self.entries, self.cap, self._ix, self._x)
        return self.x[0, :self.entries]
