"""The compiled row kernels of rowkernels.c and their build.

Importing this module compiles rowkernels.c with one C compiler call into
the directory _build next to it, unless that directory already holds the
library of the same source and flags: the library's name carries a hash of
both.  A build writes to a temporary file and renames it into place, so
processes that import the package at the same time never load a partly
written library.  The library is loaded with ctypes, which releases the GIL
for the duration of each call, so the kernels of different row chunks run
in parallel on the solver's worker pool.

Each wrapper below checks dtype and C order of its arrays (through the
ctypes argument types), the row shape of every array (a per-slot array has
the width of cols) and that [lo, hi) lies within every array, then runs one
kernel over the rows [lo, hi); see rowkernels.c for what each computes.
Every kernel reads and writes the valid slots of its rows only.  The
wavespeed stages run over the upper edges e0:e1 instead: they check that
range in every per-edge array, that the stencil arrays hold the rows of
cols and the scratch arrays passed from stage to stage the same edges;
riemann.d_ij_low chains them.  Like the neighbour ids in cols, the rows and
slots an edge list names are taken as they are.  The limiter stages run
over the rows of a chunk, several C calls with numpy's pow() between them:
LimiterChunk checks the arrays, dtype and C order included, and takes their
addresses once per chunk, and limiter.limiter_compute chains its stages.
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

__all__ = ["SOURCE", "FLAGS", "library_path", "build",
           "flux_contraction", "mirror", "low_order", "correction", "limited_update",
           "wavespeed_project", "wavespeed_base", "wavespeed_bound", "LimiterChunk"]

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


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


_I, _F = _array(np.int64), _array(np.float64)


def _declare(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


_flux_contraction = _declare("flux_contraction", None, _i64, _i64, _i64, _i64, _i64, _I, _I,
                             _F, _F, _F, _F, _F, _F, _F)
_mirror = _declare("mirror", None, _i64, _i64, _i64, _I, _I, _I, _I, _F)
_low_order = _declare("low_order", None, _i64, _i64, _i64, _i64, _I, _I, _f64, _F, _F, _F,
                      _F, _F, _F, _F, _F, _F, _F, _F)
_correction = _declare("correction", None, _i64, _i64, _i64, _i64, _I, _I, _f64, _F, _F, _F,
                       _F)
_limited_update = _declare("limited_update", None, _i64, _i64, _i64, _i64, _I, _I, _I, _F,
                           _int, _F, _F)
_wavespeed_project = _declare("wavespeed_project", _i64, _i64, _i64, _i64, _i64, _I, _I, _I,
                              _F, _F, _F, _f64, _f64, _F, _F)
_wavespeed_base = _declare("wavespeed_base", None, _i64, _f64, _F, _F)
_wavespeed_bound = _declare("wavespeed_bound", None, _i64, _i64, _i64, _I, _I, _F, _F, _f64,
                            _f64, _F, _F, _F, _F)
# the limiter stages take addresses, which LimiterChunk checks once per chunk
_ptr = ctypes.c_void_p
_limiter_start = _declare("limiter_start", _i64, _i64, _i64, _i64, _i64, _ptr, _ptr, _ptr, _ptr,
                          _ptr, _f64, _i64, _ptr, _ptr, _ptr)
_limiter_test = _declare("limiter_test", _i64, _i64, _i64, _ptr, _ptr, _ptr, _int, _i64, _ptr,
                         _ptr, _ptr, _ptr)
_limiter_newton = _declare("limiter_newton", _i64, _i64, _i64, _ptr, _ptr, _ptr, _f64, _f64,
                           _i64, _ptr, _ptr, _ptr, _ptr, _ptr)
_limiter_scatter = _declare("limiter_scatter", None, _i64, _i64, _i64, _ptr, _i64, _i64, _ptr,
                            _ptr, _ptr)


def _check(lo, hi, *arrays):
    """Raise ValueError unless every (array, row shape) pair has rows of
    that shape and 0 <= lo <= hi <= len(array)."""
    for a, row in arrays:
        if a.shape[1:] != row:
            raise ValueError(f"an array of shape {a.shape} where rows of shape {row} are needed")
    if not 0 <= lo <= hi <= min(len(a) for a, _ in arrays):
        raise ValueError(f"rows [{lo}, {hi}) outside the arrays")


def flux_contraction(lo, hi, cols, card, U, eor, f, c, P):
    """P[i, s] = (f[cols[i, s]] - f[i]) . c[i, s] for the valid slots of the
    rows [lo, hi) (numpy's physics-style component sums, left to right), and
    the indicator's slot sums (a, b) of those rows, summed from +0.0."""
    (L,), (nvar, dim) = cols.shape[1:], f.shape[1:]
    _check(lo, hi, (cols, (L,)), (card, ()), (U, (nvar,)), (eor, ()), (f, (nvar, dim)),
           (c, (L, dim)), (P, (L, nvar)))
    a, b = np.zeros(hi - lo), np.zeros((hi - lo, nvar))
    _flux_contraction(lo, hi, L, nvar, dim, cols, card, U, eor, f, c, P, a, b)
    return a, b


def mirror(lo, hi, cols, trans_slot, card, diag_slot, d):
    """d of the lower slots (those before the diagonal) from the mirror
    slots, d_ii = -(sum of the off-diagonal valid slots, left to right), for
    the rows [lo, hi)."""
    (L,) = cols.shape[1:]
    _check(lo, hi, (cols, (L,)), (trans_slot, (L,)), (card, ()), (diag_slot, ()), (d, (L,)))
    _mirror(lo, hi, L, cols, trans_slot, card, diag_slot, d)


def low_order(lo, hi, cols, card, tau, inv_m, U, d, alpha, phi, P, U_next, R,
              rho_min, rho_max, phi_min):
    """The low-order update of the rows [lo, hi) and its bounds from the flux
    contraction in P, which then takes the viscous part of the correction
    fluxes."""
    (L,), (nvar,) = cols.shape[1:], U.shape[1:]
    _check(lo, hi, (cols, (L,)), (card, ()), (inv_m, ()), (U, (nvar,)), (d, (L,)),
           (alpha, ()), (phi, ()), (P, (L, nvar)), (U_next, (nvar,)), (R, (nvar,)),
           (rho_min, ()), (rho_max, ()), (phi_min, ()))
    _low_order(lo, hi, L, nvar, cols, card, tau, inv_m, U, d, alpha, phi, P, U_next, R,
               rho_min, rho_max, phi_min)


def correction(lo, hi, cols, card, tau, inv_m, m_slot, R, P):
    """The correction fluxes of the rows [lo, hi) from step 3's P and R, with
    b_ij and b_ji formed from the mass entries m_slot."""
    (L,), (nvar,) = cols.shape[1:], R.shape[1:]
    _check(lo, hi, (cols, (L,)), (card, ()), (inv_m, ()), (m_slot, (L,)), (R, (nvar,)),
           (P, (L, nvar)))
    _correction(lo, hi, L, nvar, cols, card, tau, inv_m, m_slot, R, P)


def limited_update(lo, hi, cols, trans_slot, card, l, P, U_next, last=True):
    """U_next += lambda_i sum_s min(l_ij, l_ji) P_ij over the rows [lo, hi),
    lambda_i = 1 / max(card_i - 1, 1); unless last, P is then scaled by
    1 - min(l_ij, l_ji) in place."""
    (L,), (nvar,) = cols.shape[1:], U_next.shape[1:]
    _check(lo, hi, (cols, (L,)), (trans_slot, (L,)), (card, ()), (l, (L,)), (P, (L, nvar)),
           (U_next, (nvar,)))
    _limited_update(lo, hi, L, nvar, cols, trans_slot, card, l, int(last), P, U_next)


def wavespeed_project(e0, e1, up_row, up_slot, cols, U, n_ij, n_ji, gas):
    """Stage 1 of the wavespeed of the upper edges e0:e1: the four projected
    states of each edge, as an (e1 - e0, 4, 4) array of (rho, u, p, c), the
    pressure ratios p_L / p_R of its two directions, (e1 - e0, 2), and the
    number of projected states with rho <= 0 or p <= 0."""
    (L,), (nvar,) = cols.shape[1:], U.shape[1:]
    _check(e0, e1, (up_row, ()), (up_slot, ()), (n_ij, (nvar - 2,)), (n_ji, (nvar - 2,)))
    _check(0, max(len(cols), len(U)), (cols, (L,)), (U, (nvar,)))
    states, q = np.empty((e1 - e0, 4, 4)), np.empty((e1 - e0, 2))
    bad = _wavespeed_project(e0, e1, L, nvar, up_row, up_slot, cols, U, n_ij, n_ji, gas.gamma,
                             gas.gm1, states, q)
    return states, q, bad


def wavespeed_base(states, q, gas):
    """Stage 2: q, the pressure ratios to the power -(gamma - 1) / (2 gamma),
    takes the clamped two-rarefaction base of each direction in place."""
    _check(0, max(len(states), len(q)), (states, (4, 4)), (q, (2,)))
    _wavespeed_base(len(states), gas.gm1, states, q)


def wavespeed_bound(e0, e1, up_row, up_slot, cols, norm_ij, norm_ji, states, q, d, gas):
    """Stage 3: d_ij of the upper edges e0:e1 from their projected states and
    q, the bases to the power 2 gamma / (gamma - 1), written into each edge's
    slot of d and returned as an (e1 - e0,) array."""
    (L,) = cols.shape[1:]
    _check(e0, e1, (up_row, ()), (up_slot, ()), (norm_ij, ()), (norm_ji, ()))
    _check(0, e1 - e0, (states, (4, 4)), (q, (2,)))
    _check(0, max(len(cols), len(d)), (cols, (L,)), (d, (L,)))
    out = np.empty(e1 - e0)
    _wavespeed_bound(e0, e1, L, up_row, up_slot, norm_ij, norm_ji, gas.gamma, gas.gm1, states, q,
                     d, out)
    return out


def _address(a, dtype, size=0):
    """The address of a's data; raises ValueError unless a is a C-contiguous
    array of dtype with at least size entries."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
        raise ValueError(f"a C-contiguous {np.dtype(dtype)} array is needed")
    if a.size < size:
        raise ValueError(f"{size} entries are outside an array of {a.size}")
    return a.ctypes.data


class LimiterChunk:
    """The limiter stages over the rows [lo, hi) of one chunk.

    The arrays are checked and their addresses taken once, and the chunk's
    scratch arrays allocated, when the chunk is made; each stage is then one
    C call.  Its entries are one per row, with P = 0, and one per valid slot
    whose P is not all +-0, row after row; n is the number of open entries.
    A stage that hands densities to numpy returns them as views of the
    scratch array q, valid until the next stage runs.
    """

    def __init__(self, lo, hi, card, U, P, rho_min, rho_max, phi_min, l):
        (L, nvar) = P.shape[1:]
        _check(lo, hi, (card, ()), (U, (nvar,)), (P, (L, nvar)), (rho_min, ()), (rho_max, ()),
               (phi_min, ()), (l, (L,)))
        self.rows, self.L, self.nvar = (lo, hi), L, nvar
        self.card, self.l = _address(card, np.int64), _address(l, np.float64)
        self.U, self.P, self.rho_min, self.rho_max, self.phi_min = (
            _address(a, np.float64) for a in (U, P, rho_min, rho_max, phi_min))
        self.cap = cap = (hi - lo) * (L + 1)
        # row, flat and open; t_L, t_R, tol and Psi(t_R); packed densities
        self.ix = np.empty((3, cap), dtype=np.int64)
        self.x, self.q = np.empty((4, cap)), np.empty(2 * cap)
        self._ix, self._x, self._q = (a.ctypes.data for a in (self.ix, self.x, self.q))
        self.n = self.entries = 0

    def start(self, tol_scale):
        """Stage start: every entry opens with t_L = 0, the density-clamped
        t_R and tol = tol_scale |rho eps(U_i)|; returns their densities at
        t_R."""
        self.n = self.entries = _limiter_start(*self.rows, self.L, self.nvar, self.card, self.U,
                                               self.P, self.rho_min, self.rho_max, tol_scale,
                                               self.cap, self._ix, self._x, self._q)
        return self.q[:self.n]

    def test(self, w, newton):
        """Stage test, w the densities of start or newton to the power
        gamma + 1: Psi(t_R) >= 0 closes an entry at t_R, and so does every
        entry without newton.  Returns the densities of the open entries at
        t_L, and at t_L and then t_R."""
        self.n = _limiter_test(self.n, self.nvar, self.U, self.P, self.phi_min, int(newton),
                               self.cap, self._ix, self._x, _address(w, np.float64, self.n),
                               self._q)
        return self.q[:self.n], self.q[:2 * self.n]

    def newton(self, w_L, g, gp1, sign):
        """Stage newton, w_L the densities at t_L to the power gamma + 1 and g
        those at t_L and t_R to the power gamma = gp1 - 1: Psi(t_L) <= tol
        closes an entry at t_L, the others take one Newton step, whose
        quadratic models bend by sign.  Returns the densities of the open
        entries at their new t_R."""
        self.n = _limiter_newton(self.n, self.nvar, self.U, self.P, self.phi_min,
                                 gp1, sign, self.cap, self._ix, self._x,
                                 _address(w_L, np.float64, self.n),
                                 _address(g, np.float64, 2 * self.n), self._q)
        return self.q[:self.n]

    def scatter(self):
        """Stage scatter: writes the factor of every valid slot into l and
        returns the factors of the entries."""
        _limiter_scatter(*self.rows, self.L, self.card, self.entries, self.cap, self._ix,
                         self._x, self.l)
        return self.x[0, :self.entries]
