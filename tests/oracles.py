"""Independent reference implementations used to validate the package.

The exact Riemann solver, the scalar indicator, the limiter bisection and
the dense step are written from first principles with plain loops and
scipy root finding, deliberately avoiding the package's own vectorized
kernels, so agreement between the two is meaningful.  Other references
keep the loop or formula a kernel had before it was rewritten (the numpy
wavespeed bound and limiter, the slot loop of the indicator, the
whole-block wavespeed formulas, the full bar-state update, the loop-based
mesh refinement, ...), so that tests can check the rewrite against it
bitwise; these share the package's helpers where the arithmetic is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from eulerflow import limiter, physics, riemann, rowkernels, stepper
from eulerflow.indicator import DENOMINATOR_FLOOR
from eulerflow.limiter import PSI_SIGN, TOL_SCALE
from eulerflow.mesh import _LOCAL_FACES, _REF_CORNERS, Mesh, _on_disc
from eulerflow.physics import AIR, AdmissibilityError, component_sum, power, sum_left_to_right

GAMMA = 1.4


# ----- exact Riemann solver (iterative, gamma-law gas) ----------------------

def _f_side(p, rho, pk, gamma):
    """Toro's f_K function: velocity jump across one wave."""
    c = np.sqrt(gamma * pk / rho)
    if p > pk:  # shock
        A = 2.0 / ((gamma + 1.0) * rho)
        B = (gamma - 1.0) / (gamma + 1.0) * pk
        return (p - pk) * np.sqrt(A / (p + B))
    # rarefaction
    return 2.0 * c / (gamma - 1.0) * ((p / pk) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)


def exact_pstar(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma=GAMMA):
    """Star pressure from the exact iterative Riemann solver."""
    du = u_r - u_l

    def fun(p):
        return _f_side(p, rho_l, p_l, gamma) + _f_side(p, rho_r, p_r, gamma) + du

    c_l = np.sqrt(gamma * p_l / rho_l)
    c_r = np.sqrt(gamma * p_r / rho_r)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise ValueError("vacuum-generating data")
    lo = 1e-14
    hi = max(p_l, p_r)
    while fun(hi) < 0.0:
        hi *= 10.0
        if hi > 1e18:
            raise RuntimeError("no bracket for p_star")
    if fun(lo) > 0.0:
        return lo
    return brentq(fun, lo, hi, xtol=1e-15, rtol=1e-14)


def exact_lambda_max(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma=GAMMA):
    """Exact maximal wavespeed magnitude toward the left/right fans."""
    p_star = exact_pstar(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)
    c_l = np.sqrt(gamma * p_l / rho_l)
    c_r = np.sqrt(gamma * p_r / rho_r)
    gp = (gamma + 1.0) / (2.0 * gamma)
    lam1 = u_l - c_l * np.sqrt(1.0 + gp * max((p_star - p_l) / p_l, 0.0))
    lam3 = u_r + c_r * np.sqrt(1.0 + gp * max((p_star - p_r) / p_r, 0.0))
    return max(max(-lam1, 0.0), max(lam3, 0.0))


# ----- the wavespeed bound in numpy --------------------------------------------
# riemann.d_ij_low in numpy: the two-rarefaction bound of Guermond & Popov
# (JCP 2016) on the 1D Riemann problem on (rho, v.n, p), vectorized and
# branch-free (selects instead of branches), with the directions and
# velocities handled one component at a time and added left to right.

def _pos(x):
    """Positive part (|x| + x) / 2, evaluated branch-free."""
    return 0.5 * (np.abs(x) + x)


def _neg_magnitude(x):
    """Magnitude of the negative part, (|x| - x) / 2, branch-free."""
    return 0.5 * (np.abs(x) - x)


@dataclass
class Projected1DState:
    """The 1D state of a node along a unit direction n: its density, normal
    velocity v.n, pressure and sound speed.  Projecting the momentum on n
    and removing the tangential kinetic energy from E keeps the internal
    energy, so the pressure and sound speed are the node's own."""

    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    c: np.ndarray


def _components(x):
    return [x[..., k] for k in range(np.shape(x)[-1])]


def node_states(U, gas=AIR):
    """The node states (v, p, c) of step 0's stage as the list of their
    components: v = m / rho, p = (gamma - 1) eps and c = sqrt(gamma p / rho)."""
    rho = U[..., 0]
    p = physics.pressure(U, gas)
    with np.errstate(invalid="ignore"):
        c = np.sqrt(gas.gamma * p / rho)
    return [U[..., 1 + k] / rho for k in range(U.shape[-1] - 2)] + [p, c]


def project(U, n, gas=AIR):
    """The 1D state of U along the unit direction n."""
    return _project(U, _components(n), gas)


def _project(U, n, gas):
    """project with the direction given as the list of its components.
    Raises AdmissibilityError where rho <= 0 or p <= 0."""
    V = node_states(U, gas)
    rho, p, c = U[..., 0], V[-2], V[-1]
    if np.any(rho <= 0.0) or np.any(p <= 0.0):
        raise AdmissibilityError("projected state requires rho > 0 and p > 0")
    u = sum_left_to_right(v * n_k for v, n_k in zip(V, n))
    return Projected1DState(rho=rho, u=u, p=p, c=c)


def two_rarefaction_pstar(Li, Rj, gas=AIR):
    """Closed-form star pressure assuming two rarefaction waves.

    The base of the power is clamped at zero so strongly receding flow
    (near-vacuum) yields p* = 0 instead of a negative base.
    """
    num = Li.c + Rj.c - 0.5 * gas.gm1 * (Rj.u - Li.u)
    den = Li.c * power(Li.p / Rj.p, -gas.gm1_over_2g) + Rj.c
    base = np.maximum(num / den, 0.0)
    return Rj.p * power(base, gas.two_g_over_gm1)


def _f_wave(S, p, gas):
    # shock branch for p >= p_tilde, rarefaction branch otherwise
    shock = np.sqrt(2.0) * (p - S.p) / np.sqrt(S.rho * ((gas.gamma + 1.0) * p + gas.gm1 * S.p))
    rare = (power(p / S.p, gas.gm1_over_2g) - 1.0) * (2.0 * S.c / gas.gm1)
    return np.where(p >= S.p, shock, rare)


def psi(p, Li, Rj, gas=AIR):
    """Monotone increasing depressurization function psi(p) = f_i + f_j + u_j - u_i."""
    return _f_wave(Li, p, gas) + _f_wave(Rj, p, gas) + (Rj.u - Li.u)


def _lambda_max_projected(Li, Rj, gas):
    p_max = np.maximum(Li.p, Rj.p)
    p_tr = two_rarefaction_pstar(Li, Rj, gas)
    p_star = np.where(psi(p_max, Li, Rj, gas) < 0.0, p_tr, np.minimum(p_max, p_tr))
    gp1_over_2g = (gas.gamma + 1.0) / (2.0 * gas.gamma)
    lam1 = Li.u - Li.c * np.sqrt(1.0 + gp1_over_2g * _pos((p_star - Li.p) / Li.p))
    lam3 = Rj.u + Rj.c * np.sqrt(1.0 + gp1_over_2g * _pos((p_star - Rj.p) / Rj.p))
    return np.maximum(_neg_magnitude(lam1), _pos(lam3))


def lambda_max(Ui, Uj, n, gas=AIR):
    """Upper bound on the maximal wavespeed of the Riemann problem along n."""
    n = _components(n)
    return _lambda_max_projected(_project(Ui, n, gas), _project(Uj, n, gas), gas)


def _unit(c):
    """Components of c / |c|, e_1 where c = 0, and |c|."""
    c = _components(c)
    norm = np.sqrt(sum_left_to_right(c_k * c_k for c_k in c))
    safe = np.where(norm, norm, 1.0)
    nonzero = norm > 0.0
    n = [np.where(nonzero, c_k / safe, 1.0 if k == 0 else 0.0) for k, c_k in enumerate(c)]
    return n, norm


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def mirrored(c_ij, c_ji):
    """Where the unit normal and norm of c_ji are bitwise the negated unit
    normal and the norm of c_ij: the pairs whose wavespeed is one direction."""
    (n_ij, norm_ij), (n_ji, norm_ji) = _unit(c_ij), _unit(c_ji)
    out = _bits(norm_ij) == _bits(norm_ji)
    for a, b in zip(n_ij, n_ji):
        out = out & (_bits(-a) == _bits(b))
    return out


def d_ij_low(Ui, Uj, c_ij, c_ji, gas=AIR):
    """Graph viscosity d_ij = max(lambda(n_ij)|c_ij|, lambda(n_ji)|c_ji|).

    Where c_ji is -c_ij (mirrored), lambda(n_ji) is the mirror image of
    lambda(n_ij), and d_ij is one of them: the one whose left state has the
    lower pressure, U_i on a tie.  Zero-length c vectors contribute zero;
    the selects keep the control flow lane-uniform.
    """
    n_ij, norm_ij = _unit(c_ij)
    n_ji, norm_ji = _unit(c_ji)
    Si, Sj = _project(Ui, n_ij, gas), _project(Uj, n_ij, gas)
    lam_ji = _lambda_max_projected(_project(Uj, n_ji, gas), _project(Ui, n_ji, gas), gas)
    # the mirror image along -n_ij: the ends swap and v.n changes sign
    flip = Sj.p < Si.p
    sign = np.where(flip, -1.0, 1.0)
    L, R = (Projected1DState(*(np.where(flip, getattr(b, f), getattr(a, f))
                               for f in ("rho", "u", "p", "c"))) for a, b in ((Si, Sj), (Sj, Si)))
    L.u, R.u = sign * L.u, sign * R.u
    one = mirrored(c_ij, c_ji)
    lam_ij = np.where(one, _lambda_max_projected(L, R, gas), _lambda_max_projected(Si, Sj, gas))
    d_ij = np.where(norm_ij > 0.0, lam_ij * norm_ij, 0.0)
    return np.where(one, d_ij, np.maximum(d_ij, np.where(norm_ji > 0.0, lam_ji * norm_ji, 0.0)))


# ----- the compiled wavespeed on a list of state pairs -----------------------------

def edge_layout(Ui, Uj, c_ij, c_ji):
    """The pairs of a batch laid out as the upper edges of a stencil, as
    riemann.d_ij_low takes them: the arrays up_row, up_slot, cols, U and the
    edge geometry n_up, norm_up, two_edge, nT_two and normT_two of a binding,
    by name.  Row k holds U_i of pair k, row E + k its U_j, and the edge is
    slot 1 of row k, whose slot 0 is a neighbour that no edge names.  The
    geometry comes from the solver's setup."""
    Ui, Uj = (np.reshape(U, (-1, np.shape(U)[-1])) for U in (Ui, Uj))
    c_ij, c_ji = (np.reshape(c, (-1, np.shape(c)[-1])) for c in (c_ij, c_ji))
    E = len(Ui)
    cols = np.stack([np.arange(2 * E), np.arange(E, 3 * E) % (2 * E)], axis=1)
    return dict(up_row=np.arange(E, dtype=np.int32), up_slot=np.ones(E, dtype=np.uint8),
                cols=cols.astype(np.int32), U=np.concatenate([Ui, Uj]),
                **stepper._edge_geometry(c_ij, c_ji))


def bind(**arrays):
    """A rowkernels.Binding of the arrays, each array of ARRAYS not given
    filled with zeros.  A size is that of the first given array that has it;
    the rows of cols default to the owned rows, those to the rows of cols,
    and the upper edges, the listed edges, the slot width and nvar to 0, 0, 1
    and 3."""
    found = {}
    for name, a in arrays.items():
        for size, n in zip(rowkernels.ARRAYS[name][1], a.shape):
            found.setdefault(size, n)
    rows = found.get("rows", found.get("owned", 0))
    missing = [name for name in rowkernels.ARRAYS if name not in arrays]
    return rowkernels.Binding({**rowkernels.zeros(
        missing, rows, found.get("owned", rows), found.get("edges", 0), found.get("L", 1),
        found.get("nvar", found.get("dim", 1) + 2), found.get("twos", 0)), **arrays})


def bind_edges(gas=AIR, **arrays):
    """bind, after which step 0's stage writes the node states of every row
    of U, as the wavespeed reads them."""
    bound = bind(**arrays)
    with np.errstate(all="ignore"):
        bound.entropies(0, bound.counts["rows"], 0, gas)
    return bound


def compiled_d_ij_low(Ui, Uj, c_ij, c_ji, gas=AIR, e0=0):
    """riemann.d_ij_low on the pairs of a batch, each pair one upper edge of
    edge_layout.  Returns d_ij of the pairs e0: in the batch's shape, and
    the slot array d, which held NaN before the call."""
    layout = edge_layout(Ui, Uj, c_ij, c_ji)
    E = len(layout["up_row"])
    d = np.full((2 * E, 2), np.nan)
    out = riemann.d_ij_low(bind_edges(gas, d=d, **layout), e0, E, gas)
    return out.reshape(np.shape(Ui)[:-1] if e0 == 0 else -1), d


def compiled_lambda_max(Ui, Uj, n, gas=AIR, one_direction=False):
    """The compiled bound of the pairs along unit directions n: d_ij with
    c_ij = n and c_ji = 0, which is lambda(n) |n| (lambda itself for a
    coordinate axis n, whose norm is 1).  With one_direction, c_ji = -n,
    which evaluates the one direction whose left state has the lower
    pressure."""
    n = np.broadcast_to(n, np.shape(Ui)[:-1] + np.shape(n)[-1:])
    return compiled_d_ij_low(Ui, Uj, n, -n if one_direction else np.zeros_like(n), gas)[0]


# ----- the wavespeed bound on whole blocks ---------------------------------------

def d_ij_low_block_reference(Ui, Uj, c_ij, c_ji, gas=AIR):
    """d_ij_low with the unit directions, velocities and normal velocities
    formed as whole (..., d) blocks, with an e_1 block for zero-length c
    vectors, and the direction test on whole blocks of bits."""
    def unit(c):
        norm = np.sqrt(component_sum(c * c))
        e1 = np.zeros_like(c)
        e1[..., 0] = 1.0
        return np.where(norm[..., None] > 0.0, c / np.where(norm, norm, 1.0)[..., None], e1), norm

    def state(U, n, sign=1.0):
        rho = U[..., 0]
        v = U[..., 1:-1] / rho[..., None]
        p = gas.gm1 * (U[..., -1] - 0.5 * component_sum(U[..., 1:-1] * U[..., 1:-1]) / rho)
        return Projected1DState(rho, sign * component_sum(v * n), p, np.sqrt(gas.gamma * p / rho))

    (n_ij, norm_ij), (n_ji, norm_ji) = unit(c_ij), unit(c_ji)
    one = (_bits(-n_ij) == _bits(n_ji)).all(axis=-1) & (_bits(norm_ij) == _bits(norm_ji))
    flip = state(Uj, n_ij).p < state(Ui, n_ij).p
    sign = np.where(flip, -1.0, 1.0)
    Ua, Ub = np.where(flip[..., None], Uj, Ui), np.where(flip[..., None], Ui, Uj)
    lam_one = _lambda_max_projected(state(Ua, n_ij, sign), state(Ub, n_ij, sign), gas)
    lam_ij = _lambda_max_projected(state(Ui, n_ij), state(Uj, n_ij), gas)
    lam_ji = _lambda_max_projected(state(Uj, n_ji), state(Ui, n_ji), gas)
    a = np.where(norm_ij > 0.0, np.where(one, lam_one, lam_ij) * norm_ij, 0.0)
    return np.where(one, a, np.maximum(a, np.where(norm_ji > 0.0, lam_ji * norm_ji, 0.0)))


# ----- scalar state helpers --------------------------------------------------

def primitive_to_conserved(rho, vel, p, gamma=GAMMA):
    vel = np.atleast_1d(np.asarray(vel, dtype=np.float64))
    U = np.zeros(len(vel) + 2)
    U[0] = rho
    U[1:-1] = rho * vel
    U[-1] = p / (gamma - 1.0) + 0.5 * rho * float(vel @ vel)
    return U


def pressure_of(U, gamma=GAMMA):
    rho = U[..., 0]
    mom = U[..., 1:-1]
    return (gamma - 1.0) * (U[..., -1] - 0.5 * (mom * mom).sum(axis=-1) / rho)


def flux_of(U, gamma=GAMMA):
    d = U.shape[-1] - 2
    rho, mom, E = U[0], U[1:-1], U[-1]
    v = mom / rho
    p = pressure_of(U, gamma)
    f = np.zeros((d + 2, d))
    f[0] = mom
    for k in range(d):
        f[1 + k] = v[k] * mom
        f[1 + k, k] += p
    f[-1] = v * (E + p)
    return f


def harten_entropy(U, gas=AIR):
    """eta = (rho * epsilon)^{1/(gamma+1)}."""
    rho_eps = U[..., 0] * physics.internal_energy(U)
    if np.any(rho_eps <= 0.0):
        raise AdmissibilityError("harten_entropy requires rho*epsilon > 0")
    return physics.power(rho_eps, gas.gp1_inv)


def eta_scale(U, gas=AIR):
    """(rho eps)^{-gamma/(gamma+1)}/(gamma+1), the scale of eta', as the
    Harten entropy derivative formed it."""
    rho_eps = U[..., 0] * physics.internal_energy(U)
    if np.any(rho_eps <= 0.0):
        raise AdmissibilityError("harten_entropy_derivative requires rho*epsilon > 0")
    return power(rho_eps, -gas.gamma * gas.gp1_inv) * gas.gp1_inv


def harten_entropy_derivative(U, gas=AIR):
    """Gradient of the Harten entropy w.r.t. (rho, m, E).

    Returns (rho eps)^{-gamma/(gamma+1)}/(gamma+1) * (E, -m, rho), ordered to
    match the state layout.
    """
    scale = eta_scale(U, gas)
    out = np.empty_like(U)
    out[..., 0] = scale * U[..., -1]
    out[..., 1:-1] = -scale[..., None] * U[..., 1:-1]
    out[..., -1] = scale * U[..., 0]
    return out


def speed_of_sound(U, gas=AIR):
    """c = sqrt(gamma p / rho); requires rho > 0 and p >= 0."""
    rho = U[..., 0]
    p = physics.pressure(U, gas)
    if np.any(rho <= 0.0) or np.any(p < 0.0):
        raise AdmissibilityError("speed_of_sound requires rho > 0 and p >= 0")
    return np.sqrt(gas.gamma * p / rho)


def specific_entropy(U, gas=AIR):
    """s = log(e^{1/(gamma-1)} / rho), with the additive offset fixed to 0."""
    rho = U[..., 0]
    if np.any(rho <= 0.0):
        raise AdmissibilityError("specific_entropy requires rho > 0")
    e = physics.internal_energy(U) / rho
    if np.any(e <= 0.0):
        raise AdmissibilityError("specific_entropy requires e > 0")
    return np.log(e) / gas.gm1 - np.log(rho)


def specific_entropy_phi(U, gas=AIR):
    """Scaled specific entropy phi = epsilon * rho^{-gamma}."""
    rho = U[..., 0]
    if np.any(rho <= 0.0):
        raise AdmissibilityError("specific_entropy_phi requires rho > 0")
    return physics.internal_energy(U) * physics.power(rho, -gas.gamma)


def flux_contraction(f_j, f_i, c_ij, out=None):
    """(f_j - f_i) . c_ij: each state component's flux difference contracted
    with c_ij over the space axis, shape (..., d+2); written into out when
    one is given."""
    return component_sum((f_j - f_i) * c_ij[..., None, :], out=out)


# ----- commutator indicator, straight-line implementation -------------------

def indicator_reference(U_i, neighbors, c_rows, gamma=GAMMA):
    """alpha for one node given its neighbor states and c_ij rows."""
    gp1 = gamma + 1.0
    rho_i, mom_i, E_i = U_i[0], U_i[1:-1], U_i[-1]
    eps_i = E_i - 0.5 * float(mom_i @ mom_i) / rho_i
    eta_i = (rho_i * eps_i) ** (1.0 / gp1)
    eor_i = eta_i / rho_i
    scale = (rho_i * eps_i) ** (-gamma / gp1) / gp1
    etaprime = np.concatenate([[scale * E_i], -scale * mom_i, [scale * rho_i]])
    f_i = flux_of(U_i, gamma)

    a = 0.0
    b = np.zeros(len(U_i))
    for U_j, c in zip(neighbors, c_rows):
        rho_j, mom_j, E_j = U_j[0], U_j[1:-1], U_j[-1]
        eps_j = E_j - 0.5 * float(mom_j @ mom_j) / rho_j
        eor_j = (rho_j * eps_j) ** (1.0 / gp1) / rho_j
        a += (eor_j - eor_i) * float(mom_j @ c)
        b += (flux_of(U_j, gamma) - f_i) @ c
    numer = abs(a - float(etaprime @ b) + eor_i * b[0])
    weights = np.abs(etaprime.copy())
    weights[0] = abs(etaprime[0] - eor_i)
    denom = abs(a) + float(weights @ np.abs(b))
    if denom <= 1e-300:
        return 0.0
    return float(np.clip(numer / denom, 0.0, 1.0))


def indicator_result(a, b, eor_i, etaprime_i):
    """alpha = N / D clamped to [0, 1], 0 when D vanishes, from the slot sums
    a and b, eta / rho and eta' of the nodes: IndicatorAccumulator.result in
    numpy, before it became a compiled walk over the rows."""
    numer = np.abs(a - component_sum(etaprime_i * b) + eor_i * b[..., 0])
    weights = np.abs(etaprime_i.copy())
    weights[..., 0] = np.abs(etaprime_i[..., 0] - eor_i)
    denom = np.abs(a) + component_sum(weights * np.abs(b))
    safe = np.where(denom > DENOMINATOR_FLOOR, denom, 1.0)
    alpha = np.clip(numer / safe, 0.0, 1.0)
    return np.where(denom > DENOMINATOR_FLOOR, alpha, 0.0)


def indicator_sums(U_j, c_ij, eor_i, eor_j, fdc):
    """The indicator's sums a = sum_j (eor_j - eor_i)(m_j . c_ij) and
    b = sum_j fdc of the nodes i from their stencil blocks, whose neighbour
    axis is the last one before the state (or space) components, added one
    neighbour after the other from +0.0: the a-term block and slot loop of
    the accumulator's accumulate before step 1's kernel formed the sums."""
    a_term = (eor_j - np.asarray(eor_i)[..., None]) * component_sum(U_j[..., 1:-1] * c_ij)
    a = sum_left_to_right(a_term[..., k] for k in range(a_term.shape[-1]))
    b = sum_left_to_right(fdc[..., k, :] for k in range(fdc.shape[-2]))
    return a, b


def indicator_loop_reference(solver, rk, lo, hi):
    """alpha of the owned rows [lo, hi) of a solver rank, summed one stencil
    slot at a time: the per-neighbour loop and accumulate body the stepper
    ran before the indicator took whole stencil blocks.  Needs the entropies
    and fluxes of the current state (phase step0) in rk."""
    sl = slice(lo, hi)
    cols = rk.cols[sl]
    U_i = rk.U[sl]
    U_j = rk.U[cols]
    c = rk.c_slot[sl]
    f_i = rk.f[sl]
    eor_i = rk.eor[sl]
    a, b = np.zeros(hi - lo), np.zeros(U_i.shape)
    for s in range(solver.pad_width):
        js = cols[:, s]
        U_js, c_ij, eta_over_rho_j, f_j = U_j[:, s], c[:, s], rk.eor[js], rk.f[js]
        mom_j = U_js[..., 1:-1]
        a += (eta_over_rho_j - eor_i) * (mom_j * c_ij).sum(axis=-1)
        b += ((f_j - f_i) * c_ij[..., None, :]).sum(axis=-1)
    return indicator_result(a, b, eor_i, harten_entropy_derivative(U_i, solver.gas))


# ----- limiter feasibility bisection -----------------------------------------

def limiter_bisection(U, P, rho_min, rho_max, phi_min, gamma=GAMMA,
                      scan=4096, iters=80):
    """Largest feasible step factor by scan plus bisection.

    Feasibility mirrors the solver's guarantees: density inside the bar-state
    interval and the entropy constraint non-negative, both up to the solver's
    own tolerance.
    """
    tol = 1e-10 * abs(
        U[0] * U[-1] - 0.5 * float(U[1:-1] @ U[1:-1])
    )
    rho_tol = 1e-12 * max(abs(rho_min), abs(rho_max), 1.0)

    def feasible(t):
        V = U + t * P
        rho = V[0]
        if rho < rho_min - rho_tol or rho > rho_max + rho_tol:
            return False
        psi = rho * V[-1] - 0.5 * float(V[1:-1] @ V[1:-1]) - phi_min * rho ** (gamma + 1.0)
        return psi >= -tol

    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    ts = np.linspace(0.0, 1.0, scan + 1)
    bad = [t for t in ts[1:] if not feasible(t)]
    if not bad:
        return 1.0
    hi = bad[0]
    lo = hi - 1.0 / scan
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----- the convex limiter in numpy ---------------------------------------------
# The batch limiter as it ran before rowkernels.c took it over: every entry
# of a batch is evaluated together at t_R, and the Newton iterations run on
# the gathered operands of the entries still open.  Every operation is
# elementwise per entry, so an entry's factor does not depend on its batch.

_TINY = float(np.finfo(np.float64).tiny)


def _rho_eps(U):
    rho = U[..., 0]
    mom = U[..., 1:-1]
    E = U[..., -1]
    return rho * E - 0.5 * component_sum(mom * mom)


def psi_entropy(U, phi_min, gas=AIR):
    """Psi = rho*eps - phi_min * rho^(gamma+1); nonnegative iff phi(U) >= phi_min."""
    rho = U[..., 0]
    return _rho_eps(U) - phi_min * power(rho, gas.gamma + 1.0)


def _psi_on_ray(U, P, t, phi_min, gas):
    """psi_entropy(U + t[..., None] * P, phi_min), one component at a time."""
    def at(k):
        return U[..., k] + t * P[..., k]

    rho = at(0)
    mom = (at(k) for k in range(1, U.shape[-1] - 1))
    rho_eps = rho * at(-1) - 0.5 * sum_left_to_right(m * m for m in mom)
    return rho_eps - phi_min * power(rho, gas.gamma + 1.0)


def dpsi_dt(U, P, t, phi_min, gas=AIR):
    """Closed-form derivative of t -> Psi(U + t P)."""
    V = U + t[..., None] * P
    rho, mom, E = V[..., 0], V[..., 1:-1], V[..., -1]
    rho_p, mom_p, E_p = P[..., 0], P[..., 1:-1], P[..., -1]
    return (
        rho_p * E
        + rho * E_p
        - component_sum(mom * mom_p)
        - phi_min * (gas.gamma + 1.0) * power(rho, gas.gamma) * rho_p
    )


def quadratic_newton_step(t_L, t_R, Psi_L, Psi_R, dPsi_L, dPsi_R, sign=PSI_SIGN):
    """One bracketing quadratic Newton update via divided differences.

    Roundoff safeguards: the discriminant is clamped at zero, endpoints with
    a vanishing denominator are left unchanged, and the new bracket is
    clamped into the old one.
    """
    eps = _TINY * (1.0 + t_R)
    with np.errstate(over="ignore", invalid="ignore"):
        scaling = 1.0 / (t_R - t_L + eps)
        d11 = dPsi_L
        d12 = (Psi_R - Psi_L) * scaling
        d22 = dPsi_R
        d112 = (d12 - d11) * scaling
        d122 = (d22 - d12) * scaling
        lam_L = np.maximum(dPsi_L * dPsi_L - 4.0 * Psi_L * d112, 0.0)
        lam_R = np.maximum(dPsi_R * dPsi_R - 4.0 * Psi_R * d122, 0.0)
        den_L = dPsi_L + sign * np.sqrt(lam_L)
        den_R = dPsi_R + sign * np.sqrt(lam_R)
        new_L = np.where(
            np.abs(den_L) > eps, t_L - 2.0 * Psi_L / np.where(den_L, den_L, 1.0), t_L
        )
        new_R = np.where(
            np.abs(den_R) > eps, t_R - 2.0 * Psi_R / np.where(den_R, den_R, 1.0), t_R
        )
    # collapsed brackets can overflow the divided differences; keep such
    # entries at their old endpoints
    new_L = np.where(np.isfinite(new_L), new_L, t_L)
    new_R = np.where(np.isfinite(new_R), new_R, t_R)
    new_L = np.clip(new_L, t_L, t_R)
    new_R = np.clip(new_R, t_L, t_R)
    # the local quadratic models can cross when Psi is not exactly
    # quadratic; reordering keeps the bracket property
    return np.minimum(new_L, new_R), np.maximum(new_L, new_R)


def limiter_compute(U, P, rho_min, rho_max, phi_min, max_newton=2, gas=AIR):
    """Largest admissible step factor l in [0, 1] for the update U + l P,
    with every argument broadcast against the others.

    First clamps the right bracket endpoint by the density interval, then
    performs up to max_newton bracketing quadratic Newton iterations on the
    entropy constraint.  An entry leaves the iteration when Psi(t_R) >= 0
    (l = t_R) or Psi(t_L) <= tol (l = t_L).  With max_newton = 0 the test at
    the density-clamped t_R still runs.
    """
    shape = np.broadcast_shapes(
        U.shape[:-1], P.shape[:-1],
        np.shape(rho_min), np.shape(rho_max), np.shape(phi_min),
    )
    batch_shape = shape or (1,)
    tol = TOL_SCALE * np.abs(_rho_eps(U))
    U, P = (np.broadcast_to(a, batch_shape + a.shape[-1:]) for a in (U, P))
    rho_min, rho_max, phi_min, tol = (
        np.broadcast_to(a, batch_shape) for a in (rho_min, rho_max, phi_min, tol)
    )

    rho_u = U[..., 0]
    rho_p = P[..., 0]
    abs_rho_p = np.maximum(np.abs(rho_p), _TINY)
    t_R = np.ones(batch_shape, dtype=U.dtype)
    # the unselected quotients of entries with a vanishing rho_p may overflow
    with np.errstate(over="ignore"):
        over = rho_u + t_R * rho_p > rho_max
        t_R = np.where(over, np.abs(rho_max - rho_u) / abs_rho_p, t_R)
        under = rho_u + t_R * rho_p < rho_min
        t_R = np.where(under, np.abs(rho_min - rho_u) / abs_rho_p, t_R)
    t_R = np.clip(t_R, 0.0, 1.0)
    t_L = np.zeros_like(t_R)

    # index of the open entries into t_L: all of them (Ellipsis) until the
    # first narrowing, then a tuple of index arrays
    open_ix = ...
    U_o, P_o, phi_o, tol_o, tL, tR = U, P, phi_min, tol, t_L, t_R
    # the test at t_R runs once even without Newton iterations
    for _ in range(max(max_newton, 1)):
        Psi_R = _psi_on_ray(U_o, P_o, tR, phi_o, gas)
        closed = Psi_R >= 0.0
        t_L[open_ix] = np.where(closed, tR, tL)
        if not max_newton:
            break
        open_ix, (U_o, P_o, phi_o, tol_o, tL, tR, Psi_R) = _narrow(
            open_ix, ~closed, U_o, P_o, phi_o, tol_o, tL, tR, Psi_R
        )
        Psi_L = _psi_on_ray(U_o, P_o, tL, phi_o, gas)
        open_ix, (U_o, P_o, phi_o, tol_o, tL, tR, Psi_R, Psi_L) = _narrow(
            open_ix, Psi_L > tol_o, U_o, P_o, phi_o, tol_o, tL, tR, Psi_R, Psi_L
        )
        if tL.size == 0:
            break
        dPsi_L = dpsi_dt(U_o, P_o, tL, phi_o, gas)
        dPsi_R = dpsi_dt(U_o, P_o, tR, phi_o, gas)
        tL, tR = quadratic_newton_step(tL, tR, Psi_L, Psi_R, dPsi_L, dPsi_R)
        t_L[open_ix] = tL
    return t_L.reshape(shape)


def _narrow(open_ix, keep, *operands):
    """Index and gathered operands of the open entries where keep holds."""
    open_ix = np.nonzero(keep) if open_ix is Ellipsis else tuple(ix[keep] for ix in open_ix)
    return open_ix, [a[keep] for a in operands]


# ----- the compiled limiter on a list of entries ---------------------------------

def compiled_limiter(U, P, rho_min, rho_max, phi_min, max_newton=2, gas=AIR):
    """limiter.limiter_compute's factors of the entries U + l P, with every
    argument broadcast against the others as in limiter_compute above: each
    entry runs as a row with one valid slot."""
    U, P = np.asarray(U, dtype=np.float64), np.asarray(P, dtype=np.float64)
    nvar = U.shape[-1]
    shape = np.broadcast_shapes(
        U.shape[:-1], P.shape[:-1],
        np.shape(rho_min), np.shape(rho_max), np.shape(phi_min),
    )
    n = int(np.prod(shape))

    def rows(a, tail=()):
        return np.ascontiguousarray(np.broadcast_to(a, shape + tail).reshape((n,) + tail),
                                    dtype=np.float64)

    l = np.full((n, 1), np.nan)
    limiter.limiter_compute(bind(card=np.ones(n, dtype=np.uint8), U_next=rows(U, (nvar,)),
                                 P=rows(P, (nvar,)).reshape(n, 1, nvar), rho_min=rows(rho_min),
                                 rho_max=rows(rho_max), phi_min=rows(phi_min), l=l),
                            0, n, max_newton=max_newton, gas=gas)
    return l.reshape(shape)


def limiter_rows_reference(lo, hi, card, U, P, rho_min, rho_max, phi_min, l, max_newton=2,
                           gas=AIR):
    """limiter.limiter_compute by the numpy limiter above: one batch of the
    valid slots whose P is not all +-0, in row-major order; every other
    valid slot takes 1.  Writes the valid slots of l and returns the factors
    of the entries."""
    valid = np.arange(P.shape[1]) < card[lo:hi, None]
    moves = valid & (P[lo:hi] != 0.0).any(axis=-1)
    ent_row, ent_slot = np.nonzero(moves)
    ent_row += lo
    factors = limiter_compute(U[ent_row], P[ent_row, ent_slot], rho_min[ent_row],
                              rho_max[ent_row], phi_min[ent_row], max_newton=max_newton, gas=gas)
    by_slot = np.ones(valid.shape)
    by_slot[moves] = factors
    l[lo:hi][valid] = by_slot[valid]
    return factors


def limiter_entries_reference(solver, rk, lo, hi):
    """Limiter values of the owned rows [lo, hi) of a solver rank with one
    numpy limiter entry per (row, slot), padding included: the dense batch
    that every limiter pass of the stepper once ran.  Needs the pass's
    U_next, P and bounds in rk."""
    sl = slice(lo, hi)
    return limiter_compute(
        rk.U_next[sl][:, None, :], rk.P[sl],
        rk.rho_min[sl][:, None], rk.rho_max[sl][:, None], rk.phi_min[sl][:, None],
        max_newton=solver.newton_steps, gas=solver.gas,
    )


# ----- low-order update with the full bar states -------------------------------

def low_order_reference(solver, rk, lo, hi, tau):
    """U_next, R, rho_min, rho_max and phi_min of the owned rows [lo, hi) of
    a solver rank by the low-order update (phase step3) as it was before it
    read the flux contraction of phase step1: it gathers the fluxes f[cols]
    afresh, builds the full bar states Ubar, of which the bounds use the
    density, and takes every sum, minimum and maximum over the slots with a
    numpy reduce.  Needs the state, fluxes, viscosities and alpha of the
    substep in rk."""
    sl = slice(lo, hi)
    cols = rk.cols[sl]
    U_i = rk.U[sl]
    U_j = rk.U[cols]
    dU = U_j - U_i[:, None]
    fdc = component_sum((rk.f[cols] - rk.f[sl][:, None]) * rk.c_slot[sl][:, :, None, :])
    d = rk.d[sl]
    U_next = U_i + (tau * rk.inv_m[sl])[:, None] * ((d[..., None] * dU - fdc).sum(axis=1))
    dH = d * (0.5 * (rk.alpha[sl][:, None] + rk.alpha[cols]))
    R = (dH[..., None] * dU - fdc).sum(axis=1)
    d_safe = np.where(d != 0.0, d, 1.0)
    corr = np.where(d[..., None] != 0.0, fdc / (2.0 * d_safe[..., None]), 0.0)
    Ubar = 0.5 * (U_i[:, None] + U_j) - corr
    return U_next, R, Ubar[..., 0].min(axis=1), Ubar[..., 0].max(axis=1), rk.phi[cols].min(axis=1)


def limited_update_reference(rk, lo, hi):
    """U_next of the owned rows [lo, hi) of a solver rank after the limited
    update of phases step5 and step6, before any boundary data: the sum of
    min(l_ij, l_ji) P_ij over the valid slots by numpy's reduce over the slot
    axis, as the stepper formed it before it added the slots one after the
    other, scaled by lambda_i = 1 / max(card_i - 1, 1).  Needs the pass's
    U_next, P and limiter values in rk."""
    sl = slice(lo, hi)
    minl = np.minimum(rk.l[sl], rk.l[rk.cols[sl], rk.trans_slot[sl]])
    terms = np.where(rk.valid[sl][..., None], minl[..., None] * rk.P[sl], 0.0)
    lam = 1.0 / np.maximum(rk.card[sl].astype(np.int64) - 1, 1)
    return rk.U_next[sl] + lam[:, None] * terms.sum(axis=1)


# ----- numpy forms of the compiled row kernels ----------------------------------
# The phase kernels of stepper.Solver as they were written in numpy before
# rowkernels.c replaced their pow-free parts, with the same signature as the
# Solver methods; the solver is passed explicitly.  Every per-row sum, minimum
# and maximum over the slots runs slot after slot.  The forms of steps 2, 4, 5
# and 6 read and write the valid slots only, as every row kernel does; those of
# steps 1 and 3 also take the pads, whose zero values change no sum or bound.

def slot_sum(x, out=None):
    """x[:, 0] + x[:, 1] + ... over the slots of an (n, L, ...) block, added
    slot after slot from +0.0; with an axis after the slots this is
    x.sum(axis=1) bit for bit."""
    return sum_left_to_right((x[:, k] for k in range(x.shape[1])), out=out)


def slot_bound(bound, x, out=None):
    """x.min(axis=1) (bound np.minimum) or x.max(axis=1) (np.maximum) of an
    (n, L, ...) block, taken slot after slot."""
    if out is None:
        out = x[:, 0].copy()
    else:
        out[...] = x[:, 0]
    for k in range(1, x.shape[1]):
        bound(out, x[:, k], out=out)
    return out


def viscosity_kernel(solver, rk, lo, hi):
    """Phase step1: d_ij on the upper slots, the flux contraction into P and
    the indicator."""
    up = slice(rk.up_ptr[lo], rk.up_ptr[hi])
    rows, slots = rk.up_row[up], rk.up_slot[up]
    cols = rk.cols[rows, slots]
    rk.d[rows, slots] = d_ij_low(
        rk.U[rows], rk.U[cols], rk.c_slot[rows, slots],
        rk.c_slot[cols, rk.trans_slot[rows, slots]], solver.gas,
    )
    sl = slice(lo, min(hi, rk.numbering.n_lo))
    if sl.start < sl.stop:
        cols = rk.cols[sl]
        fdc = flux_contraction(rk.f[cols], rk.f[sl][:, None], rk.c_slot[sl], out=rk.P[sl])
        a, b = indicator_sums(rk.U[cols], rk.c_slot[sl], rk.eor[sl], rk.eor[cols], fdc)
        rk.alpha[sl] = indicator_result(a, b, rk.eor[sl],
                                        harten_entropy_derivative(rk.U[sl], solver.gas))


def mirror_kernel(solver, rk, lo, hi):
    """Phase step2: the lower slots of d from their mirrors, d_ii = -(sum of
    the off-diagonal valid slots)."""
    sl = slice(lo, hi)
    d = rk.d[sl]
    lower = rk.valid[sl] & (rk.cm_of_new[rk.cols[sl]] < rk.cm_of_new[sl, None])
    d[lower] = rk.d[rk.cols[sl], rk.trans_slot[sl]][lower]
    diag = (np.arange(hi - lo), rk.diag_slot[sl])
    off_diagonal = rk.valid[sl].copy()
    off_diagonal[diag] = False
    d[diag] = -slot_sum(np.where(off_diagonal, d, 0.0))


def low_order_kernel(solver, rk, lo, hi, tau):
    """Phase step3: the low-order update, R, the bounds and the viscous part
    of the correction fluxes in P."""
    sl = slice(lo, hi)
    cols = rk.cols[sl]
    U_i = rk.U[sl]
    U_j = rk.U[cols]
    dU = U_j - U_i[:, None]
    fdc = rk.P[sl]
    d = rk.d[sl]
    rk.U_next[sl] = U_i + (tau * rk.inv_m[sl])[:, None] * slot_sum(d[..., None] * dU - fdc)
    dH = d * (0.5 * (rk.alpha[sl][:, None] + rk.alpha[cols]))
    slot_sum(dH[..., None] * dU - fdc, out=rk.R[sl])
    d_safe = np.where(d != 0.0, d, 1.0)
    corr = np.where(d != 0.0, fdc[..., 0] / (2.0 * d_safe), 0.0)
    rho_bar = 0.5 * (U_i[:, None, 0] + U_j[..., 0]) - corr
    slot_bound(np.minimum, rho_bar, out=rk.rho_min[sl])
    slot_bound(np.maximum, rho_bar, out=rk.rho_max[sl])
    slot_bound(np.minimum, rk.phi[cols], out=rk.phi_min[sl])
    np.multiply((dH - d)[..., None], dU, out=fdc)


def correction_kernel(solver, rk, lo, hi, tau):
    """Phase step4: the correction fluxes of the valid slots, with
    b_ij = delta_ij - m_ij / m_j and b_ji = delta_ij - m_ij / m_i formed from
    the one mass entry m_ij, and the first limiter pass (limit_kernel);
    returns the limiter's entry factors."""
    sl = slice(lo, hi)
    cols, valid, m = rk.cols[sl], rk.valid[sl], rk.m_slot[sl]
    delta = (cols == np.arange(lo, hi)[:, None]).astype(np.float64)
    b = delta - m * rk.inv_m[cols]
    bT = delta - m * rk.inv_m[sl][:, None]
    P = rk.P[sl]
    flux = P + (b[..., None] * rk.R[cols] - bT[..., None] * rk.R[sl][:, None])
    flux *= (tau * rk.inv_m[sl] * (rk.card[sl].astype(np.int64) - 1))[:, None, None]
    P[valid] = flux[valid]
    return limit_kernel(solver, rk, lo, hi)


def limit_kernel(solver, rk, lo, hi):
    """The limiter of step 4 and of step 5's second phase: the factors of
    the correction fluxes in P against U_next and the bounds, into the valid
    slots of l; returns the entry factors."""
    return limiter_rows_reference(lo, hi, rk.card, rk.U_next, rk.P, rk.rho_min, rk.rho_max,
                                  rk.phi_min, rk.l, solver.newton_steps, solver.gas)


def limited_update_kernel(solver, rk, lo, hi, last):
    """The limited update of step 5's first phase and of step 6: U_next and,
    unless last, P scaled by 1 - min(l_ij, l_ji) for the next pass; the last
    pass applies the boundary data."""
    sl = slice(lo, hi)
    valid = rk.valid[sl]
    minl = np.minimum(rk.l[sl], rk.l[rk.cols[sl], rk.trans_slot[sl]])
    lam = 1.0 / np.maximum(rk.card[sl].astype(np.int64) - 1, 1)
    P = rk.P[sl]
    rk.U_next[sl] += lam[:, None] * slot_sum(np.where(valid[..., None], minl[..., None] * P, 0.0))
    if last:
        solver._k_boundary(rk, lo, hi)
    else:
        P[valid] *= (1.0 - minl[valid])[:, None]


# ----- time step and dense single-rank forward-Euler step ---------------------

def cfl_tau(d_ii, m_i, c_cfl):
    """c_cfl * min_i m_i / (-2 d_ii) over the nodes with d_ii < 0, one node at
    a time."""
    return c_cfl * min(m / (-2.0 * d) for d, m in zip(d_ii, m_i) if d < 0.0)


def dense_euler_step(U, matrices, c_cfl=0.9, tau=None, passes=2, newton=2,
                     gamma=GAMMA):
    """Reference update using plain loops over the CSR stencil graph.

    Uses the numpy wavespeed bound and the numpy limiter above (both
    validated against their own oracles), one limiter entry per pair, but
    reimplements all graph plumbing, mirroring, bounds and limiter passes
    independently.
    """
    n = matrices.n
    d = matrices.dim
    nvar = d + 2
    indptr, indices = matrices.indptr, matrices.indices
    gp1 = gamma + 1.0

    def row(i):
        return indices[indptr[i]:indptr[i + 1]]

    def cval(i, j):
        sl = slice(indptr[i], indptr[i + 1])
        k = int(np.nonzero(indices[sl] == j)[0][0])
        return matrices.c[sl][k]

    def mval(i, j):
        sl = slice(indptr[i], indptr[i + 1])
        k = int(np.nonzero(indices[sl] == j)[0][0])
        return matrices.m[sl][k]

    eps = U[:, -1] - 0.5 * (U[:, 1:-1] ** 2).sum(axis=1) / U[:, 0]
    phi = eps * U[:, 0] ** (-gamma)
    fl = np.array([flux_of(U[i], gamma) for i in range(n)])

    dmat = {}
    for i in range(n):
        for j in row(i):
            if j <= i:
                continue
            dij = float(d_ij_low(U[i], U[j], cval(i, j), cval(j, i)))
            dmat[(i, j)] = dij
            dmat[(j, i)] = dij
    d_ii = np.zeros(n)
    for i in range(n):
        d_ii[i] = -sum(dmat[(i, j)] for j in row(i) if j != i)
    if tau is None:
        mask = d_ii < 0.0
        tau = c_cfl * np.min(matrices.m_lumped[mask] / (-2.0 * d_ii[mask]))

    # indicator
    alpha = np.zeros(n)
    for i in range(n):
        nb = row(i)
        alpha[i] = indicator_reference(U[i], [U[j] for j in nb],
                                       [cval(i, j) for j in nb], gamma)

    U_low = np.zeros_like(U)
    R = np.zeros_like(U)
    bounds = np.zeros((n, 3))
    for i in range(n):
        acc = np.zeros(nvar)
        accR = np.zeros(nvar)
        rmin, rmax = np.inf, -np.inf
        pmin = np.inf
        for j in row(i):
            dij = dmat[(i, j)] if j != i else d_ii[i]
            fdc = (fl[j] - fl[i]) @ cval(i, j)
            acc += dij * (U[j] - U[i]) - fdc
            dh = dij * 0.5 * (alpha[i] + alpha[j])
            accR += dh * (U[j] - U[i]) - fdc
            if dij != 0.0:
                ubar = 0.5 * (U[i] + U[j]) - fdc / (2.0 * dij)
            else:
                ubar = 0.5 * (U[i] + U[j])
            rmin, rmax = min(rmin, ubar[0]), max(rmax, ubar[0])
            pmin = min(pmin, phi[j])
        U_low[i] = U[i] + tau / matrices.m_lumped[i] * acc
        R[i] = accR
        bounds[i] = (rmin, rmax, pmin)

    if passes == 0:
        return tau, U_low, alpha

    P = {}
    lmat = {}
    for i in range(n):
        nb = row(i)
        lam_inv = len(nb) - 1
        for j in nb:
            dij = dmat[(i, j)] if j != i else d_ii[i]
            dh = dij * 0.5 * (alpha[i] + alpha[j])
            b_ij = (1.0 if i == j else 0.0) - mval(i, j) / matrices.m_lumped[j]
            b_ji = (1.0 if i == j else 0.0) - mval(j, i) / matrices.m_lumped[i]
            K = b_ij * R[j] - b_ji * R[i] + (dh - dij) * (U[j] - U[i])
            P[(i, j)] = tau / matrices.m_lumped[i] * lam_inv * K

    def compute_l(U_cur):
        out = {}
        for i in range(n):
            for j in row(i):
                out[(i, j)] = float(limiter_compute(
                    U_cur[i], P[(i, j)], bounds[i, 0], bounds[i, 1],
                    bounds[i, 2], max_newton=newton,
                ))
        return out

    U_new = U_low.copy()
    lmat = compute_l(U_new)
    for p in range(passes):
        upd = np.zeros_like(U)
        for i in range(n):
            nb = row(i)
            lam = 1.0 / (len(nb) - 1)
            for j in nb:
                le = min(lmat[(i, j)], lmat[(j, i)])
                upd[i] += lam * le * P[(i, j)]
        U_new = U_new + upd
        if p != passes - 1:
            for i in range(n):
                for j in row(i):
                    le = min(lmat[(i, j)], lmat[(j, i)])
                    P[(i, j)] = (1.0 - le) * P[(i, j)]
            lmat = compute_l(U_new)
    return tau, U_new, alpha


# ----- padded stencil slot view ------------------------------------------------

def slot_view_reference(pattern, col_key, width):
    """cols, valid and trans_slot of the padded slot view, with plain loops.

    Row i of the dense boolean pattern lists its columns ordered by col_key,
    then pad slots that point at row i and are their own mirror.
    """
    n = len(pattern)
    rows = [sorted((j for j in range(n) if pattern[i, j]), key=lambda j: col_key[j])
            for i in range(n)]
    cols = np.zeros((n, width), dtype=np.int64)
    valid = np.zeros((n, width), dtype=bool)
    trans_slot = np.zeros((n, width), dtype=np.int64)
    for i, row in enumerate(rows):
        for s in range(width):
            if s < len(row):
                j = row[s]
                cols[i, s], valid[i, s], trans_slot[i, s] = j, True, rows[j].index(i)
            else:
                cols[i, s], trans_slot[i, s] = i, s
    return cols, valid, trans_slot


# ----- mesh refinement and boundary extraction ----------------------------------
# The loop versions the vectorized mesh code replaced; the tests require the
# same node numbering, cells and faces from both.

def _corner_index(d: int, coords) -> int:
    ref = _REF_CORNERS[d]
    for idx, c in enumerate(ref):
        if tuple(c) == tuple(coords):
            return idx
    raise KeyError(coords)


def refine_reference(mesh):
    """Split every cell into 2^d children; snap new disc-boundary nodes.

    New nodes are numbered in order of first appearance over (cell, child,
    corner); a new node's point is the mean of its distinct parents, projected
    onto the disc circle when all of them lie on it.
    """
    if mesh.reduced_index is not None and not np.array_equal(
        mesh.reduced_index, np.arange(len(mesh.points))
    ):
        raise ValueError("refinement of periodically identified meshes is not supported")
    d = mesh.dim
    ref = _REF_CORNERS[d]
    points = [tuple(p) for p in mesh.points]
    key_to_id = {}
    on_disc = (
        _on_disc(mesh.points[:, :2], mesh.disc)
        if mesh.disc is not None
        else np.zeros(len(mesh.points), dtype=bool)
    )

    def get_point(parent_ids):
        key = frozenset(parent_ids)
        if len(key) == 1:
            return next(iter(key))
        if key in key_to_id:
            return key_to_id[key]
        xy = np.mean([mesh.points[p] for p in key], axis=0)
        if mesh.disc is not None and all(on_disc[p] for p in key):
            center, radius = mesh.disc
            v = xy[:2] - center
            xy = xy.copy()
            xy[:2] = center + radius * v / np.linalg.norm(v)
        key_to_id[key] = len(points)
        points.append(tuple(xy))
        return key_to_id[key]

    new_cells = []
    half = {0.0: (0,), 0.5: (0, 1), 1.0: (1,)}
    for cell in mesh.cells:
        for oct_corner in ref:
            child = []
            for corner in ref:
                r = (np.asarray(oct_corner) + corner) / 2.0
                # generating parent corners of this reference position
                gens = [()]
                for axis in range(d):
                    gens = [g + (v,) for g in gens for v in half[r[axis]]]
                parent_ids = [cell[_corner_index(d, g)] for g in gens]
                child.append(get_point(parent_ids))
            new_cells.append(child)

    return Mesh(
        points=np.asarray(points, dtype=np.float64),
        cells=np.asarray(new_cells, dtype=np.int64),
        dim=d,
        disc=mesh.disc,
        domain=mesh.domain,
    )


def boundary_faces_reference(mesh):
    """Faces seen once, in order of first appearance, with outward normals."""
    face_count = {}
    face_repr = {}
    red = mesh.reduced_index
    for cell in mesh.cells:
        for loc in _LOCAL_FACES[mesh.dim]:
            fnodes = tuple(cell[list(loc)])
            key = frozenset(red[list(fnodes)])
            face_count[key] = face_count.get(key, 0) + 1
            face_repr[key] = (fnodes, cell)
    faces, normals, measures = [], [], []
    for key, cnt in face_count.items():
        if cnt != 1:
            continue
        fnodes, cell = face_repr[key]
        pts = mesh.points[list(fnodes)]
        centroid_cell = mesh.points[cell].mean(axis=0)
        if mesh.dim == 2:
            t = pts[1] - pts[0]
            normal = np.array([t[1], -t[0]])
            measure = np.linalg.norm(t)
        else:
            d1 = pts[2] - pts[0]
            d2 = pts[3] - pts[1]
            normal = 0.5 * np.cross(d1, d2)
            measure = np.linalg.norm(normal)
        nn = np.linalg.norm(normal)
        normal = normal / nn if nn > 0 else normal
        outward = pts.mean(axis=0) - centroid_cell
        if np.dot(normal, outward) < 0.0:
            normal = -normal
        faces.append(fnodes)
        normals.append(normal)
        measures.append(measure)
    return (
        np.asarray(faces, dtype=np.int64),
        np.asarray(normals, dtype=np.float64),
        np.asarray(measures, dtype=np.float64),
    )


def rectangle_cells_reference(nx, ny):
    """Cells of the (nx+1) x (ny+1) tensor grid, node (i, j) = i * (ny+1) + j."""

    def nid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            cells.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)])
    return np.asarray(cells, dtype=np.int64)


def channel_boundary_reference(mesh, faces, normals, measures, x_out, tol=1e-9):
    """Inflow and slip flags and summed measure-weighted normals, face by face.

    Faces on x = 0 are inflow, faces on x = x_out are left free, all others
    are slip walls; a node on an inflow face is not a slip node.
    """
    red = mesh.reduced_index
    x = mesh.points[:, 0]
    acc = np.zeros((mesh.n_nodes, mesh.dim))
    is_inflow = np.zeros(mesh.n_nodes, dtype=bool)
    is_slip = np.zeros(mesh.n_nodes, dtype=bool)
    for fnodes, normal, measure in zip(faces, normals, measures):
        fx = x[list(fnodes)]
        rnodes = red[list(fnodes)]
        if np.all(fx < tol):
            is_inflow[rnodes] = True
        elif np.all(fx > x_out - tol):
            continue  # do-nothing outflow
        else:
            is_slip[rnodes] = True
            acc[rnodes] += measure * normal
    is_slip &= ~is_inflow
    return is_inflow, is_slip, acc


# ----- ghost row sends ------------------------------------------------------------
# The row send table as a loop over every (receiver, owner) rank pair, built
# from the partition's export lists.  The solver takes its rows from the same
# lists and sends the valid slots of each ghost row at the same slot indices
# on both sides, where it once matched every slot by its (row, col) key.

def row_sends_reference(solver):
    """Per sending rank, the (dst rank, src rows, dst rows) of every ghost row."""
    part = solver.part
    sends_rows = [[] for _ in range(part.n_ranks)]
    for r in range(part.n_ranks):
        s_r, _ = part.ranges[r]
        gh = part.ghosts[r]
        n_owned = part.ranges[r][1] - s_r
        for o in range(part.n_ranks):
            ids = part.exports[o].get(r)
            if ids is None or len(ids) == 0:
                continue
            s_o = part.ranges[o][0]
            src_new = solver.ranks[o].numbering.perm[ids - s_o]
            pre_dst = n_owned + np.searchsorted(gh, ids)
            dst_new = solver.ranks[r].numbering.perm[pre_dst]
            sends_rows[o].append((r, src_new, dst_new))
    return sends_rows
