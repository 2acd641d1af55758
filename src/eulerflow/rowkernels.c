/* Row kernels of the forward-Euler phases, step 0, the wavespeed and the
 * limiter.
 *
 * Every kernel takes one rank's arrays as a struct rank, whose addresses
 * rowkernels.Binding checked and bound once, and runs over a range of its
 * rows (or upper edges) plus scalars.  Every row kernel walks the rows
 * [lo, hi) of the rank's padded slot view (sparsity.PaddedView): row i has
 * L slots, slot s of row i is entry i * L + s of cols, trans_slot and every
 * per-slot array, and a per-slot state vector is entry (i * L + s) * nvar.
 * On an owned row the card[i] valid slots come first and the pads follow.
 * The index arrays are narrow: row ids (cols, up_row) and edge numbers
 * (two_edge) are idx32, slot numbers and row lengths (trans_slot, card,
 * diag_slot, up_slot) idx8, as L <= 255.  A kernel loads them and forms
 * every flat index such as i * L + s in idx, 64 bits wide.  idx8 is a
 * character type, which a store of any type may alias, so a row's length
 * and diagonal slot are loaded into locals before its slot loop: read in
 * the loop's test, they would be loaded again after every store.
 * Every kernel follows one rule: it loops over the card[i] valid slots of
 * its rows only, so it neither reads nor writes a pad, every sum starts
 * from +0.0 and adds one slot after the other, and what is one expression
 * of the stored matrix entries (b_ij, b_ji, lambda_i) is formed in place
 * instead of read from a stored copy.  Step 1's one walk over a row also
 * forms the indicator's slot sums, and alpha follows from them and the
 * eta' scale of step 0 in one more walk over the rows.
 *
 * The wavespeed walks a chunk's upper edges instead, and the limiter a
 * chunk's rows one limiter entry at a time.  Step 0, the wavespeed and the
 * limiter raise values to non-integer powers.  No kernel calls libm's
 * pow(), which differs from numpy's in the last bit: each takes a struct
 * power, the inner loop that np.power itself runs on float64 operands,
 * which rowkernels.power_loop finds in the ufunc's table of loops and
 * checks against np.power at import.  A kernel works in blocks of at most
 * BLOCK values held in stack arrays, one per quantity: it forms the
 * arguments of a pow() level for the whole block, raises them with one
 * call of the loop, and goes on with the results.  So each of these
 * kernels is one C call per chunk (per Newton round for the limiter), and
 * its pure arithmetic runs in loops over a block that the compiler
 * vectorizes (#pragma omp simd, -fopenmp-simd).
 *
 * Each kernel is compiled once per state width: nvar = dim + 2 is 3, 4 or 5
 * in 1, 2 or 3 dimensions.  An exported kernel only dispatches, through
 * PER_WIDTH, to its body, an always-inlined function whose last parameter
 * is nvar, with nvar a compile-time constant; so its loops over the
 * components and directions unroll and its per-row sums are fixed-size
 * arrays that stay in registers.  No other width is compiled, and
 * rowkernels.Binding rejects a rank of any other.
 *
 * Each kernel does the operations of the numpy expressions it stands for in
 * the same order (tests/oracles.py keeps them): products keep numpy's
 * grouping and the bounds follow np.minimum / np.maximum.  Built with
 * -ffp-contract=off, so no multiply-add is fused, and with no option that
 * reorders floating-point operations, the results are bitwise those of
 * numpy.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

typedef int64_t idx;
/* A row id, an edge number or a flat slot i * L + s, which fit 32 bits as
 * sparsity.check_width bounds rows * L; a slot number or a row length. */
typedef int32_t idx32;
typedef uint8_t idx8;

/* The most values a kernel raises with one call of the pow() loop. */
#define BLOCK 256

/* The widest state, nvar in 3D: a body's per-row sums have this length, of
 * which it uses the first nvar. */
#define NVAR_MAX 5

/* A kernel body or a helper of one, inlined where it is called, so that it
 * is compiled anew for each constant nvar it is passed. */
#define BODY static inline __attribute__((always_inline))

/* body(..., nvar) for the width nvar of a bound rank, with nvar a constant
 * in each of the three calls; any nvar other than 3 and 4 runs as 5. */
#define PER_WIDTH(nvar, body, ...)                                                                 \
    ((nvar) == 3 ? body(__VA_ARGS__, 3) : (nvar) == 4 ? body(__VA_ARGS__, 4) : body(__VA_ARGS__, 5))

/* One rank's arrays (stepper._RankData), in the order of rowkernels.ARRAYS,
 * which gives the row count of each (the rows of cols, the owned rows, the
 * upper edges or the twos listed edges) and its row shape.  Every upper edge
 * e has the unit normal and norm of its c_ij in n_up and norm_up; only the
 * edges that keep two directions, whose ascending numbers two_edge lists,
 * have those of c_ji, in nT_two and normT_two at their place in the list.
 * rowkernels.Binding requires every array and checks it once; an address
 * never changes, as the solver commits a step by copying into U. */
struct rank {
    idx L, nvar, twos;
    const idx32 *cols;
    const idx8 *trans_slot, *card, *diag_slot;
    const idx32 *up_row;
    const idx8 *up_slot;
    const idx32 *two_edge;
    const double *m_slot, *c_slot, *inv_m, *n_up, *norm_up, *nT_two, *normT_two;
    double *U, *U_next, *R, *f, *vpc, *eor, *phi, *alpha, *d, *l;
    double *P, *eta_scale, *rho_min, *rho_max, *phi_min;
};

/* numpy's inner loop of a ufunc (PyUFuncGenericFunction), and np.power's
 * loop over float64 operands with its data pointer. */
typedef void (*ufunc_loop)(char **args, const intptr_t *dimensions, const intptr_t *steps,
                           void *data);
struct power {
    ufunc_loop loop;
    void *data;
};

/* out[k] = x[k]^y for k < n, x and out contiguous and apart: the loop runs
 * as np.power(x, y) runs it, with the exponent broadcast (stride 0). */
static void power_of(const struct power *pw, idx n, const double *x, double y, double *out)
{
    char *args[3] = {(char *)x, (char *)&y, (char *)out};
    intptr_t dims[1] = {(intptr_t)n}, steps[3] = {sizeof(double), 0, sizeof(double)};
    if (n > 0)
        pw->loop(args, dims, steps, pw->data);
}

/* power_of in blocks of BLOCK values, as the kernels call it; rowkernels
 * compares it with np.power at import. */
void powers(const struct power *pw, idx n, const double *x, double y, double *out)
{
    for (idx k = 0; k < n; k += BLOCK)
        power_of(pw, n - k < BLOCK ? n - k : BLOCK, x + k, y, out + k);
}

/* np.minimum(a, b) and np.maximum(a, b): a NaN operand propagates, the first
 * one when both are NaN, and of two equal values (+0.0 and -0.0) the second
 * is returned.  C's fmin and fmax would drop a NaN. */
static inline double np_min(double a, double b) { return a != a ? a : (a < b ? a : b); }
static inline double np_max(double a, double b) { return a != a ? a : (a > b ? a : b); }

/* np.clip(x, a, b) of arrays a and b, and np.clip(x, 0.0, 1.0), which keeps
 * an x that equals a bound, so that -0.0 stays -0.0. */
static inline double clip(double x, double a, double b) { return np_min(np_max(x, a), b); }
static inline double clip01(double x) { return x < 0.0 ? 0.0 : x > 1.0 ? 1.0 : x; }

static inline idx min_idx(idx a, idx b) { return a < b ? a : b; }

/* Phase step0 on the rows [lo, hi): the flux f(U_i) = (m, v m^T + p I,
 * v (E + p)), v = m / rho and p = (gamma - 1) eps with
 * eps = E - |m|^2 / (2 rho); the node state vpc_i = (v, p, c) with
 * c = sqrt(gamma p / rho), which the wavespeed reads; eta / rho =
 * (rho eps)^(1 / (gamma + 1)) / rho and phi = eps rho^(-gamma); and on the
 * rows below own the eta' scale (rho eps)^(-gamma / (gamma + 1)) /
 * (gamma + 1).  Returns the number of rows below own with rho eps <= 0,
 * where eta' is not defined; from the block that holds the first of them
 * on, no pow() level runs and eor, phi and eta_scale are not written. */
BODY idx entropies_rows(const struct rank *r, const struct power *pw, idx lo, idx hi, idx own,
                        double gamma, idx nvar)
{
    idx dim = nvar - 2, bad = 0;
    double gm1 = gamma - 1.0, gp1_inv = 1.0 / (gamma + 1.0);
    double rho[BLOCK], eps[BLOCK], rho_eps[BLOCK], w[BLOCK];
    for (idx b0 = lo; b0 < hi; b0 += BLOCK) {
        idx nb = min_idx(hi - b0, BLOCK);
        for (idx k = 0; k < nb; ++k) {
            idx i = b0 + k;
            const double *Ui = r->U + i * nvar;
            double *fi = r->f + i * nvar * dim, *Vi = r->vpc + i * nvar;
            double E = Ui[nvar - 1], mm = 0.0;
            rho[k] = Ui[0];
            for (idx c = 1; c < nvar - 1; ++c)
                mm += Ui[c] * Ui[c];
            double e = E - 0.5 * mm / rho[k], p = gm1 * e;
            for (idx x = 0; x < dim; ++x)
                fi[x] = Ui[1 + x];
            for (idx c = 0; c < dim; ++c) {
                double v = Ui[1 + c] / rho[k];
                for (idx x = 0; x < dim; ++x)
                    fi[(1 + c) * dim + x] = v * Ui[1 + x];
                fi[(1 + c) * dim + c] += p;
                fi[(nvar - 1) * dim + c] = v * (E + p);
                Vi[c] = v;
            }
            Vi[dim] = p;
            Vi[dim + 1] = sqrt(gamma * p / rho[k]);
            eps[k] = e;
            rho_eps[k] = rho[k] * e;
            bad += i < own && rho_eps[k] <= 0.0;
        }
        if (bad)
            continue;
        power_of(pw, nb, rho_eps, gp1_inv, w);
#pragma omp simd
        for (idx k = 0; k < nb; ++k)
            r->eor[b0 + k] = w[k] / rho[k];
        power_of(pw, nb, rho, -gamma, w);
#pragma omp simd
        for (idx k = 0; k < nb; ++k)
            r->phi[b0 + k] = eps[k] * w[k];
        idx n_own = own <= b0 ? 0 : min_idx(own - b0, nb);
        power_of(pw, n_own, rho_eps, -gamma * gp1_inv, w);
#pragma omp simd
        for (idx k = 0; k < n_own; ++k)
            r->eta_scale[b0 + k] = w[k] * gp1_inv;
    }
    return bad;
}

idx entropies(const struct rank *r, const struct power *pw, idx lo, idx hi, idx own,
              double gamma)
{
    return PER_WIDTH(r->nvar, entropies_rows, r, pw, lo, hi, own, gamma);
}

/* Phase step1: the flux contraction P[i, s, k] = (f_j - f_i)[k] . c_ij of
 * every valid slot, f of shape (rows, nvar, dim), c of (rows, L, dim), and
 * the indicator's slot sums of row i, added into entry i - lo of a and b:
 * a = sum_s (eor_j - eor_i) (m_j . c_ij), m_j the momentum of U_j, and
 * b[k] = sum_s P[i, s, k]. */
BODY void contraction_rows(const struct rank *r, idx lo, idx hi, double *a, double *b, idx nvar)
{
    idx L = r->L, dim = nvar - 2;
    const double *U = r->U, *eor = r->eor, *f = r->f;
    for (idx i = lo; i < hi; ++i) {
        const double *fi = f + i * nvar * dim;
        double *bi = b + (i - lo) * nvar;
        for (idx s = 0, ns = r->card[i]; s < ns; ++s) {
            idx is = i * L + s, j = r->cols[is];
            const double *fj = f + j * nvar * dim;
            const double *cs = r->c_slot + is * dim;
            double mc = 0.0;
            for (idx x = 0; x < dim; ++x)
                mc += U[j * nvar + 1 + x] * cs[x];
            a[i - lo] += (eor[j] - eor[i]) * mc;
            for (idx k = 0; k < nvar; ++k) {
                double acc = 0.0;
                for (idx x = 0; x < dim; ++x)
                    acc += (fj[k * dim + x] - fi[k * dim + x]) * cs[x];
                r->P[is * nvar + k] = acc;
                bi[k] += acc;
            }
        }
    }
}

void flux_contraction(const struct rank *r, idx lo, idx hi, double *a, double *b)
{
    PER_WIDTH(r->nvar, contraction_rows, r, lo, hi, a, b);
}

/* Phase step1: alpha of the rows [lo, hi) from their slot sums a and b
 * (entry i - lo, as flux_contraction forms them) and eta' = s (E, -m, rho),
 * s the eta' scale (rho eps)^(-gamma / (gamma + 1)) / (gamma + 1) of step 0:
 * alpha = N / D clipped to [0, 1], and 0 where D is not above dfloor, with
 * N = |a - eta' . b + (eta / rho) b[0]|, D = |a| + sum_k w_k |b[k]| and
 * w = |eta'| but w_0 = |eta'_0 - eta / rho|. */
BODY void indicator_rows(const struct rank *r, idx lo, idx hi, const double *a, const double *b,
                         double dfloor, idx nvar)
{
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = r->U + i * nvar, *bi = b + (i - lo) * nvar;
        double s = r->eta_scale[i], eor = r->eor[i], dot = 0.0, wsum = 0.0;
        for (idx k = 0; k < nvar; ++k) {
            double ep = k == 0 ? s * Ui[nvar - 1] : k == nvar - 1 ? s * Ui[0] : -s * Ui[k];
            dot += ep * bi[k];
            wsum += (k == 0 ? fabs(ep - eor) : fabs(ep)) * fabs(bi[k]);
        }
        double numer = fabs(a[i - lo] - dot + eor * bi[0]);
        double denom = fabs(a[i - lo]) + wsum;
        r->alpha[i] = denom > dfloor ? clip01(numer / denom) : 0.0;
    }
}

void indicator(const struct rank *r, idx lo, idx hi, const double *a, const double *b,
               double dfloor)
{
    PER_WIDTH(r->nvar, indicator_rows, r, lo, hi, a, b, dfloor);
}

/* Phase step2: the lower slots of d, on an owned row those before the
 * diagonal (its slots ascend in global id), take the mirror d_ji, and the
 * diagonal takes minus the sum of the off-diagonal valid slots.  Reads only
 * upper slots of other rows. */
void mirror(const struct rank *r, idx lo, idx hi)
{
    idx L = r->L;
    const idx32 *cols = r->cols;
    const idx8 *trans = r->trans_slot, *card = r->card, *diag = r->diag_slot;
    double *d = r->d;
    for (idx i = lo; i < hi; ++i) {
        double rowsum = 0.0;
        idx di = diag[i];
        for (idx s = 0, ns = card[i]; s < ns; ++s) {
            idx is = i * L + s;
            if (s < di)
                d[is] = d[cols[is] * L + trans[is]];
            if (s != di)
                rowsum += d[is];
        }
        d[i * L + di] = -rowsum;
    }
}

/* Phase step3: the low-order update U_next, the high-order residual R, the
 * density bar-state bounds and the minimum of phi over the stencil, from
 * the flux contraction in P, which then takes the viscous part
 * (d^H_ij - d_ij)(U_j - U_i) of the correction fluxes. */
BODY void low_order_rows(const struct rank *r, idx lo, idx hi, double tau, idx nvar)
{
    idx L = r->L;
    const idx32 *cols = r->cols;
    const idx8 *card = r->card;
    const double *U = r->U, *d = r->d, *alpha = r->alpha, *phi = r->phi;
    double *P = r->P;
    double low[NVAR_MAX], high[NVAR_MAX];
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = U + i * nvar;
        double rmin = 0.0, rmax = 0.0, pmin = 0.0;
        for (idx k = 0; k < nvar; ++k)
            low[k] = high[k] = 0.0;
        for (idx s = 0, ns = card[i]; s < ns; ++s) {
            idx is = i * L + s, j = cols[is];
            const double *Uj = U + j * nvar;
            double *p = P + is * nvar;
            double dij = d[is];
            double dH = dij * (0.5 * (alpha[i] + alpha[j]));
            double corr = dij != 0.0 ? p[0] / (2.0 * dij) : 0.0;
            double rho_bar = 0.5 * (Ui[0] + Uj[0]) - corr;
            if (s == 0) {
                rmin = rmax = rho_bar;
                pmin = phi[j];
            } else {
                rmin = np_min(rmin, rho_bar);
                rmax = np_max(rmax, rho_bar);
                pmin = np_min(pmin, phi[j]);
            }
            for (idx k = 0; k < nvar; ++k) {
                double dU = Uj[k] - Ui[k];
                low[k] += dij * dU - p[k];
                high[k] += dH * dU - p[k];
                p[k] = (dH - dij) * dU;
            }
        }
        double scale = tau * r->inv_m[i];
        for (idx k = 0; k < nvar; ++k) {
            r->U_next[i * nvar + k] = Ui[k] + scale * low[k];
            r->R[i * nvar + k] = high[k];
        }
        r->rho_min[i] = rmin;
        r->rho_max[i] = rmax;
        r->phi_min[i] = pmin;
    }
}

void low_order(const struct rank *r, idx lo, idx hi, double tau)
{
    PER_WIDTH(r->nvar, low_order_rows, r, lo, hi, tau);
}

/* Phase step4: the correction fluxes P += b_ij R_j - b_ji R_i, scaled by
 * tau / m_i (card_i - 1), with b_ij = delta_ij - m_ij / m_j and
 * b_ji = delta_ij - m_ij / m_i formed from the one mass entry m_ij. */
BODY void correction_rows(const struct rank *r, idx lo, idx hi, double tau, idx nvar)
{
    idx L = r->L;
    const idx32 *cols = r->cols;
    const idx8 *card = r->card;
    const double *inv_m = r->inv_m, *m = r->m_slot, *R = r->R;
    double *P = r->P;
    for (idx i = lo; i < hi; ++i) {
        double scale = tau * inv_m[i] * (double)(card[i] - 1);
        const double *Ri = R + i * nvar;
        for (idx s = 0, ns = card[i]; s < ns; ++s) {
            idx is = i * L + s, j = cols[is];
            double delta = j == i ? 1.0 : 0.0;
            double b = delta - m[is] * inv_m[j], bT = delta - m[is] * inv_m[i];
            const double *Rj = R + j * nvar;
            double *p = P + is * nvar;
            for (idx k = 0; k < nvar; ++k) {
                p[k] = p[k] + (b * Rj[k] - bT * Ri[k]);
                p[k] = p[k] * scale;
            }
        }
    }
}

void correction(const struct rank *r, idx lo, idx hi, double tau)
{
    PER_WIDTH(r->nvar, correction_rows, r, lo, hi, tau);
}

/* Phases step5 and step6: U_next += lambda_i sum_s min(l_ij, l_ji) P_ij,
 * lambda_i = 1 / max(card_i - 1, 1).  Unless last, P is then scaled by
 * 1 - min(l_ij, l_ji) for the next limiter pass; last is a constant in
 * each of the bodies that limited_update runs. */
BODY void update_rows(const struct rank *r, idx lo, idx hi, int last, idx nvar)
{
    idx L = r->L;
    const idx32 *cols = r->cols;
    const idx8 *trans = r->trans_slot, *card = r->card;
    const double *l = r->l;
    double *P = r->P, *U_next = r->U_next;
    double acc[NVAR_MAX];
    for (idx i = lo; i < hi; ++i) {
        for (idx k = 0; k < nvar; ++k)
            acc[k] = 0.0;
        for (idx s = 0, ns = card[i]; s < ns; ++s) {
            idx is = i * L + s;
            double minl = np_min(l[is], l[cols[is] * L + trans[is]]);
            double *p = P + is * nvar;
            for (idx k = 0; k < nvar; ++k)
                acc[k] += minl * p[k];
            if (!last)
                for (idx k = 0; k < nvar; ++k)
                    p[k] = p[k] * (1.0 - minl);
        }
        double lam = 1.0 / (double)(card[i] > 1 ? card[i] - 1 : 1);
        for (idx k = 0; k < nvar; ++k)
            U_next[i * nvar + k] = U_next[i * nvar + k] + lam * acc[k];
    }
}

void limited_update(const struct rank *r, idx lo, idx hi, int last)
{
    if (last)
        PER_WIDTH(r->nvar, update_rows, r, lo, hi, 1);
    else
        PER_WIDTH(r->nvar, update_rows, r, lo, hi, 0);
}

/* The graph viscosity d_ij = max(lambda_ij |c_ij|, lambda_ji |c_ji|) of the
 * upper edges e0 <= e < e1.  Edge e is slot up_slot[e] of row i = up_row[e],
 * its neighbour j = cols[i * L + up_slot[e]].  lambda_ij bounds the maximal
 * wavespeed of the 1D Riemann problem on (rho, v.n, p) of U_i (left) and
 * U_j (right) along the unit normal n = n_ij, lambda_ji that of U_j and U_i
 * along n_ji (Guermond & Popov, JCP 2016: the two-rarefaction star pressure,
 * no Newton step).  Only v.n depends on the edge: rho comes from U, and v, p
 * and c from the node states vpc of step 0.
 *
 * Where n_ji and |c_ji| are bitwise -n_ij and |c_ij|, as assembly.assemble
 * makes them on every pair with an end off the boundary, the problem along
 * n_ji is the mirror image of the one along n_ij, with the same bound in
 * exact arithmetic: such an edge is one direction, d_ij = lambda |c_ij|.
 * Its left state is the end of lower pressure (U_i on a tie, where both
 * orientations give the same bits), so that d_ij does not depend on which
 * end is the row.  Every other edge is two directions; the solver's setup
 * lists these in two_edge, with their n_ji and |c_ji|. */

/* The place in two_edge of the first listed edge at or after edge e. */
static idx first_two(const struct rank *r, idx e)
{
    idx lo = 0, hi = r->twos;
    while (lo < hi) {
        idx mid = lo + (hi - lo) / 2;
        if (r->two_edge[mid] < e)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The directions of a block of edges, one array per quantity: entry k holds
 * the left (l) and right (r) states (rho, v.n, p, c) of the k-th direction,
 * the norm of its c and, in turn, the pow() levels of its bound and the
 * bound times the norm. */
struct directions {
    double rho_l[BLOCK], u_l[BLOCK], p_l[BLOCK], c_l[BLOCK];
    double rho_r[BLOCK], u_r[BLOCK], p_r[BLOCK], c_r[BLOCK];
    double norm[BLOCK], x[BLOCK], y[BLOCK];
};

/* The 1D state (rho, v.n scaled by sign, p, c) of node a along n into the
 * left (right = 0) or right side of direction k. */
BODY void side(struct directions *D, idx k, int right, const struct rank *r, idx a, const double *n,
               double sign, idx dim)
{
    const double *V = r->vpc + a * (dim + 2);
    double u = 0.0;
    for (idx x = 0; x < dim; ++x)
        u += V[x] * n[x];
    (right ? D->rho_r : D->rho_l)[k] = r->U[a * (dim + 2)];
    (right ? D->u_r : D->u_l)[k] = sign * u;
    (right ? D->p_r : D->p_l)[k] = V[dim];
    (right ? D->c_r : D->c_l)[k] = V[dim + 1];
}

/* The directions of the nb upper edges from b0 into D, and into two[e - b0]
 * whether edge e is two directions, which holds where it is the listed edge
 * at place *t of two_edge, and then *t moves on to the next; returns the
 * number of directions and adds the number of node states gathered with
 * rho <= 0 or p <= 0 to bad. */
BODY idx project(const struct rank *r, idx b0, idx nb, idx dim, struct directions *D, int *two,
                 idx *t, idx *bad)
{
    idx nvar = dim + 2, k = 0;
    const double *U = r->U, *vpc = r->vpc;
    for (idx e = b0; e < b0 + nb; ++e) {
        idx i = r->up_row[e], j = r->cols[i * r->L + r->up_slot[e]];
        const double *n = r->n_up + e * dim;
        double p_i = vpc[i * nvar + dim], p_j = vpc[j * nvar + dim];
        *bad += ((U[i * nvar] <= 0.0) | (p_i <= 0.0)) + ((U[j * nvar] <= 0.0) | (p_j <= 0.0));
        two[e - b0] = *t < r->twos && r->two_edge[*t] == e;
        if (!two[e - b0]) {
            /* the mirror image along -n swaps the ends and negates v.n; the
             * selects are arithmetic, as the order of the pressures is not
             * predictable */
            idx flip = p_j < p_i, a = i ^ ((i ^ j) & -flip), b = i ^ j ^ a;
            double sign = 1.0 - 2.0 * (double)flip;
            side(D, k, 0, r, a, n, sign, dim);
            side(D, k, 1, r, b, n, sign, dim);
            D->norm[k++] = r->norm_up[e];
        } else {
            const double *nT = r->nT_two + *t * dim;
            side(D, k, 0, r, i, n, 1.0, dim);
            side(D, k, 1, r, j, n, 1.0, dim);
            D->norm[k++] = r->norm_up[e];
            side(D, k, 0, r, j, nT, 1.0, dim);
            side(D, k, 1, r, i, nT, 1.0, dim);
            D->norm[k++] = r->normT_two[(*t)++];
        }
    }
    return k;
}

static inline double pos(double x) { return 0.5 * (fabs(x) + x); }
static inline double neg_magnitude(double x) { return 0.5 * (fabs(x) - x); }

/* d_ij of the upper edges e0:e1 into their slots of d and into entry e - e0
 * of out, in blocks of BLOCK / 2 edges.  Per block: the states of every
 * direction; the pressure ratio p_L / p_R to the power
 * -(gamma - 1) / (2 gamma); the clamped base of the two-rarefaction star
 * pressure to the power 2 gamma / (gamma - 1); the bound of each direction.
 * A zero-length c contributes zero.  Returns the number of directions, or
 * -1 when a node state gathered has rho <= 0 or p <= 0, and then writes no
 * slot of d. */
BODY idx wavespeed_edges(const struct rank *r, const struct power *pw, idx e0, idx e1,
                         double gamma, double *out, idx nvar)
{
    idx dim = nvar - 2, nd = 0, bad = 0, t = first_two(r, e0);
    double gm1 = gamma - 1.0, gp1_over_2g = (gamma + 1.0) / (2.0 * gamma);
    double y1 = -((gamma - 1.0) / (2.0 * gamma)), y2 = 2.0 * gamma / (gamma - 1.0);
    struct directions D;
    int two[BLOCK / 2];
    for (idx b0 = e0; b0 < e1; b0 += BLOCK / 2) {
        idx nb = min_idx(e1 - b0, BLOCK / 2);
        idx k = project(r, b0, nb, dim, &D, two, &t, &bad);
        nd += k;
#pragma omp simd
        for (idx m = 0; m < k; ++m)
            D.x[m] = D.p_l[m] / D.p_r[m];
        power_of(pw, k, D.x, y1, D.y);
#pragma omp simd
        for (idx m = 0; m < k; ++m) {
            double num = D.c_l[m] + D.c_r[m] - 0.5 * gm1 * (D.u_r[m] - D.u_l[m]);
            D.x[m] = np_max(num / (D.c_l[m] * D.y[m] + D.c_r[m]), 0.0);
        }
        power_of(pw, k, D.x, y2, D.y);
        /* psi(p_max) is the sum of both wave functions and u_R - u_L, but
         * the wave function of the state whose pressure is p_max is +0
         * exactly, and adding +0 to the other, which is not -0, leaves it as
         * it is: only the shock branch of the end of lower pressure is
         * evaluated, which holds as p_max >= p_S, and where p_max is NaN the
         * rarefaction branch is NaN as well */
#pragma omp simd
        for (idx m = 0; m < k; ++m) {
            double p_l = D.p_l[m], p_r = D.p_r[m];
            double p_tr = p_r * D.y[m];
            double p_max = np_max(p_l, p_r);
            int left = p_l <= p_r;
            double rho_low = left ? D.rho_l[m] : D.rho_r[m], p_low = left ? p_l : p_r;
            double shock = sqrt(2.0) * (p_max - p_low)
                           / sqrt(rho_low * ((gamma + 1.0) * p_max + gm1 * p_low));
            double psi = shock + (D.u_r[m] - D.u_l[m]);
            double p_star = psi < 0.0 ? p_tr : np_min(p_max, p_tr);
            double lam1 = D.u_l[m] - D.c_l[m] * sqrt(1.0 + gp1_over_2g * pos((p_star - p_l) / p_l));
            double lam3 = D.u_r[m] + D.c_r[m] * sqrt(1.0 + gp1_over_2g * pos((p_star - p_r) / p_r));
            double lam = np_max(neg_magnitude(lam1), pos(lam3));
            D.x[m] = D.norm[m] > 0.0 ? lam * D.norm[m] : 0.0;
        }
        for (idx e = b0, m = 0; e < b0 + nb; ++e) {
            double d = D.x[m++];
            if (two[e - b0])
                d = np_max(d, D.x[m++]);
            out[e - e0] = d;
        }
    }
    if (bad)
        return -1;
    for (idx e = e0; e < e1; ++e)
        r->d[r->up_row[e] * r->L + r->up_slot[e]] = out[e - e0];
    return nd;
}

idx wavespeed(const struct rank *r, const struct power *pw, idx e0, idx e1, double gamma,
              double *out)
{
    return PER_WIDTH(r->nvar, wavespeed_edges, r, pw, e0, e1, gamma, out);
}

/* The convex limiter of the rows [lo, hi), U_i the row's state in U_next:
 * for each entry, the largest t in [0, 1] for which U_i + t P_ij stays in
 * [rho_min_i, rho_max_i] and satisfies
 * Psi(U_i + t P_ij) = rho eps - phi_min_i rho^(gamma + 1) >= 0, up to the
 * bracketing quadratic Newton steps of Guermond, Nazarov, Popov & Tomas
 * (SISC 2018).  A chunk's entries are, row after row, the valid slots whose
 * P is not all +-0.  Every other valid slot takes 1: its update
 * min(l_ij, l_ji) P_ij and its rescaled P_ij (1 - min) stay +-0 whatever
 * its factor, and as P_ji is all +-0 exactly when P_ij is, the factor of a
 * moving slot's mirror is that of an entry.  No pad is read or written.
 *
 * An entry holds its bracket [t_L, t_R] with t_L = 0 and t_R from the
 * density clamp at first.  Psi(t_R) >= 0 closes it at t_R, and
 * Psi(t_L) <= tol at t_L; any other entry takes a Newton step.  l holds
 * each entry's t_L so far, and so does entry k of out, k its number in the
 * chunk.  The entries still open after limiter_start or a round are kept in
 * the chunk's scratch arrays: row, flat = i * L + s and k in ix, an idx32
 * (3, cap) array, and t_L, t_R, tol and Psi(t_R) in x, a (4, cap) array.
 * Both kernels work in blocks of BLOCK entries. */

/* rho eps of V = U + t p: the terms of Psi before its pow() term. */
BODY double rho_eps_on_ray(const double *U, const double *p, double t, idx nvar)
{
    double mm = 0.0;
    for (idx k = 1; k < nvar - 1; ++k) {
        double m = U[k] + t * p[k];
        mm += m * m;
    }
    return (U[0] + t * p[0]) * (U[nvar - 1] + t * p[nvar - 1]) - 0.5 * mm;
}

/* d/dt Psi(U + t p), rho_g the density of U + t p to the power gamma. */
BODY double dpsi_on_ray(const double *U, const double *p, double t, idx nvar, double phi_min,
                        double gp1, double rho_g)
{
    double mp = 0.0;
    for (idx k = 1; k < nvar - 1; ++k)
        mp += (U[k] + t * p[k]) * p[k];
    double rho = U[0] + t * p[0], E = U[nvar - 1] + t * p[nvar - 1];
    return p[0] * E + rho * p[nvar - 1] - mp - phi_min * gp1 * rho_g * p[0];
}

/* One bracketing quadratic Newton step on [t_L, t_R] from divided
 * differences.  The discriminants are clamped at zero, an endpoint whose
 * denominator vanishes or whose update is not finite stays, the updates are
 * clamped into the old bracket and put in order. */
static void newton_step(double *t_L, double *t_R, double psi_L, double psi_R, double dpsi_L,
                        double dpsi_R, double sign)
{
    double tL = *t_L, tR = *t_R;
    double eps = DBL_MIN * (1.0 + tR);
    double scaling = 1.0 / (tR - tL + eps);
    double d12 = (psi_R - psi_L) * scaling;
    double d112 = (d12 - dpsi_L) * scaling;
    double d122 = (dpsi_R - d12) * scaling;
    double lam_L = np_max(dpsi_L * dpsi_L - 4.0 * psi_L * d112, 0.0);
    double lam_R = np_max(dpsi_R * dpsi_R - 4.0 * psi_R * d122, 0.0);
    double den_L = dpsi_L + sign * sqrt(lam_L);
    double den_R = dpsi_R + sign * sqrt(lam_R);
    double new_L = fabs(den_L) > eps ? tL - 2.0 * psi_L / den_L : tL;
    double new_R = fabs(den_R) > eps ? tR - 2.0 * psi_R / den_R : tR;
    new_L = clip(isfinite(new_L) ? new_L : tL, tL, tR);
    new_R = clip(isfinite(new_R) ? new_R : tR, tL, tR);
    *t_L = np_min(new_L, new_R);
    *t_R = np_max(new_L, new_R);
}

/* A block of limiter entries, one array per quantity: rho holds densities
 * on the ray and w their powers, rho_eps and phi_min the other terms of
 * Psi(t_R). */
struct entries {
    idx32 row[BLOCK], flat[BLOCK], k[BLOCK];
    double t_L[BLOCK], t_R[BLOCK], tol[BLOCK], psi_R[BLOCK], psi_L[BLOCK];
    double rho_eps[BLOCK], phi_min[BLOCK], rho[2 * BLOCK], w[2 * BLOCK];
};

/* The scratch arrays of a chunk's open entries (see above). */
struct scratch {
    idx32 *row, *flat, *k;
    double *t_L, *t_R, *tol, *psi_R;
};

static struct scratch scratch_of(idx cap, idx32 *ix, double *x)
{
    struct scratch s = {ix, ix + cap, ix + 2 * cap, x, x + cap, x + 2 * cap, x + 3 * cap};
    return s;
}

/* Entry b of the block, which stays open, into entry m of s. */
static void keep_open(struct scratch *s, idx m, const struct entries *B, idx b)
{
    s->row[m] = B->row[b];
    s->flat[m] = B->flat[b];
    s->k[m] = B->k[b];
    s->t_L[m] = B->t_L[b];
    s->t_R[m] = B->t_R[b];
    s->tol[m] = B->tol[b];
    s->psi_R[m] = B->psi_R[b];
}

/* The test at t_R of the nb entries of a block, with their densities at
 * t_R and the other terms of Psi(t_R): Psi(t_R) >= 0 closes an entry at
 * t_R; with newton every other entry stays open, appended to s from entry m
 * on, and without it closes at t_L.  Writes each entry's t_L into l and
 * out; returns the new number of open entries in s. */
static idx test_t_R(const struct rank *r, const struct power *pw, double gp1, int newton,
                    struct entries *B, idx nb, struct scratch *s, idx m, double *out)
{
    power_of(pw, nb, B->rho, gp1, B->w);
#pragma omp simd
    for (idx b = 0; b < nb; ++b)
        B->psi_R[b] = B->rho_eps[b] - B->phi_min[b] * B->w[b];
    for (idx b = 0; b < nb; ++b) {
        if (B->psi_R[b] >= 0.0)
            B->t_L[b] = B->t_R[b];
        else if (newton)
            keep_open(s, m++, B, b);
        r->l[B->flat[b]] = out[B->k[b]] = B->t_L[b];
    }
    return m;
}

/* The entries of the rows [lo, hi), each with t_L = 0, t_R from the
 * density clamp and tol = tol_scale |rho eps(U_i)|, and their test at t_R;
 * every other valid slot takes 1.  Returns the number of open entries, and
 * in entries the number of entries. */
BODY idx start(const struct rank *r, const struct power *pw, idx lo, idx hi, double gamma,
               double tol_scale, int newton, struct scratch s, double *out, idx *entries, idx nvar)
{
    idx L = r->L, n = 0, m = 0, nb = 0;
    const double *U = r->U_next, *rho_min = r->rho_min, *rho_max = r->rho_max;
    struct entries B;
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = U + i * nvar;
        double mm = 0.0;
        for (idx k = 1; k < nvar - 1; ++k)
            mm += Ui[k] * Ui[k];
        double tol_i = tol_scale * fabs(Ui[0] * Ui[nvar - 1] - 0.5 * mm);
        for (idx sl = 0, ns = r->card[i]; sl < ns; ++sl) {
            idx is = i * L + sl;
            const double *p = r->P + is * nvar;
            int moves = 0;
            for (idx k = 0; k < nvar; ++k)
                moves |= p[k] != 0.0;
            if (!moves) {
                r->l[is] = 1.0;
                continue;
            }
            double abs_rho_p = np_max(fabs(p[0]), DBL_MIN), tR = 1.0;
            if (Ui[0] + tR * p[0] > rho_max[i])
                tR = fabs(rho_max[i] - Ui[0]) / abs_rho_p;
            if (Ui[0] + tR * p[0] < rho_min[i])
                tR = fabs(rho_min[i] - Ui[0]) / abs_rho_p;
            tR = clip01(tR);
            B.row[nb] = (idx32)i;
            B.flat[nb] = (idx32)is;
            B.k[nb] = (idx32)n++;
            B.t_L[nb] = 0.0;
            B.t_R[nb] = tR;
            B.tol[nb] = tol_i;
            B.rho_eps[nb] = rho_eps_on_ray(Ui, p, tR, nvar);
            B.phi_min[nb] = r->phi_min[i];
            B.rho[nb++] = Ui[0] + tR * p[0];
            if (nb == BLOCK) {
                m = test_t_R(r, pw, gamma + 1.0, newton, &B, nb, &s, m, out);
                nb = 0;
            }
        }
    }
    m = test_t_R(r, pw, gamma + 1.0, newton, &B, nb, &s, m, out);
    *entries = n;
    return m;
}

idx limiter_start(const struct rank *r, const struct power *pw, idx lo, idx hi, double gamma,
                  double tol_scale, int newton, idx cap, idx32 *ix, double *x, double *out,
                  idx *entries)
{
    return PER_WIDTH(r->nvar, start, r, pw, lo, hi, gamma, tol_scale, newton,
                     scratch_of(cap, ix, x), out, entries);
}

/* One Newton round of the n open entries: Psi(t_L) <= tol closes an entry
 * at t_L, and every other one takes one Newton step, whose quadratic models
 * bend by sign, and then, with test, the test at its new t_R.  Returns the
 * number of entries still open. */
BODY idx round_entries(const struct rank *r, const struct power *pw, idx n, double gamma,
                       double sign, int test, struct scratch s, double *out, idx nvar)
{
    idx m = 0;
    double gp1 = gamma + 1.0;
    const double *U = r->U_next, *P = r->P, *phi_min = r->phi_min;
    struct entries B;
    for (idx e0 = 0; e0 < n; e0 += BLOCK) {
        idx nb = min_idx(n - e0, BLOCK), c = 0;
        for (idx b = 0; b < nb; ++b) {
            idx e = e0 + b;
            B.row[b] = s.row[e];
            B.flat[b] = s.flat[e];
            B.k[b] = s.k[e];
            B.t_L[b] = s.t_L[e];
            B.t_R[b] = s.t_R[e];
            B.tol[b] = s.tol[e];
            B.psi_R[b] = s.psi_R[e];
            B.rho[b] = U[B.row[b] * nvar] + B.t_L[b] * P[B.flat[b] * nvar];
        }
        power_of(pw, nb, B.rho, gp1, B.w);
        /* the entries that go on are moved to the front of the block */
        for (idx b = 0; b < nb; ++b) {
            idx i = B.row[b];
            const double *p = P + B.flat[b] * nvar;
            double psi_L = rho_eps_on_ray(U + i * nvar, p, B.t_L[b], nvar) - phi_min[i] * B.w[b];
            if (!(psi_L > B.tol[b])) {
                r->l[B.flat[b]] = out[B.k[b]] = B.t_L[b];
                continue;
            }
            B.row[c] = B.row[b];
            B.flat[c] = B.flat[b];
            B.k[c] = B.k[b];
            B.t_L[c] = B.t_L[b];
            B.t_R[c] = B.t_R[b];
            B.tol[c] = B.tol[b];
            B.psi_R[c] = B.psi_R[b];
            B.psi_L[c++] = psi_L;
        }
        /* the densities at t_L and then at t_R to the power gamma */
        for (idx b = 0; b < c; ++b) {
            const double *p = P + B.flat[b] * nvar;
            double rho = U[B.row[b] * nvar];
            B.rho[b] = rho + B.t_L[b] * p[0];
            B.rho[c + b] = rho + B.t_R[b] * p[0];
        }
        power_of(pw, 2 * c, B.rho, gamma, B.w);
        for (idx b = 0; b < c; ++b) {
            idx i = B.row[b];
            const double *Ui = U + i * nvar, *p = P + B.flat[b] * nvar;
            double dpsi_L = dpsi_on_ray(Ui, p, B.t_L[b], nvar, phi_min[i], gp1, B.w[b]);
            double dpsi_R = dpsi_on_ray(Ui, p, B.t_R[b], nvar, phi_min[i], gp1, B.w[c + b]);
            newton_step(B.t_L + b, B.t_R + b, B.psi_L[b], B.psi_R[b], dpsi_L, dpsi_R, sign);
            r->l[B.flat[b]] = out[B.k[b]] = B.t_L[b];
            B.rho_eps[b] = rho_eps_on_ray(Ui, p, B.t_R[b], nvar);
            B.phi_min[b] = phi_min[i];
            B.rho[b] = Ui[0] + B.t_R[b] * p[0];
        }
        if (test)
            m = test_t_R(r, pw, gp1, 1, &B, c, &s, m, out);
        else
            m += c;
    }
    return m;
}

idx limiter_round(const struct rank *r, const struct power *pw, idx n, double gamma, double sign,
                  int test, idx cap, idx32 *ix, double *x, double *out)
{
    return PER_WIDTH(r->nvar, round_entries, r, pw, n, gamma, sign, test, scratch_of(cap, ix, x),
                     out);
}
