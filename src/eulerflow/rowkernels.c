/* Row kernels of the forward-Euler phases, and the stages of step 0, of the
 * wavespeed and of the limiter.
 *
 * Every kernel takes one rank's arrays as a struct rank, whose addresses
 * rowkernels.Binding checked and bound once, and runs over a range of its
 * rows (or upper edges) plus scalars.  Every row kernel walks the rows
 * [lo, hi) of the rank's padded slot view (sparsity.PaddedView): row i has
 * L slots, slot s of row i is entry i * L + s of cols, trans_slot and every
 * per-slot array, and a per-slot state vector is entry (i * L + s) * nvar.
 * On an owned row the card[i] valid slots come first and the pads follow.
 * Every kernel follows one rule: it loops over the card[i] valid slots of
 * its rows only, so it neither reads nor writes a pad, every sum starts
 * from +0.0 and adds one slot after the other, and what is one expression
 * of the stored matrix entries (b_ij, b_ji, lambda_i) is formed in place
 * instead of read from a stored copy.  Step 1's one walk over a row also
 * forms the indicator's slot sums, and alpha follows from them and the
 * eta' scale of step 0 in one more walk over the rows.
 *
 * The wavespeed stages walk a chunk's upper edges instead, and the limiter
 * stages a chunk's rows one limiter entry at a time.  No kernel calls pow():
 * numpy's pow and libm's differ in the last bit, so each pow() level of
 * step 0, of the wavespeed and of the limiter ends a stage, and numpy
 * (physics.power) evaluates the arguments that stage packed before the next
 * stage goes on.
 *
 * Each kernel does the operations of the numpy expressions it stands for in
 * the same order (tests/oracles.py keeps them): products keep numpy's
 * grouping and the bounds follow np.minimum / np.maximum.  Built with
 * -ffp-contract=off, so no multiply-add is fused, the results are bitwise
 * those of numpy.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t idx;

/* One rank's arrays (stepper._RankData), in the order of rowkernels.ARRAYS,
 * which gives the row count of each (the rows of cols, the owned rows or the
 * upper edges) and its row shape.  rowkernels.Binding requires every array
 * and checks it once; an address never changes, as the solver commits a step
 * by copying into U. */
struct rank {
    idx L, nvar;
    const idx *cols, *trans_slot, *card, *diag_slot, *up_row, *up_slot;
    const double *m_slot, *c_slot, *inv_m, *n_up, *norm_up, *nT_up, *normT_up;
    double *U, *U_next, *R, *f, *vpc, *eor, *phi, *alpha, *d, *l;
    double *P, *eta_scale, *rho_min, *rho_max, *phi_min;
};

/* np.minimum(a, b) and np.maximum(a, b): a NaN operand propagates, the first
 * one when both are NaN, and of two equal values (+0.0 and -0.0) the second
 * is returned.  C's fmin and fmax would drop a NaN. */
static inline double np_min(double a, double b) { return a != a ? a : (a < b ? a : b); }
static inline double np_max(double a, double b) { return a != a ? a : (a > b ? a : b); }

/* np.clip(x, a, b) of arrays a and b, and np.clip(x, 0.0, 1.0), which keeps
 * an x that equals a bound, so that -0.0 stays -0.0. */
static inline double clip(double x, double a, double b) { return np_min(np_max(x, a), b); }
static inline double clip01(double x) { return x < 0.0 ? 0.0 : x > 1.0 ? 1.0 : x; }

/* Phase step0: the flux f(U_i) = (m, v m^T + p I, v (E + p)) of the rows
 * [lo, hi), v = m / rho and p = (gamma - 1) eps, the node state
 * vpc_i = (v, p, c) with c = sqrt(gamma p / rho), which the wavespeed reads,
 * and eps = E - |m|^2 / (2 rho) and rho eps into entries i - lo of eps and
 * rho_eps, the arguments of step 0's pow() levels.  Returns the number of
 * rows i < own with rho eps <= 0, where eta' is not defined. */
idx entropies(const struct rank *r, idx lo, idx hi, idx own, double gamma, double gm1,
              double *eps, double *rho_eps)
{
    idx nvar = r->nvar, dim = nvar - 2, bad = 0;
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = r->U + i * nvar;
        double *fi = r->f + i * nvar * dim, *Vi = r->vpc + i * nvar;
        double rho = Ui[0], E = Ui[nvar - 1], mm = 0.0;
        for (idx k = 1; k < nvar - 1; ++k)
            mm += Ui[k] * Ui[k];
        double e = E - 0.5 * mm / rho, p = gm1 * e;
        for (idx x = 0; x < dim; ++x)
            fi[x] = Ui[1 + x];
        for (idx k = 0; k < dim; ++k) {
            double v = Ui[1 + k] / rho;
            for (idx x = 0; x < dim; ++x)
                fi[(1 + k) * dim + x] = v * Ui[1 + x];
            fi[(1 + k) * dim + k] += p;
            fi[(nvar - 1) * dim + k] = v * (E + p);
            Vi[k] = v;
        }
        Vi[dim] = p;
        Vi[dim + 1] = sqrt(gamma * p / rho);
        eps[i - lo] = e;
        rho_eps[i - lo] = rho * e;
        bad += i < own && rho * e <= 0.0;
    }
    return bad;
}

/* Phase step1: the flux contraction P[i, s, k] = (f_j - f_i)[k] . c_ij of
 * every valid slot, f of shape (rows, nvar, dim), c of (rows, L, dim), and
 * the indicator's slot sums of row i, added into entry i - lo of a and b:
 * a = sum_s (eor_j - eor_i) (m_j . c_ij), m_j the momentum of U_j, and
 * b[k] = sum_s P[i, s, k]. */
void flux_contraction(const struct rank *r, idx lo, idx hi, double *a, double *b)
{
    idx L = r->L, nvar = r->nvar, dim = nvar - 2;
    const double *U = r->U, *eor = r->eor, *f = r->f;
    for (idx i = lo; i < hi; ++i) {
        const double *fi = f + i * nvar * dim;
        double *bi = b + (i - lo) * nvar;
        for (idx s = 0; s < r->card[i]; ++s) {
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

/* Phase step1: alpha of the rows [lo, hi) from their slot sums a and b
 * (entry i - lo, as flux_contraction forms them) and eta' = s (E, -m, rho),
 * s the eta' scale (rho eps)^(-gamma / (gamma + 1)) / (gamma + 1) of step 0:
 * alpha = N / D clipped to [0, 1], and 0 where D is not above dfloor, with
 * N = |a - eta' . b + (eta / rho) b[0]|, D = |a| + sum_k w_k |b[k]| and
 * w = |eta'| but w_0 = |eta'_0 - eta / rho|. */
void indicator(const struct rank *r, idx lo, idx hi, const double *a, const double *b,
               double dfloor)
{
    idx nvar = r->nvar;
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

/* Phase step2: the lower slots of d, on an owned row those before the
 * diagonal (its slots ascend in global id), take the mirror d_ji, and the
 * diagonal takes minus the sum of the off-diagonal valid slots.  Reads only
 * upper slots of other rows. */
void mirror(const struct rank *r, idx lo, idx hi)
{
    idx L = r->L;
    const idx *cols = r->cols, *trans = r->trans_slot, *card = r->card, *diag = r->diag_slot;
    double *d = r->d;
    for (idx i = lo; i < hi; ++i) {
        double rowsum = 0.0;
        for (idx s = 0; s < card[i]; ++s) {
            idx is = i * L + s;
            if (s < diag[i])
                d[is] = d[cols[is] * L + trans[is]];
            if (s != diag[i])
                rowsum += d[is];
        }
        d[i * L + diag[i]] = -rowsum;
    }
}

/* Phase step3: the low-order update U_next, the high-order residual R, the
 * density bar-state bounds and the minimum of phi over the stencil, from
 * the flux contraction in P, which then takes the viscous part
 * (d^H_ij - d_ij)(U_j - U_i) of the correction fluxes. */
void low_order(const struct rank *r, idx lo, idx hi, double tau)
{
    idx L = r->L, nvar = r->nvar;
    const idx *cols = r->cols, *card = r->card;
    const double *U = r->U, *d = r->d, *alpha = r->alpha, *phi = r->phi;
    double *P = r->P;
    double low[nvar], high[nvar];
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = U + i * nvar;
        double rmin = 0.0, rmax = 0.0, pmin = 0.0;
        for (idx k = 0; k < nvar; ++k)
            low[k] = high[k] = 0.0;
        for (idx s = 0; s < card[i]; ++s) {
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

/* Phase step4: the correction fluxes P += b_ij R_j - b_ji R_i, scaled by
 * tau / m_i (card_i - 1), with b_ij = delta_ij - m_ij / m_j and
 * b_ji = delta_ij - m_ij / m_i formed from the one mass entry m_ij. */
void correction(const struct rank *r, idx lo, idx hi, double tau)
{
    idx L = r->L, nvar = r->nvar;
    const idx *cols = r->cols, *card = r->card;
    const double *inv_m = r->inv_m, *m = r->m_slot, *R = r->R;
    double *P = r->P;
    for (idx i = lo; i < hi; ++i) {
        double scale = tau * inv_m[i] * (double)(card[i] - 1);
        const double *Ri = R + i * nvar;
        for (idx s = 0; s < card[i]; ++s) {
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

/* Phases step5 and step6: U_next += lambda_i sum_s min(l_ij, l_ji) P_ij,
 * lambda_i = 1 / max(card_i - 1, 1).  Unless last, P is then scaled by
 * 1 - min(l_ij, l_ji) for the next limiter pass. */
void limited_update(const struct rank *r, idx lo, idx hi, int last)
{
    idx L = r->L, nvar = r->nvar;
    const idx *cols = r->cols, *trans = r->trans_slot, *card = r->card;
    const double *l = r->l;
    double *P = r->P, *U_next = r->U_next;
    double acc[nvar];
    for (idx i = lo; i < hi; ++i) {
        for (idx k = 0; k < nvar; ++k)
            acc[k] = 0.0;
        for (idx s = 0; s < card[i]; ++s) {
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

/* The graph viscosity d_ij = max(lambda_ij |c_ij|, lambda_ji |c_ji|) of the
 * upper edges e0 <= e < e1, in three stages.  Edge e is slot up_slot[e] of
 * row i = up_row[e], its neighbour j = cols[i * L + up_slot[e]].  lambda_ij
 * bounds the maximal wavespeed of the 1D Riemann problem on (rho, v.n, p)
 * of U_i (left) and U_j (right) along the unit normal n = n_ij, lambda_ji
 * that of U_j and U_i along n_ji (Guermond & Popov, JCP 2016: the
 * two-rarefaction star pressure, no Newton step).  Only v.n depends on the
 * edge: rho comes from U, and v, p and c from the node states vpc of step 0.
 *
 * Where the stored n_ji and |c_ji| are bitwise -n_ij and |c_ij|, as
 * assembly.assemble makes them on every pair with an end off the boundary,
 * the problem along n_ji is the mirror image of the one along n_ij, with the
 * same bound in exact arithmetic: such an edge is one direction, d_ij =
 * lambda |c_ij|.  Its left state is the end of lower pressure (U_i on a tie,
 * where both orientations give the same bits), so that d_ij does not depend
 * on which end is the row.  Every other edge is two directions.  Entry k of
 * the scratch array st holds the left and right states (rho, v.n, p, c) of
 * the k-th direction of the chunk's edges, and entry k of q one value. */

static inline uint64_t bits(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* The number of directions of edge e: 1 where n_ji and |c_ji| are bitwise
 * -n_ij and |c_ij|, else 2. */
static inline idx directions(const struct rank *r, idx e, idx dim)
{
    const double *n = r->n_up + e * dim, *nT = r->nT_up + e * dim;
    int mirrored = bits(r->normT_up[e]) == bits(r->norm_up[e]);
    for (idx k = 0; k < dim; ++k)
        mirrored &= bits(nT[k]) == bits(-n[k]);
    return mirrored ? 1 : 2;
}

/* The 1D state (rho, v.n scaled by sign, p, c) of a node into S, V its node
 * state (v, p, c) and rho its density. */
static inline void state(double *S, double rho, const double *V, const double *n, double sign,
                         idx dim)
{
    double u = 0.0;
    for (idx k = 0; k < dim; ++k)
        u += V[k] * n[k];
    S[0] = rho;
    S[1] = sign * u;
    S[2] = V[dim];
    S[3] = V[dim + 1];
}

/* Stage 1: the left and right states of every direction, and in q the
 * pressure ratio p_L / p_R of each, the argument of the first pow() level.
 * Returns the number of directions, and in bad that of the node states
 * gathered with rho <= 0 or p <= 0. */
idx wavespeed_project(const struct rank *r, idx e0, idx e1, idx *bad, double *st, double *q)
{
    idx nvar = r->nvar, dim = nvar - 2, k = 0, nbad = 0;
    const double *U = r->U, *vpc = r->vpc;
    for (idx e = e0; e < e1; ++e) {
        idx i = r->up_row[e], j = r->cols[i * r->L + r->up_slot[e]];
        const double *Vi = vpc + i * nvar, *Vj = vpc + j * nvar, *n = r->n_up + e * dim;
        double *S = st + k * 8;
        nbad += ((U[i * nvar] <= 0.0) | (Vi[dim] <= 0.0))
                + ((U[j * nvar] <= 0.0) | (Vj[dim] <= 0.0));
        if (directions(r, e, dim) == 1) {
            /* the mirror image along -n swaps the ends and negates v.n; the
             * selects are arithmetic, as the order of the pressures is not
             * predictable */
            idx flip = Vj[dim] < Vi[dim], a = i ^ ((i ^ j) & -flip), b = i ^ j ^ a;
            double sign = 1.0 - 2.0 * (double)flip;
            state(S, U[a * nvar], vpc + a * nvar, n, sign, dim);
            state(S + 4, U[b * nvar], vpc + b * nvar, n, sign, dim);
            q[k++] = S[2] / S[6];
        } else {
            const double *nT = r->nT_up + e * dim;
            state(S, U[i * nvar], Vi, n, 1.0, dim);
            state(S + 4, U[j * nvar], Vj, n, 1.0, dim);
            state(S + 8, U[j * nvar], Vj, nT, 1.0, dim);
            state(S + 12, U[i * nvar], Vi, nT, 1.0, dim);
            q[k] = S[2] / S[6];
            q[k + 1] = S[10] / S[14];
            k += 2;
        }
    }
    *bad = nbad;
    return k;
}

/* Stage 2: q holds (p_L / p_R)^(-(gamma - 1) / (2 gamma)) of nd directions
 * and takes the clamped base of the two-rarefaction star pressure, the
 * argument of the second pow() level. */
void wavespeed_base(idx nd, double gm1, const double *st, double *q)
{
    for (idx k = 0; k < nd; ++k) {
        const double *Ls = st + k * 8, *Rs = Ls + 4;
        double num = Ls[3] + Rs[3] - 0.5 * gm1 * (Rs[1] - Ls[1]);
        q[k] = np_max(num / (Ls[3] * q[k] + Rs[3]), 0.0);
    }
}

/* The shock branch of the wave function f(p) of state S.  psi needs only
 * this branch: it is evaluated at p_max = max(p_L, p_R) >= p_S, and where
 * p_max is NaN the rarefaction branch is NaN as well. */
static double shock_wave(const double *S, double p, double gamma, double gm1)
{
    return sqrt(2.0) * (p - S[2]) / sqrt(S[0] * ((gamma + 1.0) * p + gm1 * S[2]));
}

static inline double pos(double x) { return 0.5 * (fabs(x) + x); }
static inline double neg_magnitude(double x) { return 0.5 * (fabs(x) - x); }

/* The wavespeed bound of one direction, Ls and Rs its states and power its
 * second pow() level, base^(2 gamma / (gamma - 1)).  psi(p_max) is the sum
 * of both wave functions and u_R - u_L, but the wave function of a state
 * whose pressure is p_max is +0 exactly, and adding +0 to the other, which is
 * not -0, leaves it as it is: only the end of lower pressure is evaluated,
 * the left one of a one-direction edge. */
static double lambda_max(const double *Ls, const double *Rs, double power, double gamma,
                         double gm1)
{
    double p_tr = Rs[2] * power;
    double p_max = np_max(Ls[2], Rs[2]);
    const double *low = Ls[2] <= Rs[2] ? Ls : Rs;
    double psi = shock_wave(low, p_max, gamma, gm1) + (Rs[1] - Ls[1]);
    double p_star = psi < 0.0 ? p_tr : np_min(p_max, p_tr);
    double gp1_over_2g = (gamma + 1.0) / (2.0 * gamma);
    double lam1 = Ls[1] - Ls[3] * sqrt(1.0 + gp1_over_2g * pos((p_star - Ls[2]) / Ls[2]));
    double lam3 = Rs[1] + Rs[3] * sqrt(1.0 + gp1_over_2g * pos((p_star - Rs[2]) / Rs[2]));
    return np_max(neg_magnitude(lam1), pos(lam3));
}

/* Stage 3: q holds the second pow() level of the nd directions of stage 1;
 * d_ij goes into the edge's slot of d and into entry e - e0 of out.  A
 * zero-length c contributes zero.  Returns the number of directions read, or
 * -1 before an edge whose directions are not all among the nd. */
idx wavespeed_bound(const struct rank *r, idx e0, idx e1, double gamma, double gm1, idx nd,
                    const double *st, const double *q, double *out)
{
    idx dim = r->nvar - 2, k = 0;
    const double *norm_ij = r->norm_up, *norm_ji = r->normT_up;
    for (idx e = e0; e < e1; ++e) {
        idx m = directions(r, e, dim);
        if (k + m > nd)
            return -1;
        const double *S = st + k * 8;
        double lam_ij = lambda_max(S, S + 4, q[k], gamma, gm1);
        double d = norm_ij[e] > 0.0 ? lam_ij * norm_ij[e] : 0.0;
        if (m == 2) {
            double lam_ji = lambda_max(S + 8, S + 12, q[k + 1], gamma, gm1);
            d = np_max(d, norm_ji[e] > 0.0 ? lam_ji * norm_ji[e] : 0.0);
        }
        k += m;
        out[e - e0] = r->d[r->up_row[e] * r->L + r->up_slot[e]] = d;
    }
    return k;
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
 * Each pow() level ends a stage: the stage packs the densities, and numpy
 * (physics.power) raises them before the next stage goes on.  Entry e's
 * data are row[e], flat[e] = i * L + s and open[k] in ix, an int64 (3, cap)
 * array, and t_L[e] (the factor so far), t_R[e], tol[e] and Psi(t_R)[e] in
 * x, a (4, cap) array.  The stages run on the open entries open[0:n]; each
 * compacts them in place and returns how many stay open. */

/* rho eps of V = U + t p: the terms of Psi before its pow() term. */
static double rho_eps_on_ray(const double *U, const double *p, double t, idx nvar)
{
    double mm = 0.0;
    for (idx k = 1; k < nvar - 1; ++k) {
        double m = U[k] + t * p[k];
        mm += m * m;
    }
    return (U[0] + t * p[0]) * (U[nvar - 1] + t * p[nvar - 1]) - 0.5 * mm;
}

/* d/dt Psi(U + t p), rho_g the density of U + t p to the power gamma. */
static double dpsi_on_ray(const double *U, const double *p, double t, idx nvar, double phi_min,
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

/* Stage start: the entries of the rows [lo, hi), each with t_L = 0, t_R
 * from the density clamp and tol = tol_scale |rho eps(U_i)|, all open, and
 * the density at t_R into q.  Returns the number of entries. */
idx limiter_start(const struct rank *r, idx lo, idx hi, double tol_scale, idx cap, idx *ix,
                  double *x, double *q)
{
    idx L = r->L, nvar = r->nvar;
    const idx *card = r->card;
    const double *U = r->U_next, *P = r->P, *rho_min = r->rho_min, *rho_max = r->rho_max;
    idx *row = ix, *flat = ix + cap, *open = ix + 2 * cap;
    double *t_L = x, *t_R = x + cap, *tol = x + 2 * cap;
    idx n = 0;
    for (idx i = lo; i < hi; ++i) {
        const double *Ui = U + i * nvar;
        double mm = 0.0;
        for (idx k = 1; k < nvar - 1; ++k)
            mm += Ui[k] * Ui[k];
        double tol_i = tol_scale * fabs(Ui[0] * Ui[nvar - 1] - 0.5 * mm);
        for (idx s = 0; s < card[i]; ++s) {
            const double *p = P + (i * L + s) * nvar;
            int moves = 0;
            for (idx k = 0; k < nvar; ++k)
                moves |= p[k] != 0.0;
            if (!moves)
                continue;
            double abs_rho_p = np_max(fabs(p[0]), DBL_MIN), tR = 1.0;
            if (Ui[0] + tR * p[0] > rho_max[i])
                tR = fabs(rho_max[i] - Ui[0]) / abs_rho_p;
            if (Ui[0] + tR * p[0] < rho_min[i])
                tR = fabs(rho_min[i] - Ui[0]) / abs_rho_p;
            tR = clip01(tR);
            row[n] = i;
            flat[n] = i * L + s;
            open[n] = n;
            t_L[n] = 0.0;
            t_R[n] = tR;
            tol[n] = tol_i;
            q[n] = Ui[0] + tR * p[0];
            ++n;
        }
    }
    return n;
}

/* Stage test: w holds the packed densities of the open entries to the
 * power gamma + 1.  Psi(t_R) >= 0 closes an entry at t_R.  Without newton
 * every entry closes; otherwise the open ones keep Psi(t_R), and their
 * densities at t_L and then at t_R go into q. */
idx limiter_test(const struct rank *r, idx n, int newton, idx cap, idx *ix, double *x,
                 const double *w, double *q)
{
    idx nvar = r->nvar;
    const double *U = r->U_next, *P = r->P, *phi_min = r->phi_min;
    idx *row = ix, *flat = ix + cap, *open = ix + 2 * cap;
    double *t_L = x, *t_R = x + cap, *psi_R = x + 3 * cap;
    idx m = 0;
    for (idx k = 0; k < n; ++k) {
        idx e = open[k], i = row[e];
        const double *Ui = U + i * nvar, *p = P + flat[e] * nvar;
        double psi = rho_eps_on_ray(Ui, p, t_R[e], nvar) - phi_min[i] * w[k];
        if (psi >= 0.0) {
            t_L[e] = t_R[e];
        } else if (newton) {
            psi_R[e] = psi;
            open[m] = e;
            q[m++] = Ui[0] + t_L[e] * p[0];
        }
    }
    for (idx k = 0; k < m; ++k) {
        idx e = open[k];
        q[m + k] = U[row[e] * nvar] + t_R[e] * P[flat[e] * nvar];
    }
    return m;
}

/* Stage newton: w_L holds the packed densities at t_L to the power
 * gamma + 1, g those at t_L and then at t_R to the power gamma.
 * Psi(t_L) <= tol closes an entry at t_L; the others take one Newton step
 * and stay open, with their density at the new t_R in q. */
idx limiter_newton(const struct rank *r, idx n, double gp1, double sign, idx cap, idx *ix,
                   double *x, const double *w_L, const double *g, double *q)
{
    idx nvar = r->nvar;
    const double *U = r->U_next, *P = r->P, *phi_min = r->phi_min;
    idx *row = ix, *flat = ix + cap, *open = ix + 2 * cap;
    double *t_L = x, *t_R = x + cap, *tol = x + 2 * cap, *psi_R = x + 3 * cap;
    idx m = 0;
    for (idx k = 0; k < n; ++k) {
        idx e = open[k], i = row[e];
        const double *Ui = U + i * nvar, *p = P + flat[e] * nvar;
        double psi_L = rho_eps_on_ray(Ui, p, t_L[e], nvar) - phi_min[i] * w_L[k];
        if (!(psi_L > tol[e]))
            continue;
        double dpsi_L = dpsi_on_ray(Ui, p, t_L[e], nvar, phi_min[i], gp1, g[k]);
        double dpsi_R = dpsi_on_ray(Ui, p, t_R[e], nvar, phi_min[i], gp1, g[n + k]);
        newton_step(t_L + e, t_R + e, psi_L, psi_R[e], dpsi_L, dpsi_R, sign);
        open[m] = e;
        q[m++] = Ui[0] + t_R[e] * p[0];
    }
    return m;
}

/* Stage scatter: the factor of every valid slot of the rows [lo, hi) into
 * l, that of its entry or else 1. */
void limiter_scatter(const struct rank *r, idx lo, idx hi, idx n, idx cap, const idx *ix,
                     const double *x)
{
    idx L = r->L;
    const idx *card = r->card, *flat = ix + cap;
    const double *t_L = x;
    idx e = 0;
    for (idx i = lo; i < hi; ++i)
        for (idx s = 0; s < card[i]; ++s) {
            idx is = i * L + s;
            r->l[is] = e < n && flat[e] == is ? t_L[e++] : 1.0;
        }
}
