/* Row kernels of the forward-Euler phases, and the stages of the wavespeed.
 *
 * Every row kernel walks the rows [lo, hi) of one rank's padded slot view
 * (sparsity.PaddedView): row i has L slots, slot s of row i is entry
 * i * L + s of cols, trans and every per-slot array, and a per-slot state
 * vector is entry (i * L + s) * nvar.  On an owned row the card[i] valid
 * slots come first and the pads follow.  Every kernel follows one rule: it
 * loops over the card[i] valid slots of its rows only, so it neither reads
 * nor writes a pad, every sum starts from +0.0 and adds one slot after the
 * other, and what is one expression of the stored matrix entries (b_ij,
 * b_ji, lambda_i) is formed in place instead of read from a stored copy.
 * Step 1's one walk over a row also forms the indicator's slot sums.
 *
 * The wavespeed stages walk a chunk's upper edges instead.  No kernel calls
 * pow(): numpy's pow and libm's differ in the last bit, so each pow() level
 * of the wavespeed ends a stage, and numpy (physics.power) evaluates the
 * arguments that stage packed before the next stage goes on.
 *
 * Each kernel does the operations of the numpy expressions it stands for in
 * the same order (tests/oracles.py keeps them): products keep numpy's
 * grouping and the bounds follow np.minimum / np.maximum.  Built with
 * -ffp-contract=off, so no multiply-add is fused, the results are bitwise
 * those of numpy.
 */

#include <math.h>
#include <stdint.h>

typedef int64_t idx;

/* np.minimum(a, b) and np.maximum(a, b): a NaN operand propagates, the first
 * one when both are NaN, and of two equal values (+0.0 and -0.0) the second
 * is returned.  C's fmin and fmax would drop a NaN. */
static inline double np_min(double a, double b) { return a != a ? a : (a < b ? a : b); }
static inline double np_max(double a, double b) { return a != a ? a : (a > b ? a : b); }

/* Phase step1: the flux contraction P[i, s, k] = (f_j - f_i)[k] . c_ij of
 * every valid slot, f of shape (rows, nvar, dim), c of (rows, L, dim), and
 * the indicator's slot sums of row i, added into entry i - lo of a and b:
 * a = sum_s (eor_j - eor_i) (m_j . c_ij), m_j the momentum of U_j, and
 * b[k] = sum_s P[i, s, k]. */
void flux_contraction(idx lo, idx hi, idx L, idx nvar, idx dim, const idx *cols,
                      const idx *card, const double *U, const double *eor, const double *f,
                      const double *c, double *P, double *a, double *b)
{
    for (idx i = lo; i < hi; ++i) {
        const double *fi = f + i * nvar * dim;
        double *bi = b + (i - lo) * nvar;
        for (idx s = 0; s < card[i]; ++s) {
            idx is = i * L + s, j = cols[is];
            const double *fj = f + j * nvar * dim;
            const double *cs = c + is * dim;
            double mc = 0.0;
            for (idx x = 0; x < dim; ++x)
                mc += U[j * nvar + 1 + x] * cs[x];
            a[i - lo] += (eor[j] - eor[i]) * mc;
            for (idx k = 0; k < nvar; ++k) {
                double acc = 0.0;
                for (idx x = 0; x < dim; ++x)
                    acc += (fj[k * dim + x] - fi[k * dim + x]) * cs[x];
                P[is * nvar + k] = acc;
                bi[k] += acc;
            }
        }
    }
}

/* Phase step2: the lower slots of d, on an owned row those before the
 * diagonal (its slots ascend in global id), take the mirror d_ji, and the
 * diagonal takes minus the sum of the off-diagonal valid slots.  Reads only
 * upper slots of other rows. */
void mirror(idx lo, idx hi, idx L, const idx *cols, const idx *trans, const idx *card,
            const idx *diag, double *d)
{
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
void low_order(idx lo, idx hi, idx L, idx nvar, const idx *cols, const idx *card, double tau,
               const double *inv_m, const double *U, const double *d, const double *alpha,
               const double *phi, double *P, double *U_next, double *R,
               double *rho_min, double *rho_max, double *phi_min)
{
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
        double scale = tau * inv_m[i];
        for (idx k = 0; k < nvar; ++k) {
            U_next[i * nvar + k] = Ui[k] + scale * low[k];
            R[i * nvar + k] = high[k];
        }
        rho_min[i] = rmin;
        rho_max[i] = rmax;
        phi_min[i] = pmin;
    }
}

/* Phase step4: the correction fluxes P += b_ij R_j - b_ji R_i, scaled by
 * tau / m_i (card_i - 1), with b_ij = delta_ij - m_ij / m_j and
 * b_ji = delta_ij - m_ij / m_i formed from the one mass entry m_ij. */
void correction(idx lo, idx hi, idx L, idx nvar, const idx *cols, const idx *card, double tau,
                const double *inv_m, const double *m, const double *R, double *P)
{
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
 * 1 - min(l_ij, l_ji), and every valid slot with min(l_ij, l_ji) < 1 is
 * gathered in row-major order: its row into live_row, its flat index
 * i * L + s into live_flat and its scaled P into live_P.  Returns the number
 * of slots gathered. */
idx limited_update(idx lo, idx hi, idx L, idx nvar, const idx *cols, const idx *trans,
                   const idx *card, const double *l, int last, double *P, double *U_next,
                   idx *live_row, idx *live_flat, double *live_P)
{
    double acc[nvar];
    idx n_live = 0;
    for (idx i = lo; i < hi; ++i) {
        for (idx k = 0; k < nvar; ++k)
            acc[k] = 0.0;
        for (idx s = 0; s < card[i]; ++s) {
            idx is = i * L + s;
            double minl = np_min(l[is], l[cols[is] * L + trans[is]]);
            double *p = P + is * nvar;
            for (idx k = 0; k < nvar; ++k)
                acc[k] += minl * p[k];
            if (last)
                continue;
            for (idx k = 0; k < nvar; ++k)
                p[k] = p[k] * (1.0 - minl);
            if (minl < 1.0) {
                live_row[n_live] = i;
                live_flat[n_live] = is;
                for (idx k = 0; k < nvar; ++k)
                    live_P[n_live * nvar + k] = p[k];
                ++n_live;
            }
        }
        double lam = 1.0 / (double)(card[i] > 1 ? card[i] - 1 : 1);
        for (idx k = 0; k < nvar; ++k)
            U_next[i * nvar + k] = U_next[i * nvar + k] + lam * acc[k];
    }
    return n_live;
}

/* The graph viscosity d_ij = max(lambda_ij |c_ij|, lambda_ji |c_ji|) of the
 * upper edges e0 <= e < e1, in three stages.  Edge e is slot up_slot[e] of
 * row i = up_row[e], its neighbour j = cols[i * L + up_slot[e]].  lambda_ij
 * bounds the maximal wavespeed of the 1D Riemann problem of U_i (left) and
 * U_j (right) projected on the unit normal n_ij, lambda_ji that of U_j and
 * U_i projected on n_ji (Guermond & Popov, JCP 2016: the two-rarefaction
 * star pressure, no Newton step).  Entry e - e0 of the scratch array st holds
 * the four projected states of the edge as (rho, u, p, c), in the order
 * left and right on n_ij, left and right on n_ji, and entry e - e0 of q one
 * value per direction. */

/* U projected on the unit direction n: the density, the normal velocity,
 * the pressure of E - |m - (n.m) n|^2 / (2 rho) and the sound speed, into S.
 * Returns 1 when rho <= 0 or p <= 0, else 0. */
static int project(const double *U, const double *n, idx dim, double gamma, double gm1,
                   double *S)
{
    double rho = U[0], E = U[dim + 1], mt = 0.0, tt = 0.0;
    for (idx k = 0; k < dim; ++k)
        mt += U[1 + k] * n[k];
    for (idx k = 0; k < dim; ++k) {
        double t = U[1 + k] - mt * n[k];
        tt += t * t;
    }
    double Et = E - 0.5 * tt / rho;
    double p = gm1 * (Et - 0.5 * mt * mt / rho);
    S[0] = rho;
    S[1] = mt / rho;
    S[2] = p;
    S[3] = sqrt(gamma * p / rho);
    return rho <= 0.0 || p <= 0.0;
}

/* Stage 1: the projected states, and in q the pressure ratio p_L / p_R of
 * each direction, the argument of the first pow() level.  Returns the
 * number of projected states with rho <= 0 or p <= 0. */
idx wavespeed_project(idx e0, idx e1, idx L, idx nvar, const idx *up_row, const idx *up_slot,
                      const idx *cols, const double *U, const double *n_ij, const double *n_ji,
                      double gamma, double gm1, double *st, double *q)
{
    idx dim = nvar - 2, bad = 0;
    for (idx e = e0; e < e1; ++e) {
        idx i = up_row[e], j = cols[i * L + up_slot[e]];
        double *S = st + (e - e0) * 16, *qe = q + (e - e0) * 2;
        bad += project(U + i * nvar, n_ij + e * dim, dim, gamma, gm1, S);
        bad += project(U + j * nvar, n_ij + e * dim, dim, gamma, gm1, S + 4);
        bad += project(U + j * nvar, n_ji + e * dim, dim, gamma, gm1, S + 8);
        bad += project(U + i * nvar, n_ji + e * dim, dim, gamma, gm1, S + 12);
        qe[0] = S[2] / S[6];
        qe[1] = S[10] / S[14];
    }
    return bad;
}

/* Stage 2: q holds (p_L / p_R)^(-(gamma - 1) / (2 gamma)) and takes the
 * clamped base of the two-rarefaction star pressure, the argument of the
 * second pow() level. */
void wavespeed_base(idx ne, double gm1, const double *st, double *q)
{
    for (idx e = 0; e < 2 * ne; ++e) {
        const double *Ls = st + e * 8, *Rs = Ls + 4;
        double num = Ls[3] + Rs[3] - 0.5 * gm1 * (Rs[1] - Ls[1]);
        q[e] = np_max(num / (Ls[3] * q[e] + Rs[3]), 0.0);
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

/* The wavespeed bound of one direction, Ls and Rs its projected states and
 * power its second pow() level, base^(2 gamma / (gamma - 1)). */
static double lambda_max(const double *Ls, const double *Rs, double power, double gamma,
                         double gm1)
{
    double p_tr = Rs[2] * power;
    double p_max = np_max(Ls[2], Rs[2]);
    double psi = shock_wave(Ls, p_max, gamma, gm1) + shock_wave(Rs, p_max, gamma, gm1)
                 + (Rs[1] - Ls[1]);
    double p_star = psi < 0.0 ? p_tr : np_min(p_max, p_tr);
    double gp1_over_2g = (gamma + 1.0) / (2.0 * gamma);
    double lam1 = Ls[1] - Ls[3] * sqrt(1.0 + gp1_over_2g * pos((p_star - Ls[2]) / Ls[2]));
    double lam3 = Rs[1] + Rs[3] * sqrt(1.0 + gp1_over_2g * pos((p_star - Rs[2]) / Rs[2]));
    return np_max(neg_magnitude(lam1), pos(lam3));
}

/* Stage 3: q holds the second pow() level of each direction; d_ij goes into
 * the edge's slot of d and into entry e - e0 of out.  A zero-length c
 * contributes zero. */
void wavespeed_bound(idx e0, idx e1, idx L, const idx *up_row, const idx *up_slot,
                     const double *norm_ij, const double *norm_ji, double gamma, double gm1,
                     const double *st, const double *q, double *d, double *out)
{
    for (idx e = e0; e < e1; ++e) {
        const double *S = st + (e - e0) * 16, *qe = q + (e - e0) * 2;
        double lam_ij = lambda_max(S, S + 4, qe[0], gamma, gm1);
        double lam_ji = lambda_max(S + 8, S + 12, qe[1], gamma, gm1);
        double a = norm_ij[e] > 0.0 ? lam_ij * norm_ij[e] : 0.0;
        double b = norm_ji[e] > 0.0 ? lam_ji * norm_ji[e] : 0.0;
        out[e - e0] = d[up_row[e] * L + up_slot[e]] = np_max(a, b);
    }
}
