/* The trajectory engine, compiled.
 *
 * covwalk_trajectory runs one trajectory of walk.simulate_trajectory from its
 * start to its last step in one loop, whose locals hold the walk's state: an
 * outer loop stops at each checkpoint, each return grid point and each end
 * of a block of uniforms, and an inner loop takes the steps between them.
 * It draws the trajectory's uniforms itself, from a Philox4x64-10 stream
 * bit-identical to numpy's Generator(Philox(SeedSequence([s, k]))):
 * covwalk_seed keys it, and covwalk_random draws one double for the tests.
 * Python builds a fixed start and the orbit table and turns the state at
 * each checkpoint into a record; everything else happens here, with the
 * arithmetic of the Python reference (_pykernel._PySegments) in the same
 * operation order:
 *
 *   - a Haar start: fuchsian.haar_sample's draw from the stream (the sector
 *     by area, a sector's chart point through hyp2.compose, or the core by
 *     rejection), reduced as CoverSystem.start_point reduces it;
 *   - the letter: for atoms the count of the cumulative weights (all but
 *     the last, which is 1.0) below u, taken without a branch; the weights
 *     never decrease, zero-weight atoms included, so the count is the index
 *     of the first weight >= u, numpy's searchsorted(side="left"), and a
 *     two-atom walk mispredicts no branch on it; for a parametric measure
 *     the increment rotation(th1) translation(tau) rotation(th2) of
 *     _pykernel._draw_block, built for a whole block when its uniforms are
 *     drawn, so the steps only read it; for a flow the constant flow step;
 *   - the position: one orbit-table move, or the multiply followed by the
 *     greedy descent of CoverSystem.reduce_raw, with CoverSystem.fast_unwind
 *     on iterations unwind_mask, 2 * unwind_mask + 1, ... and the
 *     determinant renormalization;
 *   - the int64 sheet index, with checked adds; a coordinate at or past
 *     2**62 after a step is refused;
 *   - the running Cartan product and its renormalization every 64 steps;
 *   - the atom counts and the return tracking (sheet zero plus the ball
 *     test, the number of returns, the first one and the maximum excursion);
 *   - at a checkpoint, the index, fuchsian.cusp_height and the Cartan
 *     product; at a grid point, the return counts.
 *
 * Built with -ffp-contract=off (no fused multiply-adds) and -fno-builtin, so
 * that exp, log, pow and floor are the libm calls CPython's math module and
 * float ** make: gcc would fold pow(x, 2.0) into x * x.  An angle's cosine
 * and sine come from one libm sincos call where the C library is glibc,
 * whose sincos gives the bits of its sin and cos (tests/test_walk.py checks
 * this through ctypes), and from separate cos and sin calls elsewhere.
 * fabs and sqrt are exact, so they are taken as builtins.  Never build this
 * with -ffast-math.
 */

#define _GNU_SOURCE /* glibc declares sincos only then */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#ifdef __GLIBC__
#define USES_SINCOS 1
#else
#define USES_SINCOS 0
#endif

#ifndef COVWALK_KERNEL_KEY
#define COVWALK_KERNEL_KEY ""
#endif

enum { LETTERS_ATOMS = 0, LETTERS_PARAMETRIC = 1, LETTERS_FLOW = 2 };

/* return codes; segments._CTrajectory raises the matching Python exception */
enum {
    OK = 0,
    ERR_INDEX = 1,     /* OverflowError: a sheet index coordinate reached 2**62 */
    ERR_DESCENT = 2,   /* fuchsian.NonTerminationError */
    ERR_ZERO = 3,      /* ZeroDivisionError */
    ERR_DOMAIN = 4,    /* ValueError: math domain error, floor of NaN */
    ERR_RANGE = 5,     /* OverflowError: float ** overflow, floor of infinity */
    ERR_HAAR = 6       /* fuchsian.NonTerminationError: no core proposal accepted */
};

/* The step's helpers are inlined into covwalk_trajectory and haar_start
 * alike: with two callers gcc would call them instead, and a call per
 * descent costs a descent-bound walk about a tenth of its kernel time. */
#define INLINE inline __attribute__((always_inline))

#define RNG_BLOCK 4096             /* uniforms per block: _pykernel._RNG_BLOCK */
#define INDEX_LIMIT (INT64_C(1) << 62)
#define TWO_PI 6.283185307179586
#define MATH_E 2.718281828459045

/* Mirrored field for field by segments._Walk (ctypes); every field is 8
 * bytes or an array of 8-byte words, so the layout has no padding.
 * covwalk_walk_size lets Python check it. */
typedef struct {
    /* the cover (CoverSystem) */
    int64_t dim, n_sides, n_corners, unwind_mask, max_iter;
    double eps;
    const double *planes;          /* per side: alpha, beta, delta */
    const double *pair_mats;       /* per side: a, b, c, d of the pairing */
    const int64_t *pair_phis;      /* per side: dim charges */
    const double *corner_mats;     /* per corner: a, b, c, d of the chart */
    const double *corner_inv_mats; /* per corner: the chart's inverse */
    const double *corner_widths;
    const int64_t *corner_phis;    /* per corner: dim signed charges */
    /* the letters */
    int64_t letters, n_letters;
    const double *cum;             /* atoms: cumulative weights, last 1.0 */
    const double *mats;            /* atoms or the flow step: a, b, c, d */
    double tau_min, tau_span;
    int64_t cartan;                /* walk runs keep the Cartan product */
    /* the orbit table, or table_next NULL */
    const int64_t *table_next;     /* per (state, letter): the next state */
    const int64_t *table_delta;    /* per (state, letter): dim index change */
    const double *table_xy;        /* per state: base point x, y */
    /* return tracking */
    int64_t returns;
    double cosh_r;
    /* the Haar start (fuchsian.haar_sample from CoverSystem.haar_parts),
     * drawn from the stream when haar is set */
    int64_t haar, n_sectors, max_proposals;
    const double *sectors;         /* per sector: area, width, e^height, and
                                      the cusp normalizer's a, b, c, d */
    double area;                   /* the polygon's */
    /* the core: its height, and its box's x range and 1 / y at its bottom
     * and top */
    double core_height, core_x_min, core_x_max, core_inv_lo, core_inv_hi;
    /* the start: the reduced tangent and its base point, written here
     * when the kernel draws it */
    double a, b, c, d, px, py;
    int64_t *index;                /* dim coordinates, the start's on entry */
    int64_t *counts;               /* per atom, or NULL */
    int64_t fail_step;             /* the step an error code refers to */
    /* the run's stops, each ascending; the last checkpoint is the last step */
    const int64_t *checkpoints;
    int64_t n_checkpoints;
    const int64_t *grid;           /* return grid points */
    int64_t n_grid;
    /* the trajectory's outputs */
    double *cp_state;              /* per checkpoint: cusp height, ta, tb, tc, td, tlog */
    int64_t *cp_index;             /* per checkpoint: dim coordinates */
    int64_t *grid_returns;         /* per grid point: first return (-1: none),
                                      returns, maximum excursion */
    /* the trajectory's Philox4x64-10 stream, as numpy's Philox keeps it */
    uint64_t ctr[4], key[2], buffer[4];
    int64_t buffer_pos;
} walk_t;

int64_t covwalk_walk_size(void) { return (int64_t)sizeof(walk_t); }

const char *covwalk_kernel_key(void) { return COVWALK_KERNEL_KEY; }

/* 1 where an angle's cosine and sine come from one sincos call */
int64_t covwalk_uses_sincos(void) { return USES_SINCOS; }

/* the cosine and sine of h, as libm's cos(h) and sin(h) give them */
static void cos_sin(double h, double *c, double *s)
{
#if USES_SINCOS
    sincos(h, s, c);
#else
    *c = cos(h);
    *s = sin(h);
#endif
}

/* ------------------------------------------------------------------------
 * The trajectory's uniforms: numpy's SeedSequence (pool of four words) keys
 * a Philox4x64-10 stream, and a double is the top 53 bits of the next word,
 * as Generator.random draws it, one at a time or in blocks alike. */

#define SEED_INIT_A 0x43b0d7e5u
#define SEED_MULT_A 0x931e8875u
#define SEED_INIT_B 0x8b51f9ddu
#define SEED_MULT_B 0x58f38dedu
#define SEED_MIX_L 0xca01f9ddu
#define SEED_MIX_R 0x4973f715u
#define SEED_POOL 4

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SEED_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = SEED_MIX_L * x - SEED_MIX_R * y;
    return result ^ (result >> 16);
}

/* Keys w's stream as Philox(SeedSequence(entropy)) does, where entropy is
 * the seed's 32-bit words (segments._seed_words): SeedSequence's pool
 * mixing, then generate_state(2, uint64) for the key; the counter starts at
 * zero and the buffer empty. */
void covwalk_seed(walk_t *w, const uint32_t *entropy, int64_t n_words)
{
    uint32_t pool[SEED_POOL];
    uint32_t hash_const = SEED_INIT_A;
    for (int64_t i = 0; i < SEED_POOL; i++)
        pool[i] = hashmix(i < n_words ? entropy[i] : 0, &hash_const);
    for (int64_t src = 0; src < SEED_POOL; src++)
        for (int64_t dst = 0; dst < SEED_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = SEED_POOL; src < n_words; src++)
        for (int64_t dst = 0; dst < SEED_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_const));

    uint32_t state[4];
    hash_const = SEED_INIT_B;
    for (int i = 0; i < 4; i++) {
        uint32_t v = pool[i % SEED_POOL] ^ hash_const;
        hash_const *= SEED_MULT_B;
        v *= hash_const;
        state[i] = v ^ (v >> 16);
    }
    w->key[0] = state[0] | (uint64_t)state[1] << 32;
    w->key[1] = state[2] | (uint64_t)state[3] << 32;
    for (int i = 0; i < 4; i++) {
        w->ctr[i] = 0;
        w->buffer[i] = 0;
    }
    w->buffer_pos = 4;
}

/* the next 64-bit word: from the buffer, or a fresh block of four after the
 * counter is incremented */
static uint64_t philox_next(walk_t *w)
{
    if (w->buffer_pos < 4)
        return w->buffer[w->buffer_pos++];
    if (++w->ctr[0] == 0 && ++w->ctr[1] == 0 && ++w->ctr[2] == 0)
        ++w->ctr[3];
    uint64_t c0 = w->ctr[0], c1 = w->ctr[1], c2 = w->ctr[2], c3 = w->ctr[3];
    uint64_t k0 = w->key[0], k1 = w->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += UINT64_C(0x9E3779B97F4A7C15);
            k1 += UINT64_C(0xBB67AE8584CAA73B);
        }
        __uint128_t p0 = (__uint128_t)UINT64_C(0xD2E7470EE14C6C93) * c0;
        __uint128_t p1 = (__uint128_t)UINT64_C(0xCA5A826395121157) * c2;
        uint64_t n0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        uint64_t n2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c1 = (uint64_t)p1;
        c3 = (uint64_t)p0;
        c0 = n0;
        c2 = n2;
    }
    w->buffer[0] = c0;
    w->buffer[1] = c1;
    w->buffer[2] = c2;
    w->buffer[3] = c3;
    w->buffer_pos = 1;
    return c0;
}

static double next_double(walk_t *w)
{
    return (double)(philox_next(w) >> 11) * (1.0 / 9007199254740992.0);
}

double covwalk_random(walk_t *w) { return next_double(w); }

/* index += k * phi, refusing int64 overflow */
static int charge(int64_t *index, const int64_t *phi, int64_t k, int64_t dim)
{
    for (int64_t i = 0; i < dim; i++) {
        int64_t q;
        if (__builtin_mul_overflow(k, phi[i], &q)
            || __builtin_add_overflow(index[i], q, &index[i]))
            return ERR_INDEX;
    }
    return OK;
}

/* CPython's v ** 2 for a float v: pow of |v|, overflow raised */
static int square(double v, double *out)
{
    if (isnan(v) || isinf(v) || v == 0.0) {
        *out = isnan(v) ? v : (v == 0.0 ? 0.0 : INFINITY);
        return OK;
    }
    *out = pow(__builtin_fabs(v), 2.0);
    return isinf(*out) ? ERR_RANGE : OK;
}

/* CoverSystem.fast_unwind on m with base point (x, y): sets *moved to 1 and
 * updates m and the index when the point winds deep enough in a cusp
 * sector, else leaves them and sets *moved to 0. */
static INLINE int fast_unwind(const walk_t *w, double m[4], double x,
                              double y, int64_t *index, int *moved)
{
    const double a = m[0], b = m[1], c = m[2], d = m[3];
    int64_t best = -1;
    double best_im = MATH_E; /* engage only above cusp height 1 */
    *moved = 0;
    for (int64_t i = 0; i < w->n_corners; i++) {
        const double *cm = w->corner_mats + 4 * i;
        double t = cm[2] * x + cm[3];
        double sq;
        int rc = square(cm[2] * y, &sq);
        if (rc)
            return rc;
        double den = t * t + sq;
        if (den == 0.0)
            return ERR_ZERO;
        double im = y / den;
        if (im > best_im) {
            best = i;
            best_im = im;
        }
    }
    if (best < 0)
        return OK;
    const double *cm = w->corner_mats + 4 * best;
    double sa = cm[0] * a + cm[1] * c;
    double sb = cm[0] * b + cm[1] * d;
    double sc = cm[2] * a + cm[3] * c;
    double sd = cm[2] * b + cm[3] * d;
    double sden = sc * sc + sd * sd;
    double width = w->corner_widths[best];
    if (sden == 0.0 || width == 0.0)
        return ERR_ZERO;
    double u = (sa * sc + sb * sd) / sden;
    double q = u / width;
    if (isnan(q))
        return ERR_DOMAIN;
    if (isinf(q))
        return ERR_RANGE;
    double kf = floor(q);
    if (kf == 0.0)
        return OK;
    if (!(kf > -9223372036854775808.0 && kf < 9223372036854775808.0))
        return ERR_INDEX;
    double kw = kf * width;
    sa -= kw * sc;
    sb -= kw * sd;
    const double *im = w->corner_inv_mats + 4 * best;
    m[0] = im[0] * sa + im[1] * sc;
    m[1] = im[0] * sb + im[1] * sd;
    m[2] = im[2] * sa + im[3] * sc;
    m[3] = im[2] * sb + im[3] * sd;
    *moved = 1;
    return charge(index, w->corner_phis + w->dim * best, (int64_t)kf, w->dim);
}

/* CoverSystem.reduce_raw without a word: reduces m in place, charges the
 * index and leaves the reduced base point in *px, *py */
static INLINE int descend(const walk_t *w, double m[4], int64_t *index,
                          double *px, double *py)
{
    const int64_t mask = w->unwind_mask;
    for (int64_t it = 0; it < w->max_iter; it++) {
        double a = m[0], b = m[1], c = m[2], d = m[3];
        double den = c * c + d * d;
        if (den == 0.0)
            return ERR_ZERO;
        double x = (a * c + b * d) / den;
        double y = 1.0 / den;
        double r2 = x * x + y * y;
        int64_t hit = -1;
        for (int64_t i = 0; i < w->n_sides; i++) {
            const double *pl = w->planes + 3 * i;
            if (pl[0] * r2 + pl[1] * x + pl[2] > w->eps) {
                hit = i;
                break;
            }
        }
        if (hit < 0) {
            *px = x;
            *py = y;
            return OK;
        }
        if ((it & mask) == mask) {
            int moved;
            int rc = fast_unwind(w, m, x, y, index, &moved);
            if (rc)
                return rc;
            if (moved)
                continue;
        }
        const double *p = w->pair_mats + 4 * hit;
        double na = p[0] * a + p[1] * c;
        double nb = p[0] * b + p[1] * d;
        double nc = p[2] * a + p[3] * c;
        double nd = p[2] * b + p[3] * d;
        double det = na * nd - nb * nc;
        if (__builtin_fabs(det - 1.0) > 1e-12) {
            if (det < 0.0)
                return ERR_DOMAIN;
            double root = __builtin_sqrt(det);
            if (root == 0.0)
                return ERR_ZERO;
            double s = 1.0 / root;
            na = na * s;
            nb = nb * s;
            nc = nc * s;
            nd = nd * s;
        }
        m[0] = na;
        m[1] = nb;
        m[2] = nc;
        m[3] = nd;
        int rc = charge(index, w->pair_phis + w->dim * hit, -1, w->dim);
        if (rc)
            return rc;
    }
    return ERR_DESCENT;
}

/* fuchsian.cusp_height at (x, y): the log height in the deepest corner
 * chart, -inf where no chart puts the point above the real line */
static INLINE int cusp_height(const walk_t *w, double x, double y, double *out)
{
    double best = -INFINITY;
    for (int64_t i = 0; i < w->n_corners; i++) {
        const double *cm = w->corner_mats + 4 * i;
        double cx = cm[2] * x + cm[3];
        double sq;
        int rc = square(cm[2] * y, &sq);
        if (rc)
            return rc;
        double den = cx * cx + sq;
        if (den == 0.0)
            return ERR_ZERO;
        double im = y / den;
        if (im > 0.0) {
            double h = log(im);
            if (h > best)
                best = h;
        }
    }
    *out = best;
    return OK;
}

/* hyp2.canonical_entries: the sign of +-m with c > 0, or c == 0 and a > 0,
 * or c == a == 0 and b > 0 */
static void canonical(double m[4])
{
    if (m[2] < 0.0 || (m[2] == 0.0 && (m[0] < 0.0 || (m[0] == 0.0 && m[1] < 0.0))))
        for (int i = 0; i < 4; i++)
            m[i] = -m[i];
}

/* hyp2.element in place: the determinant rescaled to one where |det - 1|
 * is above 1e-13 (1 + m^2), m the largest |entry|, then canonical */
static int element(double m[4])
{
    double det = m[0] * m[3] - m[1] * m[2];
    if (!(det > 0.0))
        return ERR_DOMAIN;
    double mx = __builtin_fabs(m[0]);
    for (int i = 1; i < 4; i++)
        if (__builtin_fabs(m[i]) > mx)
            mx = __builtin_fabs(m[i]);
    if (__builtin_fabs(det - 1.0) > 1e-13 * (1.0 + mx * mx)) {
        double s = 1.0 / __builtin_sqrt(det);
        for (int i = 0; i < 4; i++)
            m[i] = m[i] * s;
    }
    canonical(m);
    return OK;
}

/* hyp2.compose: out = element(g h); out may be g or h */
static int compose(const double g[4], const double h[4], double out[4])
{
    double p[4] = {g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
                   g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3]};
    for (int i = 0; i < 4; i++)
        out[i] = p[i];
    return element(out);
}

/* haar_sample's tangent at height y over x: compose(unipotent(x),
 * translation(log y)), composed on the left with the sector's normalizer
 * (none for the core), then on the right with the fibre rotation; left in
 * m.  translation(t)'s e^(t/2) is exp(0.5 * t), and both factors are
 * already sign-canonical. */
static int haar_tangent(double x, double y, const double *normalizer,
                        const double rot[4], double m[4])
{
    double e = exp(0.5 * log(y));
    double tr[4] = {e, 0.0, 0.0, 1.0 / e};
    m[0] = 1.0;
    m[1] = x;
    m[2] = 0.0;
    m[3] = 1.0;
    int rc = compose(m, tr, m);
    if (!rc && normalizer)
        rc = compose(normalizer, m, m);
    return rc ? rc : compose(m, rot, m);
}

/* fuchsian.haar_sample from w's stream, reduced as CoverSystem.start_point
 * reduces it: the greedy descent, hyp2.element, and sheet index zero.  The
 * reduced tangent and its base point are left in w's start.  The sector is
 * chosen by area; a sector draw is exact in the sector's chart, and the
 * core is drawn by rejection from its box, at most max_proposals times. */
static __attribute__((noinline)) int haar_start(walk_t *w)
{
    double m[4], rot[4], c, s, x, y;
    double u = next_double(w) * w->area;
    double theta = next_double(w) * TWO_PI;
    cos_sin(0.5 * theta, &c, &s);
    rot[0] = c;
    rot[1] = -s;
    rot[2] = s;
    rot[3] = c;
    canonical(rot);
    int rc = ERR_HAAR;
    int64_t i;
    for (i = 0; i < w->n_sectors; i++) {
        const double *sec = w->sectors + 7 * i;
        if (u < sec[0]) {
            x = next_double(w) * sec[1];
            y = sec[2] / (1.0 - next_double(w));
            rc = haar_tangent(x, y, sec + 3, rot, m);
            break;
        }
        u -= sec[0];
    }
    for (int64_t t = 0; i == w->n_sectors && t < w->max_proposals; t++) {
        x = w->core_x_min + next_double(w) * (w->core_x_max - w->core_x_min);
        double den = w->core_inv_lo - next_double(w) * (w->core_inv_lo - w->core_inv_hi);
        if (den == 0.0)
            return ERR_ZERO;
        y = 1.0 / den;
        double r2 = x * x + y * y, h;
        int64_t j = 0;
        while (j < w->n_sides) {
            const double *pl = w->planes + 3 * j;
            if (pl[0] * r2 + pl[1] * x + pl[2] > w->eps)
                break;
            j++;
        }
        if (j < w->n_sides)  /* outside the polygon */
            continue;
        int hrc = cusp_height(w, x, y, &h);
        if (hrc)
            return hrc;
        if (h > w->core_height)
            continue;
        rc = haar_tangent(x, y, NULL, rot, m);
        break;
    }
    rc = rc ? rc : descend(w, m, w->index, &x, &y);
    for (i = 0; i < w->dim; i++)
        w->index[i] = 0;
    rc = rc ? rc : element(m);
    if (rc)
        return rc;
    double den = m[2] * m[2] + m[3] * m[3];
    if (den == 0.0)
        return ERR_ZERO;
    w->a = m[0];
    w->b = m[1];
    w->c = m[2];
    w->d = m[3];
    w->px = (m[0] * m[2] + m[1] * m[3]) / den;
    w->py = 1.0 / den;
    return OK;
}

/* The letters of n parametric steps from their uniforms u, three a step,
 * in _pykernel._draw_block's operation order: the increment rotation(th1)
 * translation(tau) rotation(th2) as a, b, c, d in g */
static void parametric_letters(const walk_t *w, const double *u, int64_t n,
                               double *g)
{
    for (int64_t i = 0; i < n; i++, u += 3, g += 4) {
        double th1 = u[0] * TWO_PI;
        double tau = w->tau_min + u[1] * w->tau_span;
        double th2 = u[2] * TWO_PI;
        double h1 = 0.5 * th1, h2 = 0.5 * th2;
        double c1, s1, c2, s2;
        cos_sin(h1, &c1, &s1);
        cos_sin(h2, &c2, &s2);
        double e = exp(0.5 * tau);
        double ei = 1.0 / e;
        g[0] = c1 * e * c2 - s1 * ei * s2;
        g[1] = -c1 * e * s2 - s1 * ei * c2;
        g[2] = s1 * e * c2 + c1 * ei * s2;
        g[3] = -s1 * e * s2 + c1 * ei * c2;
    }
}

/* The whole trajectory from the start in w, or, when w->haar is set, from
 * a Haar start drawn first and written back to w's start, with the walk's
 * state in this function's locals.  The outer loop writes the outputs of
 * step k (a grid point's return counts, then a checkpoint's index, cusp
 * height and Cartan product), draws the next block of uniforms once the
 * last one is used up, and runs the inner loop to the next stop: the next
 * checkpoint, grid point or block end.  The blocks are the Python kernel's:
 * RNG_BLOCK atom letters, or RNG_BLOCK / 3 parametric steps, whose block
 * leaves its last uniform unused and whose letters are built as it is
 * drawn, into an array beside u; a flow draws none.  A block is drawn only
 * as far as the last step, so the stream ends where the steps leave it, and
 * the unused uniform of a parametric block is skipped when the next block
 * starts. */
int covwalk_trajectory(walk_t *w)
{
    double u[RNG_BLOCK];
    double letter[4 * (RNG_BLOCK / 3)]; /* a parametric block's letters */
    int rc = w->haar ? haar_start(w) : OK;
    if (rc) {
        w->fail_step = 0;
        return rc;
    }
    const int parametric = w->letters == LETTERS_PARAMETRIC;
    const int64_t block_len = parametric ? RNG_BLOCK / 3 : RNG_BLOCK;
    const int64_t dim = w->dim;
    const int64_t last = w->checkpoints[w->n_checkpoints - 1];
    const double sx = w->px, sy = w->py;
    int64_t *index = w->index;
    double m[4] = {w->a, w->b, w->c, w->d};
    double px = sx, py = sy;
    double ta = 1.0, tb = 0.0, tc = 0.0, td = 1.0, tlog = 0.0;
    int64_t state = 0;
    int64_t left_zero = 0, first_return = -1, n_returns = 0, max_exc = 0;
    int64_t k = 0, j = 0, bend = 0, cp = 0, gp = 0;

    for (;;) {
        if (gp < w->n_grid && w->grid[gp] == k) {
            int64_t *out = w->grid_returns + 3 * gp++;
            out[0] = first_return;
            out[1] = n_returns;
            out[2] = max_exc;
        }
        if (w->checkpoints[cp] == k) {
            double *out = w->cp_state + 6 * cp;
            rc = cusp_height(w, px, py, out);
            if (rc)
                break;
            out[1] = ta;
            out[2] = tb;
            out[3] = tc;
            out[4] = td;
            out[5] = tlog;
            for (int64_t i = 0; i < dim; i++)
                w->cp_index[dim * cp + i] = index[i];
            cp++;
        }
        if (k == last)
            break;
        if (k == bend) {
            if (w->letters != LETTERS_FLOW) {
                const int64_t steps = last - k < block_len ? last - k : block_len;
                if (parametric && k)
                    next_double(w);
                for (int64_t i = 0; i < (parametric ? 3 : 1) * steps; i++)
                    u[i] = next_double(w);
                if (parametric)
                    parametric_letters(w, u, steps, letter);
            }
            j = 0;
            bend = k + block_len;
        }
        int64_t stop = bend;
        if (w->checkpoints[cp] < stop)
            stop = w->checkpoints[cp];
        if (gp < w->n_grid && w->grid[gp] < stop)
            stop = w->grid[gp];

        while (k < stop) {
            k++;
            /* the letter */
            int64_t ai = 0;
            double ga, gb, gc, gd;
            if (parametric) {
                const double *g = letter + 4 * j;
                ga = g[0];
                gb = g[1];
                gc = g[2];
                gd = g[3];
            } else {
                if (w->letters == LETTERS_ATOMS) {
                    /* the number of cumulative weights below u, which is
                     * the first index whose weight is >= u */
                    const double x = u[j];
                    for (int64_t i = 0; i < w->n_letters - 1; i++)
                        ai += w->cum[i] < x;
                    if (w->counts)
                        w->counts[ai]++;
                }
                const double *g = w->mats + 4 * ai;
                ga = g[0];
                gb = g[1];
                gc = g[2];
                gd = g[3];
            }
            j++;

            /* the position: an orbit-table move, or multiply and reduce */
            if (w->table_next) {
                int64_t t = state * w->n_letters + ai;
                state = w->table_next[t];
                rc = charge(index, w->table_delta + dim * t, 1, dim);
                px = w->table_xy[2 * state];
                py = w->table_xy[2 * state + 1];
            } else {
                double a = m[0], b = m[1], c = m[2], d = m[3];
                m[0] = a * ga + b * gc;
                m[1] = a * gb + b * gd;
                m[2] = c * ga + d * gc;
                m[3] = c * gb + d * gd;
                rc = descend(w, m, index, &px, &py);
            }
            if (rc)
                break;
            int64_t exc = 0;
            for (int64_t i = 0; i < dim; i++) {
                int64_t v = index[i] < 0 ? -index[i] : index[i];
                if (v > exc)
                    exc = v;
            }
            if (exc >= INDEX_LIMIT) {
                rc = ERR_INDEX;
                break;
            }

            /* the running Cartan product */
            if (w->cartan) {
                double na = ta * ga + tb * gc;
                double nb = ta * gb + tb * gd;
                double nc = tc * ga + td * gc;
                double nd = tc * gb + td * gd;
                ta = na;
                tb = nb;
                tc = nc;
                td = nd;
                if ((k & 63) == 0) {
                    double mm = __builtin_fabs(ta);
                    if (__builtin_fabs(tb) > mm)
                        mm = __builtin_fabs(tb);
                    if (__builtin_fabs(tc) > mm)
                        mm = __builtin_fabs(tc);
                    if (__builtin_fabs(td) > mm)
                        mm = __builtin_fabs(td);
                    if (mm > 1.0) {
                        ta = ta / mm;
                        tb = tb / mm;
                        tc = tc / mm;
                        td = td / mm;
                        tlog += log(mm);
                    }
                }
            }

            /* returns: re-entering sheet zero within the radius of the start */
            if (w->returns) {
                if (exc) {
                    if (exc > max_exc)
                        max_exc = exc;
                    left_zero = 1;
                } else {
                    double dx = px - sx, dy = py - sy;
                    double scale = 2.0 * py * sy;
                    if (scale == 0.0) {
                        rc = ERR_ZERO;
                        break;
                    }
                    int inside = 1.0 + (dx * dx + dy * dy) / scale <= w->cosh_r;
                    if (left_zero && inside) {
                        n_returns++;
                        left_zero = 0;
                        if (first_return < 0)
                            first_return = k;
                    } else if (!left_zero && !inside) {
                        left_zero = 1;
                    }
                }
            }
        }
        if (rc)
            break;
    }
    w->fail_step = k;
    return rc;
}
