/* The trajectory engine, compiled.
 *
 * covwalk_trajectory runs one trajectory of walk.simulate_trajectory from its
 * reduced start to its last step, in segments that end at the run's stops
 * (checkpoints and return grid points) and at the end of a block of
 * uniforms.  It draws the trajectory's uniforms itself, from a Philox4x64-10
 * stream bit-identical to numpy's Generator(Philox(SeedSequence([s, k]))):
 * covwalk_seed keys it and covwalk_random draws one double, which Python's
 * Haar sampler reads before the walk starts.  Python builds the start and
 * the orbit table and turns the state at each checkpoint into a record;
 * everything a step does happens here, with the arithmetic of the Python
 * reference (segments._PySegments) in the same operation order:
 *
 *   - the letter: for atoms the first cumulative weight >= u (numpy's
 *     searchsorted, side="left"); for a parametric measure the increment
 *     rotation(th1) translation(tau) rotation(th2) of
 *     segments._draw_block; for a flow the constant flow step;
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
 * that cos, sin, exp, log, pow and floor are the libm calls CPython's math
 * module and float ** make: gcc would fold pow(x, 2.0) into x * x and pair
 * sin and cos into sincos.  fabs and sqrt are exact, so they are taken as
 * builtins.  Never build this with -ffast-math.
 */

#include <math.h>
#include <stdint.h>

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
    ERR_RANGE = 5      /* OverflowError: float ** overflow, floor of infinity */
};

enum { STOP_CHECKPOINT = 1, STOP_GRID = 2 };

#define RNG_BLOCK 4096             /* uniforms per block: segments._RNG_BLOCK */
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
    double sx, sy, cosh_r;
    /* the state after the last step */
    double a, b, c, d, px, py;
    double ta, tb, tc, td, tlog;
    int64_t state;
    int64_t *index;                /* dim coordinates */
    int64_t *counts;               /* per atom, or NULL */
    int64_t left_zero, first_return, n_returns, max_exc;
    int64_t fail_step;             /* the step an error code refers to */
    /* the run's stops, ascending: checkpoints and return grid points */
    const int64_t *stops;
    const int64_t *stop_kinds;     /* per stop: STOP_CHECKPOINT | STOP_GRID */
    int64_t n_stops;
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
static int fast_unwind(const walk_t *w, double m[4], double x, double y,
                       int64_t *index, int *moved)
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
static int descend(const walk_t *w, double m[4], int64_t *index,
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
static int cusp_height(const walk_t *w, double x, double y, double *out)
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

/* advances the trajectory over steps k0 + 1 .. k1, taking step k0 + 1's
 * letter from uniform j0 of the block u */
static int segment(walk_t *w, const double *u, int64_t j0, int64_t k0, int64_t k1)
{
    const int64_t dim = w->dim;
    int64_t *index = w->index;
    double m[4] = {w->a, w->b, w->c, w->d};
    double px = w->px, py = w->py;
    double ta = w->ta, tb = w->tb, tc = w->tc, td = w->td, tlog = w->tlog;
    int64_t state = w->state;
    int64_t left_zero = w->left_zero, first_return = w->first_return;
    int64_t n_returns = w->n_returns, max_exc = w->max_exc;
    int rc = OK;
    int64_t k = k0, j = j0;

    while (k < k1) {
        k++;
        /* the letter */
        int64_t ai = 0;
        double ga, gb, gc, gd;
        if (w->letters == LETTERS_PARAMETRIC) {
            const double *v = u + 3 * j;
            double th1 = v[0] * TWO_PI;
            double tau = w->tau_min + v[1] * w->tau_span;
            double th2 = v[2] * TWO_PI;
            double h1 = 0.5 * th1, h2 = 0.5 * th2;
            double c1 = cos(h1), s1 = sin(h1), c2 = cos(h2), s2 = sin(h2);
            double e = exp(0.5 * tau);
            double ei = 1.0 / e;
            ga = c1 * e * c2 - s1 * ei * s2;
            gb = -c1 * e * s2 - s1 * ei * c2;
            gc = s1 * e * c2 + c1 * ei * s2;
            gd = -s1 * e * s2 + c1 * ei * c2;
        } else {
            if (w->letters == LETTERS_ATOMS) {
                double x = u[j];
                while (ai < w->n_letters - 1 && w->cum[ai] < x)
                    ai++;
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
                double dx = px - w->sx, dy = py - w->sy;
                double scale = 2.0 * py * w->sy;
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

    w->a = m[0];
    w->b = m[1];
    w->c = m[2];
    w->d = m[3];
    w->px = px;
    w->py = py;
    w->ta = ta;
    w->tb = tb;
    w->tc = tc;
    w->td = td;
    w->tlog = tlog;
    w->state = state;
    w->left_zero = left_zero;
    w->first_return = first_return;
    w->n_returns = n_returns;
    w->max_exc = max_exc;
    w->fail_step = k;
    return rc;
}

/* The whole trajectory from the start state in w: a block of RNG_BLOCK
 * uniforms is drawn when a step needs one (a parametric block covers
 * RNG_BLOCK / 3 steps and leaves its last uniform unused; a flow draws
 * none), and at each stop the checkpoint or grid outputs are written. */
int covwalk_trajectory(walk_t *w)
{
    double u[RNG_BLOCK];
    const int64_t block_len =
        w->letters == LETTERS_PARAMETRIC ? RNG_BLOCK / 3 : RNG_BLOCK;
    int64_t k = 0, b0 = 0, bend = 0, cp = 0, grid = 0;
    w->fail_step = 0;
    for (int64_t s = 0; s < w->n_stops; s++) {
        const int64_t end = w->stops[s];
        while (k < end) {
            if (k == bend) {
                if (w->letters != LETTERS_FLOW)
                    for (int64_t j = 0; j < RNG_BLOCK; j++)
                        u[j] = next_double(w);
                b0 = k;
                bend = k + block_len;
            }
            const int64_t stop = end < bend ? end : bend;
            int rc = segment(w, u, k - b0, k, stop);
            if (rc)
                return rc;
            k = stop;
        }
        if (w->stop_kinds[s] & STOP_GRID) {
            int64_t *out = w->grid_returns + 3 * grid++;
            out[0] = w->first_return;
            out[1] = w->n_returns;
            out[2] = w->max_exc;
        }
        if (w->stop_kinds[s] & STOP_CHECKPOINT) {
            double *out = w->cp_state + 6 * cp;
            int rc = cusp_height(w, w->px, w->py, out);
            if (rc)
                return rc;
            out[1] = w->ta;
            out[2] = w->tb;
            out[3] = w->tc;
            out[4] = w->td;
            out[5] = w->tlog;
            for (int64_t i = 0; i < w->dim; i++)
                w->cp_index[w->dim * cp + i] = w->index[i];
            cp++;
        }
    }
    return OK;
}
