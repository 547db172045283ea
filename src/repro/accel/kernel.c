/*
 * The row-layered scaled min-sum layer loop nest, compiled.
 *
 * This is the paper's un-timed C decoder (Figs 5/7; the pseudo-code in
 * repro.hls.programs.decoder) run on the batch kernel's frame-minor
 * state: for each layer, for each block column, a barrel shift feeds
 * core1 (Q = P - R, running two-min, sign parity); then core2 writes R'
 * and P' = Q + R' back through the same shift.  Every edge updates its
 * z check rows times B frame lanes in lock step.
 *
 * State (all C-contiguous, frames innermost):
 *   p   (n, B)       a-posteriori LLRs, variable v of frame b at v*B + b
 *   r   (E*z + 1, B) check messages, edges numbered layer by layer:
 *                    edge e owns rows e*z .. (e+1)*z; the last row is
 *                    the per-frame keep mask (the fresh-lane row)
 *
 * The fresh-lane row is the software form of a hardware decoder's
 * first-iteration flag: a frame loaded into lane b has row entry 0
 * instead of a zeroed R column.  Core1 reads R as r & keep, so a fresh
 * lane sees R = +0.0 (int16 0), bit for bit what a zeroed column gives;
 * core2 then writes every message row, and the loop sets every entry
 * of the row to all-ones after the iteration.
 *
 * Routing tables, built once per code structure by repro.serve.batch:
 *   layer_edge[l] .. layer_edge[l+1]   the edges of layer l
 *   edges[2e]   first variable of the edge's block column (col * z)
 *   edges[2e+1] circulant shift s: check row i reads variable
 *               col*z + (i + s) % z, i.e. two contiguous runs
 *
 * A traced run passes stamps, L + 1 doubles: the monotonic clock in
 * seconds at the start and after each layer (NULL when untraced).
 *
 * ldpc_step_* run a continuous-batching engine's whole step in one call:
 * iterate, count each lane's unsatisfied checks, and retire the lanes
 * that converged or spent their budget, until a lane retires or the
 * engine's doorbell rings (see STEP below).
 *
 * Both arithmetics are bit-exact with the numpy kernel of
 * repro.serve.batch: the float path must be built without FMA
 * contraction (-ffp-contract=off) and without -ffast-math.  Write-back
 * selects are branch-free bit masks so that they vectorize.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;

#define SIGN_BIT 0x8000000000000000ULL

static inline uint64_t d2u(double x) { uint64_t u; memcpy(&u, &x, 8); return u; }
static inline double u2d(uint64_t u) { double x; memcpy(&x, &u, 8); return x; }

/* |P|, |R| <= 127 and |Q| + |R'| <= 222, so every sum and difference of
 * the 8-bit datapath fits int16 before it saturates */
static inline int16_t sat(int16_t v, int16_t lo, int16_t hi)
{
    v = v < lo ? lo : v;
    return v > hi ? hi : v;
}

static double seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Core1 over n lanes of one edge: Q = P - (R & keep) into q, then the
 * running two-min of |Q| (m1, m2) and the sign parity (par, as a
 * sign-bit mask).  The caller passes the barrel-shifted P run and the
 * keep mask of the run's lanes. */
static inline void core1_f64(const double *restrict p, const double *restrict r,
                             const uint64_t *restrict keep,
                             double *restrict q, double *restrict m1,
                             double *restrict m2, uint64_t *restrict par, i64 n,
                             double scale)
{
    (void)scale;  /* core2's argument: both cores share their trailing ones */
    for (i64 j = 0; j < n; j++) {
        const double x = p[j] - u2d(d2u(r[j]) & keep[j]), a = fabs(x);
        const double loser = m1[j] < a ? a : m1[j];
        q[j] = x;
        m2[j] = loser < m2[j] ? loser : m2[j];
        m1[j] = a < m1[j] ? a : m1[j];
        par[j] ^= x < 0 ? SIGN_BIT : 0;
    }
}

/* Core2 over n lanes of one edge: R' = scale * (min2 at the argmin, min1
 * elsewhere), signed copysign(., Q) times the check parity; P' = Q + R'. */
static inline void core2_f64(double *restrict p, double *restrict r,
                             const double *restrict q,
                             const double *restrict m1,
                             const double *restrict m2,
                             const uint64_t *restrict par, i64 n, double scale)
{
    for (i64 j = 0; j < n; j++) {
        const uint64_t qb = d2u(q[j]);
        const uint64_t is_min = 0 - (uint64_t)(u2d(qb & ~SIGN_BIT) == m1[j]);
        const uint64_t sel = (d2u(scale * m2[j]) & is_min)
                           | (d2u(scale * m1[j]) & ~is_min);
        const double rv = u2d((sel | (qb & SIGN_BIT)) ^ par[j]);
        r[j] = rv;
        p[j] = q[j] + rv;
    }
}

/* Core1 in 8-bit fixed point on int16 lanes: Q saturates to [lo, hi]. */
static inline void core1_i16(const int16_t *restrict p,
                             const int16_t *restrict r,
                             const int16_t *restrict keep, int16_t *restrict q,
                             int16_t *restrict m1, int16_t *restrict m2,
                             int16_t *restrict par, i64 n,
                             int16_t lo, int16_t hi)
{
    for (i64 j = 0; j < n; j++) {
        const int16_t x = sat((int16_t)(p[j] - (r[j] & keep[j])), lo, hi);
        const int16_t a = (int16_t)(x < 0 ? -x : x);
        const int16_t loser = m1[j] < a ? a : m1[j];
        q[j] = x;
        m2[j] = loser < m2[j] ? loser : m2[j];
        m1[j] = a < m1[j] ? a : m1[j];
        par[j] ^= x < 0;
    }
}

/* Core2 in fixed point: the 0.75 scale is the shift-add (3m) >> 2, the
 * sign is the check parity times the edge's own sign, P' saturates. */
static inline void core2_i16(int16_t *restrict p, int16_t *restrict r,
                             const int16_t *restrict q,
                             const int16_t *restrict m1,
                             const int16_t *restrict m2,
                             const int16_t *restrict par, i64 n,
                             int16_t lo, int16_t hi)
{
    for (i64 j = 0; j < n; j++) {
        const int16_t x = q[j], mag = (int16_t)(x < 0 ? -x : x);
        const int16_t m = mag == m1[j] ? m2[j] : m1[j];
        const int16_t s = (int16_t)((3 * m) >> 2);
        const int16_t flip = (int16_t)(0 - ((x < 0) ^ par[j]));
        const int16_t rv = (int16_t)((s ^ flip) - flip);
        r[j] = rv;
        p[j] = sat((int16_t)(x + rv), lo, hi);
    }
}

/* Lanes per tile of the layer loop: TILE_BYTES of lane values rounded
 * down to a multiple of B (64 float lanes, 256 int16 lanes), grown to B
 * when B is larger, and at most the z * B lanes of an edge.  A tile of
 * a degree-d layer keeps its P and R runs, Q, minima, parity and keep
 * mask near L1: 256 float lanes of a degree-7 layer need about 48 KB,
 * a whole 48 KB L1d.  A tile is a whole number of rows, so each run of it
 * starts at frame 0 and the keep mask repeats every B lanes. */
#define TILE_BYTES 512

static inline i64 tile_lanes(i64 zb, i64 B, i64 size)
{
    const i64 per = TILE_BYTES / size;
    const i64 lanes = B >= per ? B : B > 0 ? per - per % B : per;
    return zb < lanes ? zb : lanes;
}

/* The layer loop nest.  Per layer: core1 over every edge (block
 * column), then core2 over every edge.  Lanes j = row * B + frame run
 * in tiles of tile_lanes.  In each tile an edge's barrel shift is two
 * contiguous runs: lanes j < head read P lane zb - head + j of the
 * block column, the rest read lane j - head.  CORE1/CORE2 are the
 * per-type cores above; BIG is the two-min identity; the variadic
 * arguments are the cores' trailing arguments.  Scratch holds, in
 * tiles: m1, m2, par, the keep mask spread over the tile, then one Q
 * run per edge of the layer. */
#define LAYER_LOOP(T, PAR_T, BIG, CORE1, CORE2, ...)                         \
    const i64 zb = (i64)z * B, tile = tile_lanes(zb, B, sizeof(T));          \
    T *m1 = scratch, *m2 = scratch + tile, *q = scratch + 4 * tile;          \
    PAR_T *par = (PAR_T *)(scratch + 2 * tile);                              \
    PAR_T *keep = (PAR_T *)(scratch + 3 * tile);                             \
    PAR_T *fresh = (PAR_T *)(r + (i64)layer_edge[L] * zb);                   \
    for (i64 j = 0; j < tile; j++)                                           \
        keep[j] = fresh[j % B];                                              \
    if (stamps)                                                              \
        stamps[0] = seconds();                                               \
    for (int32_t l = 0; l < L; l++) {                                        \
        const int32_t e0 = layer_edge[l], deg = layer_edge[l + 1] - e0;      \
        for (i64 t0 = 0; t0 < zb; t0 += tile) {                              \
            const i64 t1 = t0 + tile < zb ? t0 + tile : zb;                  \
            for (i64 j = 0; j < t1 - t0; j++) {                              \
                m1[j] = m2[j] = BIG;                                         \
                par[j] = 0;                                                  \
            }                                                                \
            for (int32_t d = 0; d < deg; d++) {                              \
                const int32_t *ed = edges + 2 * (e0 + d);                    \
                const i64 head = (i64)(z - ed[1]) * B;                       \
                const i64 mid = head < t0 ? t0 : head > t1 ? t1 : head;      \
                const T *src = p + (i64)ed[0] * B, *rd = r + (e0 + d) * zb;  \
                T *qd = q + d * tile;                                        \
                if (mid > t0)                                                \
                    CORE1(src + zb - head + t0, rd + t0, keep, qd, m1, m2,   \
                          par, mid - t0, __VA_ARGS__);                       \
                if (t1 > mid)                                                \
                    CORE1(src + mid - head, rd + mid, keep + (mid - t0),     \
                          qd + (mid - t0), m1 + (mid - t0),                  \
                          m2 + (mid - t0), par + (mid - t0), t1 - mid,       \
                          __VA_ARGS__);                                      \
            }                                                                \
            if (deg == 1)                                                    \
                memcpy(m2, m1, (size_t)(t1 - t0) * sizeof(T));               \
            for (int32_t d = 0; d < deg; d++) {                              \
                const int32_t *ed = edges + 2 * (e0 + d);                    \
                const i64 head = (i64)(z - ed[1]) * B;                       \
                const i64 mid = head < t0 ? t0 : head > t1 ? t1 : head;      \
                T *dst = p + (i64)ed[0] * B, *rd = r + (e0 + d) * zb;        \
                const T *qd = q + d * tile;                                  \
                if (mid > t0)                                                \
                    CORE2(dst + zb - head + t0, rd + t0, qd, m1, m2, par,    \
                          mid - t0, __VA_ARGS__);                            \
                if (t1 > mid)                                                \
                    CORE2(dst + mid - head, rd + mid, qd + (mid - t0),       \
                          m1 + (mid - t0), m2 + (mid - t0),                  \
                          par + (mid - t0), t1 - mid, __VA_ARGS__);          \
            }                                                                \
        }                                                                    \
        if (stamps)                                                          \
            stamps[l + 1] = seconds();                                       \
    }                                                                        \
    for (i64 b = 0; b < B; b++)                                              \
        fresh[b] = (PAR_T)~(PAR_T)0;

/* One iteration over layers [0, L) in float64.  scratch holds at least
 * (4 + max_degree) * tile_lanes(z * B, B, 8) doubles; (4 + max_degree) *
 * z * B always suffices. */
void ldpc_iterate_f64(const int32_t *layer_edge, const int32_t *edges,
                      int32_t L, int32_t z, i64 B,
                      double *p, double *r, double *scratch, double scale,
                      double *stamps)
{
    LAYER_LOOP(double, uint64_t, INFINITY, core1_f64, core2_f64, scale)
}

/* One iteration over layers [0, L) in 8-bit fixed point on int16
 * state, saturating to [lo, hi].  scratch holds at least (4 +
 * max_degree) * tile_lanes(z * B, B, 2) int16 values. */
void ldpc_iterate_i16(const int32_t *layer_edge, const int32_t *edges,
                      int32_t L, int32_t z, i64 B,
                      int16_t *p, int16_t *r, int16_t *scratch,
                      int16_t lo, int16_t hi, double *stamps)
{
    LAYER_LOOP(int16_t, int16_t, INT16_MAX, core1_i16, core2_i16, lo, hi)
}

/* Unsatisfied-check count per frame: the XOR of each check's hard
 * decisions (value < 0), summed over every check of layers [0, L).
 * scratch holds z * B values of T; weights receives B counts. */
#define SYNDROME(NAME, T, PAR_T)                                            \
void NAME(const int32_t *layer_edge, const int32_t *edges, int32_t L,      \
          int32_t z, i64 B, const T *p, void *scratch, int64_t *weights)    \
{                                                                           \
    const i64 zb = (i64)z * B;                                              \
    PAR_T *restrict par = (PAR_T *)scratch;                                 \
    for (i64 b = 0; b < B; b++)                                             \
        weights[b] = 0;                                                     \
    for (int32_t l = 0; l < L; l++) {                                       \
        for (i64 j = 0; j < zb; j++)                                        \
            par[j] = 0;                                                     \
        for (int32_t e = layer_edge[l]; e < layer_edge[l + 1]; e++) {       \
            const int32_t *ed = edges + 2 * e;                              \
            const i64 head = (i64)(z - ed[1]) * B;                          \
            const T *restrict src = p + (i64)ed[0] * B;                     \
            for (i64 j = 0; j < head; j++)                                  \
                par[j] ^= (PAR_T)(src[zb - head + j] < 0);                  \
            for (i64 j = head; j < zb; j++)                                 \
                par[j] ^= (PAR_T)(src[j - head] < 0);                       \
        }                                                                   \
        for (int32_t i = 0; i < z; i++)                                     \
            for (i64 b = 0; b < B; b++)                                     \
                weights[b] += (int64_t)par[(i64)i * B + b];                 \
    }                                                                       \
}

SYNDROME(ldpc_syndrome_f64, double, uint64_t)
SYNDROME(ldpc_syndrome_i16, int16_t, uint16_t)

/* The engine step.  Per-lane state, owned by the caller, lanes [0, B):
 *   iters[b]    iterations the frame in lane b has run
 *   budgets[b]  its iteration budget, 0 for a free lane; a retiring lane
 *               gets 0
 *   trail       (B', max_iter) unsatisfied-check counts, B' >= B: lane
 *               b's iteration i at b * max_iter + i
 *   retired     out: the count n, then the n lanes that retired, in
 *               lane order
 *   weights     B counts of scratch
 *   doorbell    NULL, or a flag another thread sets when it queues work:
 *               read between iterations, it ends the call early
 * Every busy lane needs 0 <= iters[b] < max_iter.  One call iterates all
 * lanes, counts, appends and retires, and repeats until at least one
 * lane retired or the doorbell is set; a lane retires by its budget or
 * by max_iter, so a call runs at most max_iter iterations.  Returns the
 * iterations run, 0 with no busy lane, -1 (nothing run) on a lane that
 * breaks the bound.  Traced, stamps holds max_iter * L + 1 doubles: the
 * clock at the start and after every layer of every iteration, a
 * layer's end being the next one's start; each iteration's last layer
 * ends after its parity check. */
static i64 lanes_busy(i64 B, const int64_t *iters, const int64_t *budgets,
                      int32_t max_iter, int64_t *retired)
{
    i64 busy = 0;
    retired[0] = 0;
    for (i64 b = 0; b < B; b++) {
        if (budgets[b] <= 0)
            continue;
        if (iters[b] < 0 || iters[b] >= max_iter)
            return -1;
        busy++;
    }
    return busy;
}

/* One iteration's lane bookkeeping: append each busy lane's count to its
 * trail and retire it on a zero count or a spent budget.  Returns the
 * number of lanes retired. */
static i64 lanes_retire(i64 B, const int64_t *weights, int64_t *iters,
                        int64_t *budgets, int64_t *trail, int32_t max_iter,
                        int64_t *retired)
{
    i64 n = 0;
    for (i64 b = 0; b < B; b++) {
        if (budgets[b] <= 0)
            continue;
        const int64_t it = iters[b]++;
        trail[b * max_iter + it] = weights[b];
        if (weights[b] == 0 || it + 1 >= budgets[b] || it + 1 >= max_iter) {
            budgets[b] = 0;
            retired[++n] = b;
        }
    }
    retired[0] = n;
    return n;
}

#define STEP(ITERATE, SYNDROME, ...)                                         \
    const i64 busy = lanes_busy(B, iters, budgets, max_iter, retired);       \
    if (busy <= 0)                                                           \
        return busy;                                                         \
    i64 k = 0;                                                               \
    do {                                                                     \
        ITERATE(layer_edge, edges, L, z, B, p, r, scratch, __VA_ARGS__,      \
                stamps ? stamps + k * L : NULL);                             \
        SYNDROME(layer_edge, edges, L, z, B, p, scratch, weights);           \
        k++;                                                                 \
    } while (!lanes_retire(B, weights, iters, budgets, trail, max_iter,      \
                           retired)                                          \
             && !(doorbell && *doorbell));                                   \
    if (stamps)                                                              \
        stamps[k * L] = seconds();                                           \
    return k;

i64 ldpc_step_f64(const int32_t *layer_edge, const int32_t *edges,
                  int32_t L, int32_t z, i64 B,
                  double *p, double *r, double *scratch, double scale,
                  double *stamps, int64_t *weights, int64_t *iters,
                  int64_t *budgets, int64_t *trail, int32_t max_iter,
                  int64_t *retired, const volatile int32_t *doorbell)
{
    STEP(ldpc_iterate_f64, ldpc_syndrome_f64, scale)
}

i64 ldpc_step_i16(const int32_t *layer_edge, const int32_t *edges,
                  int32_t L, int32_t z, i64 B,
                  int16_t *p, int16_t *r, int16_t *scratch,
                  int16_t lo, int16_t hi,
                  double *stamps, int64_t *weights, int64_t *iters,
                  int64_t *budgets, int64_t *trail, int32_t max_iter,
                  int64_t *retired, const volatile int32_t *doorbell)
{
    STEP(ldpc_iterate_i16, ldpc_syndrome_i16, lo, hi)
}
