/* Compiled kernels (optional fast path): LLC replay, the private-level
 * front-end and trace generation.
 *
 * Each k_<policy> replay kernel must be bit-identical to the policy
 * class of the same name under the generic engine (repro.policies,
 * repro.popt) — same probe order, same victim tie-breaks, same
 * dirty/writeback bookkeeping. Those classes are the executable
 * specification; the equivalence suite compares compiled vs generic vs
 * reference. The front-end helpers (k_private_filter, k_next_use)
 * match their numpy/Python constructions in repro.sim.engine and
 * repro.sim.kernels the same way, and the trace builder (k_traversal)
 * matches repro.apps.base.traversal_trace byte for byte.
 *
 * Built on demand by repro.sim.ckernels via the system C compiler and
 * loaded with ctypes; when no compiler is available every policy
 * replays through the generic engine instead. No Python API is used
 * here: every argument is a plain C array (int64 lines/counts, int32
 * outer-loop vertices and T-OPT references, uint8 write flags and fill
 * outcomes, uint16 Rereference Matrix entries) or scalar. The loader
 * derives each kernel's ctypes signature from the `void k_*(...)`
 * definitions below, so parameters must be spelled `[const]
 * i64|i32|u8|u16|double [*] name`; anything else refuses to load.
 *
 * Shared numeric constants (TOPT_NEVER, the POPT_SP_* and TRAV_*
 * parameter-block slots, the RM_VARIANT_* codes, the SHiP/Hawkeye bounds, the
 * *_WAY_WORDS workspace widths) are not defined in this file: the
 * loader passes every repro.sim.constants.C_DEFINES entry as a -D
 * flag, so the bit layouts have one definition, on the Python side.
 *
 * Determinism discipline, enforced by how the file is built and
 * loaded: no heap allocation or other external calls (the object is
 * freestanding and linked with -nostdlib -Wl,-z,defs, so any call this
 * file does not define fails the link), and no mutable state, at file
 * or function scope (the loader refuses a .so with a writable section
 * such as .data or .bss). Every exported function's scratch is carved
 * from a caller-provided int64 workspace `ws` of `ws_len` words and
 * fully initialized here. A workspace shorter than the carve needs is
 * refused before anything is written to it: the function returns at
 * once with minus the words it needs in the first word of its output
 * array (out[0], or next_use[0]). k_traversal carves no workspace; it
 * applies the same rule to the trace channels it writes.
 *
 * Randomness: BRRIP/DRRIP/P-OPT consume `random.Random` draws in fill
 * order, and only ever test `draw < trickle`. Reproducing the Mersenne
 * Twister here would couple this file to CPython internals, so the
 * caller passes that test's outcome instead: one u8 per LLC-visible
 * access (an upper bound on fills), 1 where the draw falls under the
 * trickle probability, generated with the *same* RNG the reference
 * policy owns and memoized per private filter and seed. Consumption
 * order matches the reference's lazy draws exactly.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;
typedef uint16_t u16;
typedef int32_t i32;

#define INLINE static inline __attribute__((always_inline))

/* Residency probe: a set's ways hold distinct lines, so "first way
 * whose tag matches" answers exactly what the reference cache's
 * tags.index(line) answers. */
#define PROBE(way, resident, filled, line)                                   \
    do {                                                                     \
        i64 _w;                                                              \
        (way) = -1;                                                          \
        for (_w = 0; _w < (filled); _w++)                                    \
            if ((resident)[_w] == (line)) { (way) = _w; break; }             \
    } while (0)

/* 1 when a workspace of ws_len words holds `needed`; else 0, with the
 * shortfall reported as out[0] = -needed. */
INLINE i64 ws_fits(i64 ws_len, i64 needed, i64 *out)
{
    if (ws_len >= needed) return 1;
    out[0] = -needed;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The LLC model every replay kernel shares.                          */
/* ------------------------------------------------------------------ */

/* The mechanics of SetAssociativeCache.access and _fill, written once:
 * probe, fill the lowest invalid way or evict the policy's victim, and
 * count hits, misses, evictions and writebacks. A kernel adds only its
 * victim choice and what a hit, an eviction and a fill update. Every
 * kernel walks the LLC-visible stream in access order (sidx[k] is
 * access k's set), which the policies with cross-set state (a global
 * fill RNG, DRRIP's PSEL, a predictor table) need; the others give the
 * same result in any interleaving of their sets.
 *
 * Workspace layout of every LLC replay kernel (total = num_sets * ways):
 *
 *   resident | dirty | field 0 .. field F-1 | filled | tail
 *
 * resident, dirty and the policy's F fields are total words each, set
 * s's ways at s * ways (structure of arrays: a probe touches only the
 * resident lines, contiguous across sets). The kernel's <NAME>_WAY_WORDS
 * is 2 + F; the Python wrapper sizes ws from the same constant. filled
 * holds the per-set fill counts: a set fills its lowest invalid way and
 * never invalidates one, so its invalid ways are filled..ways-1. The
 * tail is the kernel's own state outside the (set, way) grid. */
struct cache {
    i64 *resident, *dirty, *filled, *tail;
    i64 ways, total;
    /* A local the always-inline helpers update, so the compiler
     * replaces these by plain locals: no out[] round trip per access. */
    i64 hits, misses, evictions, writebacks;
};

/* Carve the layout above from ws and reset it: every line invalid and
 * clean, every set empty, every field word and counter 0. Returns 0,
 * having written nothing to ws, when ws_len words do not hold it. */
INLINE i64 cache_carve(struct cache *c, i64 *ws, i64 ws_len, i64 num_sets,
                       i64 ways, i64 way_words, i64 tail, i64 *out)
{
    i64 total = num_sets * ways;
    i64 front = way_words * total + num_sets, k;
    if (!ws_fits(ws_len, front + tail, out)) return 0;
    for (k = 0; k < front; k++) ws[k] = k < total ? -1 : 0;
    c->resident = ws;
    c->dirty = ws + total;
    c->filled = ws + way_words * total;
    c->tail = c->filled + num_sets;
    c->ways = ways;
    c->total = total;
    c->hits = c->misses = c->evictions = c->writebacks = 0;
    return 1;
}

/* The policy's (set, way) field f, every word set to `init`. */
INLINE i64 *cache_field(const struct cache *c, i64 f, i64 init)
{
    i64 *field = c->resident + (2 + f) * c->total, k;
    for (k = 0; k < c->total; k++) field[k] = init;
    return field;
}

/* Look `line` up in set s: on a hit, count it, dirty the way on a write
 * and return the way; on a miss, count it and return -1. */
INLINE i64 cache_probe(struct cache *c, i64 s, i64 line, i64 write)
{
    i64 base = s * c->ways, way;
    PROBE(way, c->resident + base, c->filled[s], line);
    if (way >= 0) {
        c->hits++;
        if (write) c->dirty[base + way] = 1;
    } else {
        c->misses++;
    }
    return way;
}

/* Set s's lowest invalid way, now taken, or -1 when the set is full. */
INLINE i64 cache_free_way(const struct cache *c, i64 s)
{
    return c->filled[s] < c->ways ? c->filled[s]++ : -1;
}

/* Evict set s's `way`: count the eviction, and a writeback when the
 * victim is dirty. Returns `way`. */
INLINE i64 cache_evict(struct cache *c, i64 s, i64 way)
{
    c->evictions++;
    if (c->dirty[s * c->ways + way]) c->writebacks++;
    return way;
}

/* Install `line` in set s's `way`, dirty when the filling access is a
 * write. */
INLINE void cache_fill(const struct cache *c, i64 s, i64 way, i64 line,
                       i64 write)
{
    c->resident[s * c->ways + way] = line;
    c->dirty[s * c->ways + way] = write;
}

/* out[0..3] += hits, misses, evictions, writebacks */
INLINE void cache_out(const struct cache *c, i64 *out)
{
    out[0] += c->hits;
    out[1] += c->misses;
    out[2] += c->evictions;
    out[3] += c->writebacks;
}

/* ------------------------------------------------------------------ */
/* LLC replay kernels: each states its victim choice and its hit,     */
/* eviction and fill updates.                                         */
/* ------------------------------------------------------------------ */

/* Index of the first minimum of stamps[0..ways): one pass of selects
 * (no data-dependent branch), keeping the earliest way on a tie. */
static i64 first_min(const i64 *stamps, i64 ways)
{
    i64 lo = stamps[0], way = 0, w;
    for (w = 1; w < ways; w++) {
        i64 sw = stamps[w];
        i64 lt = sw < lo;
        lo = lt ? sw : lo;
        way = lt ? w : way;
    }
    return way;
}

/* LRU, and LIP when `lip` is set. The reference's global clock is only
 * ever compared within a set, so the access index serves as the clock:
 * a hit (and an LRU fill) stamps a fresh maximum of its set. A LIP fill
 * inserts at the LRU point instead, one below the set's current
 * minimum, computed over the victim's stale stamp (reference order). */
void k_lru(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
           i64 num_sets, i64 ways, i64 lip, i64 *ws, i64 ws_len, i64 *out)
{
    struct cache c;
    i64 *stamps, k;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, LRU_WAY_WORDS, 0, out))
        return;
    stamps = cache_field(&c, 0, 0);
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *stamp_s = stamps + s * ways;
        if (way >= 0) {
            stamp_s[way] = k + 1;
            continue;
        }
        way = cache_free_way(&c, s);
        if (way < 0) way = cache_evict(&c, s, first_min(stamp_s, ways));
        cache_fill(&c, s, way, lines[k], writes[k]);
        stamp_s[way] = lip ? stamp_s[first_min(stamp_s, ways)] - 1 : k + 1;
    }
    cache_out(&c, out);
}

/* Bit-PLRU: evict the lowest way whose MRU bit is clear (way 0 in the
 * 1-way case); every touch sets the way's bit, and a touch that would
 * set the last one clears the others. */
void k_bit_plru(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
                i64 num_sets, i64 ways, i64 *ws, i64 ws_len, i64 *out)
{
    struct cache c;
    i64 *mru, k, w;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, BIT_PLRU_WAY_WORDS, 0,
                     out))
        return;
    mru = cache_field(&c, 0, 0);
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *mru_s = mru + s * ways, nset = 0;
        if (way < 0) {
            way = cache_free_way(&c, s);
            if (way < 0) {
                way = 0;
                for (w = 0; w < ways; w++)
                    if (!mru_s[w]) { way = w; break; }
                cache_evict(&c, s, way);
            }
            cache_fill(&c, s, way, lines[k], writes[k]);
        }
        mru_s[way] = 1;
        for (w = 0; w < ways; w++) nset += mru_s[w];
        if (nset == ways) {
            for (w = 0; w < ways; w++) mru_s[w] = 0;
            mru_s[way] = 1;
        }
    }
    cache_out(&c, out);
}

/* Belady's MIN: evict the first way whose line is next used farthest
 * away. next_use[k] is the compact (LLC-visible-stream) position of the
 * next access to lines[k]'s line, n when there is none. */
void k_opt(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
           i64 num_sets, i64 ways, const i64 *next_use, i64 *ws, i64 ws_len,
           i64 *out)
{
    struct cache c;
    i64 *line_next, k, w;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, OPT_WAY_WORDS, 0, out))
        return;
    line_next = cache_field(&c, 0, 0);
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *next_s = line_next + s * ways;
        if (way < 0) {
            way = cache_free_way(&c, s);
            if (way < 0) {
                i64 far = next_s[0];
                way = 0;
                for (w = 1; w < ways; w++)
                    if (next_s[w] > far) { far = next_s[w]; way = w; }
                cache_evict(&c, s, way);
            }
            cache_fill(&c, s, way, lines[k], writes[k]);
        }
        next_s[way] = next_use[k];
    }
    cache_out(&c, out);
}

/* RRIP victim: age every way by rmax - top so the oldest reaches rmax,
 * and evict the first way at rmax. After ageing, the ways at rmax are
 * exactly those that held the maximum RRPV `top`, so one select pass
 * finds the victim and the ageing pass follows it. */
static i64 rrip_victim(i64 *rrpv, i64 ways, i64 rmax)
{
    i64 top = rrpv[0], way = 0, w;
    for (w = 1; w < ways; w++) {
        i64 r = rrpv[w];
        i64 gt = r > top;
        top = gt ? r : top;
        way = gt ? w : way;
    }
    if (top != rmax)
        for (w = 0; w < ways; w++) rrpv[w] += rmax - top;
    return way;
}

/* A DRRIP fill's insertion RRPV, in the reference's _miss_feedback ->
 * role -> insertion order: a leader set votes PSEL first, then its
 * fixed role (1 = SRRIP, 2 = BRRIP) decides its own insertion, while a
 * follower (role 0) reads the updated PSEL. A BRRIP insertion consumes
 * the next fill outcome. k_drrip and P-OPT's tie-break both fill
 * through this one sequence. */
INLINE i64 drrip_fill(i64 role, i64 *psel, i64 psel_max, i64 rmax,
                      const u8 *trickled, i64 *dc)
{
    i64 use_brrip;
    if (role == 1) {
        if (*psel < psel_max) ++*psel;
        use_brrip = 0;
    } else if (role == 2) {
        if (*psel > 0) --*psel;
        use_brrip = 1;
    } else {
        use_brrip = *psel > psel_max / 2;
    }
    if (!use_brrip) return rmax - 1;
    return trickled[(*dc)++] ? rmax - 1 : rmax;
}

/* DRRIP set dueling over SRRIP and BRRIP; leader[s] is set s's role.
 * SRRIP is the case where every set is an SRRIP leader and BRRIP the
 * case where every set is a BRRIP leader, so one kernel replays all
 * three. */
void k_drrip(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
             i64 num_sets, i64 ways, i64 rmax, i64 psel, i64 psel_max,
             const i64 *leader, const u8 *trickled, i64 *ws, i64 ws_len,
             i64 *out)
{
    struct cache c;
    i64 *rrpv, k, dc = 0;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, DRRIP_WAY_WORDS, 0,
                     out))
        return;
    rrpv = cache_field(&c, 0, rmax);
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *rrpv_s = rrpv + s * ways;
        if (way >= 0) {
            rrpv_s[way] = 0;
            continue;
        }
        way = cache_free_way(&c, s);
        if (way < 0) way = cache_evict(&c, s, rrip_victim(rrpv_s, ways, rmax));
        cache_fill(&c, s, way, lines[k], writes[k]);
        rrpv_s[way] = drrip_fill(leader[s], &psel, psel_max, rmax, trickled,
                                 &dc);
    }
    cache_out(&c, out);
}

/* Next-ref kernels: the paper's own policies (T-OPT and P-OPT). Both
 * resolve a filled line's annotation when it is filled, from the
 * access's stream membership: sid[k] is the irregular stream holding
 * lines[k] (-1 for streaming data) and off[k] the line's offset in that
 * stream. Counters beyond the hit/miss quartet go into a separate cnt[]
 * array so the Python wrapper can write them back onto the policy
 * instance. */

/* The first index in [lo, hi) whose a[] is >= key (hi if none), the
 * index bisect_left gives. Branch-free halving: the answer stays in
 * [base, base + len], each step keeps the upper part when the last
 * element of the lower half is < key, and one compare resolves the
 * last element. The loop runs the same number of steps for every key
 * of a slice, and the select compiles to a conditional move, so no
 * branch depends on the data. An empty slice never reads a[lo]. */
static i64 lower_bound(const i32 *a, i64 lo, i64 hi, i64 key)
{
    const i32 *base = a + lo;
    i64 len = hi - lo;
    if (len == 0) return lo;
    while (len > 1) {
        i64 half = len / 2;
        base = base[half - 1] < key ? base + half : base;
        len -= half;
    }
    return (base - a) + (*base < key);
}

/* T-OPT's (set, way) fields. */
enum { TOPT_LO, TOPT_HI, TOPT_MLOW, TOPT_MREF, TOPT_MCOST };

/* cnt[0..1] += replacements, transpose_walk_elements
 *
 * T-OPT keeps no cross-set state and both counters are sums over
 * evictions, so the access-order walk gives exactly what a replay set
 * by set gives. A fill of stream t's line at offset o takes the refs
 * slice [offsets[obase[t] + o], offsets[obase[t] + o + 1]) of the flat
 * CSR (obase[t] is stream t's first slot in `offsets`); a streaming
 * line gets lo = -1.
 *
 * A victim scan resolves each way's next reference with lower_bound,
 * the branch-free search above. It returns the reference's bisect_left
 * index, so the next-ref and the walk cost match TOPT._next_ref.
 *
 * Each way memoizes its last lower_bound: the vertex interval
 * (refs[idx-1], refs[idx]] it answered for (open below at -1 when idx
 * is the slice start, closed above at TOPT_NEVER when idx is past its
 * end), that answer's next-ref and that search's walk cost. Any vertex
 * inside the interval has the same lower_bound, so the memo returns
 * exactly what a fresh search would, walk cost included. A fill clears
 * it (an empty interval). */
void k_topt(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
            i64 num_sets, i64 ways, const i32 *vertices, const i64 *sid,
            const i64 *off, const i64 *obase, const i64 *offsets,
            const i32 *refs, i64 *ws, i64 ws_len, i64 *out, i64 *cnt)
{
    const i64 never = TOPT_NEVER;
    struct cache c;
    i64 repl = 0, walk = 0, k, w;
    i64 *lo, *hi, *mlow, *mref, *mcost;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, TOPT_WAY_WORDS, 0, out))
        return;
    lo = cache_field(&c, TOPT_LO, 0);
    hi = cache_field(&c, TOPT_HI, 0);
    mlow = cache_field(&c, TOPT_MLOW, never);  /* memo interval */
    mref = cache_field(&c, TOPT_MREF, -1);     /* (mlow, mref] */
    mcost = cache_field(&c, TOPT_MCOST, 0);
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], base = s * ways, stream;
        i64 way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *wlo = lo + base, *whi = hi + base;
        i64 *ml = mlow + base, *mr = mref + base, *mc = mcost + base;
        if (way >= 0) continue;
        way = cache_free_way(&c, s);
        if (way < 0) {
            i64 vertex = vertices[k];
            i64 victim = -1, best_way = 0, best = -1;
            repl++;
            for (w = 0; w < ways; w++) {
                i64 l = wlo[w], h, idx, stepped, r;
                if (l < 0) { victim = w; break; } /* streaming */
                if (ml[w] < vertex && vertex <= mr[w]) {
                    walk += mc[w];
                    r = mr[w];
                } else {
                    h = whi[w];
                    idx = lower_bound(refs, l, h, vertex);
                    stepped = idx - l;
                    r = idx >= h ? never : refs[idx];
                    ml[w] = idx > l ? refs[idx - 1] : -1;
                    mr[w] = r;
                    mc[w] = stepped > 1 ? stepped : 1;
                    walk += mc[w];
                }
                if (r > best) { best = r; best_way = w; }
            }
            way = cache_evict(&c, s, victim >= 0 ? victim : best_way);
        }
        cache_fill(&c, s, way, lines[k], writes[k]);
        stream = sid[k];
        if (stream >= 0) {
            i64 at = obase[stream] + off[k];
            wlo[way] = offsets[at];
            whi[way] = offsets[at + 1];
        } else {
            wlo[way] = -1;
            whi[way] = -1;
        }
        ml[way] = never;
        mr[way] = -1;
    }
    cache_out(&c, out);
    cnt[0] += repl; cnt[1] += walk;
}

/* P-OPT keeps, per stream, one POPT_DECODE_SLOTS-word block of its
 * tail laid out as below: the stream's Algorithm 2 parameters, hoisted
 * out of its POPT_SP_* block once per call, then the decode of the
 * current victim scan's vertex (refreshed once per stream and scan, so
 * no division happens per way). */
enum {
    PD_MSB, PD_LOW, PD_NBIT,
    PD_COLUMN,    /* entries offset of the scan epoch's column */
    PD_NEXT,      /* offset from it to the next column, 0 if none */
    PD_SUB,       /* sub-epoch of the scan's vertex */
    PD_PAST_END,  /* the vertex lies past the matrix's last epoch */
    PD_LAST,      /* the scan epoch is the matrix's last */
    PD_WORDS
};
typedef char popt_decode_fits[PD_WORDS <= POPT_DECODE_SLOTS ? 1 : -1];

/* Algorithm 2 for the line whose entry in the stream's first column is
 * entries[row], decoded against block d. The stream's entries are
 * epoch-major (column e at e * stride), so the scan epoch's entry is
 * entries[row + d[PD_COLUMN]]. `variant` is a compile-time constant at
 * every call, so each variant compiles to its own decode: inter_only
 * is one load; inter_intra and single_epoch compute every candidate
 * result and pick one with all-ones/zero masks, so no branch depends
 * on the entries' values (a plain ?: here compiles to branches, which
 * mispredict on these data). inter_intra always loads the next
 * column's entry; PD_NEXT = 0 points that load back at the current
 * column when there is no next one. A vertex past the last epoch gets
 * the sentinel; its PD_COLUMN is 0, so the loads stay inside the
 * matrix. */
INLINE i64 popt_next_ref(const i64 *d, const u16 *entries, i64 row,
                         i64 variant)
{
    const u16 *at = entries + row + d[PD_COLUMN];
    i64 msb = d[PD_MSB], low = d[PD_LOW];
    i64 past = -d[PD_PAST_END];      /* all ones past the last epoch */
    i64 current = at[0], last_sub, inter, passed, after, r;
    if (variant == RM_VARIANT_INTER_ONLY)
        return (low & past) | (current & ~past);
    last_sub = current & low;
    inter = -(i64)((current & msb) != 0);
    passed = -(i64)(d[PD_SUB] > last_sub);
    if (variant == RM_VARIANT_SINGLE_EPOCH) {
        after = 2 - (i64)((current & d[PD_NBIT]) != 0);
    } else {
        i64 next = at[d[PD_NEXT]];
        i64 far = -(i64)((next & msb) != 0);
        i64 last = -d[PD_LAST];
        after = (low & last) | ((1 + (next & low & far)) & ~last);
    }
    r = (last_sub & inter) | (after & passed & ~inter);
    return (low & past) | (r & ~past);
}

/* P-OPT's (set, way) fields; its tail is one scan's per-way next-refs,
 * then the per-stream decode blocks. */
enum { POPT_RRPV, POPT_SID, POPT_ROW };

/* The whole P-OPT replay for one Rereference Matrix variant; k_popt
 * calls it with a constant `variant`, so the scan is compiled once per
 * variant. */
INLINE void popt_replay(const i64 *lines, const u8 *writes, const i64 *sidx,
                        i64 n, i64 num_sets, i64 ways, const i32 *vertices,
                        const i64 *sid, const i64 *off, const i64 *bases,
                        i64 num_streams, const i64 *sparams,
                        const u16 *entries, i64 prefer_streaming,
                        i64 drrip_ties, i64 rmax, i64 psel_max,
                        const i64 *leader, const u8 *trickled, i64 *ws,
                        i64 ws_len, i64 *out, i64 *cnt, i64 variant)
{
    struct cache c;
    i64 repl = 0, sevic = 0, rml = 0, ties = 0, tiec = 0;
    i64 psel = psel_max / 2;
    i64 *rrpvs, *sids, *rows, *wref, *decode;
    i64 k, w, tt, dc = 0;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, POPT_WAY_WORDS,
                     ways + POPT_DECODE_SLOTS * num_streams, out))
        return;
    rrpvs = cache_field(&c, POPT_RRPV, rmax);
    sids = cache_field(&c, POPT_SID, -1);
    rows = cache_field(&c, POPT_ROW, -1);
    wref = c.tail;
    decode = wref + ways;
    for (tt = 0; tt < num_streams; tt++) {
        const i64 *sp = sparams + POPT_SPARAM_SLOTS * tt;
        i64 *d = decode + POPT_DECODE_SLOTS * tt;
        d[PD_MSB] = sp[POPT_SP_MSB];
        d[PD_LOW] = sp[POPT_SP_LOW_MASK];
        d[PD_NBIT] = sp[POPT_SP_NEXT_BIT];
    }
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], base = s * ways, stream;
        i64 way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *rrpv = rrpvs + base, *wsid = sids + base, *wrow = rows + base;
        if (way >= 0) {
            rrpv[way] = 0;
            continue;
        }
        way = cache_free_way(&c, s);
        if (way < 0) {
            i64 vertex = vertices[k];
            i64 victim = -1, best = -1;
            repl++;
            for (tt = 0; tt < num_streams; tt++) {
                const i64 *sp = sparams + POPT_SPARAM_SLOTS * tt;
                i64 *d = decode + POPT_DECODE_SLOTS * tt;
                i64 esize = sp[POPT_SP_EPOCH_SIZE];
                i64 epochs = sp[POPT_SP_NUM_EPOCHS];
                i64 epoch = vertex / esize;
                i64 past = epoch >= epochs;
                i64 last = epoch + 1 >= epochs;
                d[PD_PAST_END] = past;
                d[PD_LAST] = last;
                d[PD_COLUMN] = past ? 0 : epoch * sp[POPT_SP_STRIDE];
                d[PD_NEXT] = last ? 0 : sp[POPT_SP_STRIDE];
                d[PD_SUB] = (vertex - epoch * esize)
                            / sp[POPT_SP_SUB_EPOCH_SIZE];
            }
            for (w = 0; w < ways; w++) {
                i64 sw = wsid[w], r;
                if (sw < 0) {
                    if (prefer_streaming) {
                        /* First streaming way wins outright. */
                        sevic++; victim = w; break;
                    }
                    r = POPT_STREAMING_NEXT_REF;
                } else {
                    rml++;
                    r = popt_next_ref(decode + POPT_DECODE_SLOTS * sw,
                                      entries, wrow[w], variant);
                }
                wref[w] = r;
                if (r > best) best = r;
            }
            if (victim < 0) {
                i64 tied = 0;
                for (w = 0; w < ways; w++)
                    if (wref[w] == best) {
                        tied++;
                        if (tied == 1) victim = w;
                    }
                if (tied > 1) {
                    i64 best_value = -1;
                    ties++; tiec += tied;
                    /* DRRIP's highest RRPV among the tied ways; without
                     * the DRRIP tie-break the first tied way stands. */
                    for (w = 0; drrip_ties && w < ways; w++)
                        if (wref[w] == best && rrpv[w] > best_value) {
                            best_value = rrpv[w];
                            victim = w;
                        }
                }
            }
            way = cache_evict(&c, s, victim);
        }
        cache_fill(&c, s, way, lines[k], writes[k]);
        stream = sid[k];
        wsid[way] = stream;
        wrow[way] = stream >= 0 ? bases[stream] + off[k] : -1;
        rrpv[way] = drrip_fill(leader[s], &psel, psel_max, rmax, trickled,
                               &dc);
    }
    cache_out(&c, out);
    cnt[0] += repl; cnt[1] += sevic; cnt[2] += rml;
    cnt[3] += ties; cnt[4] += tiec;
}

/* cnt[0..4] += replacements, streaming_evictions, rm_lookups, ties,
 * tie_candidates (epoch accounting is vectorized on the Python side).
 * A quantization tie goes to the tied way with DRRIP's highest RRPV
 * when `drrip_ties` is set, else to the first tied way; the DRRIP
 * state evolves either way. Every stream's matrix has the same variant
 * (the POPT policy refuses a mix), so stream 0's block picks the one
 * compiled scan. A matrix row is bases[sid[k]] + off[k]: the stream's
 * start in `entries` plus the line offset. */
void k_popt(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
            i64 num_sets, i64 ways, const i32 *vertices, const i64 *sid,
            const i64 *off, const i64 *bases, i64 num_streams,
            const i64 *sparams, const u16 *entries, i64 prefer_streaming,
            i64 drrip_ties, i64 rmax, i64 psel_max, const i64 *leader,
            const u8 *trickled, i64 *ws, i64 ws_len, i64 *out, i64 *cnt)
{
    switch (sparams[POPT_SP_VARIANT]) {
    case RM_VARIANT_INTER_ONLY:
        popt_replay(lines, writes, sidx, n, num_sets, ways, vertices, sid,
                    off, bases, num_streams, sparams, entries,
                    prefer_streaming, drrip_ties, rmax, psel_max, leader,
                    trickled, ws, ws_len, out, cnt, RM_VARIANT_INTER_ONLY);
        break;
    case RM_VARIANT_SINGLE_EPOCH:
        popt_replay(lines, writes, sidx, n, num_sets, ways, vertices, sid,
                    off, bases, num_streams, sparams, entries,
                    prefer_streaming, drrip_ties, rmax, psel_max, leader,
                    trickled, ws, ws_len, out, cnt, RM_VARIANT_SINGLE_EPOCH);
        break;
    default:
        popt_replay(lines, writes, sidx, n, num_sets, ways, vertices, sid,
                    off, bases, num_streams, sparams, entries,
                    prefer_streaming, drrip_ties, rmax, psel_max, leader,
                    trickled, ws, ws_len, out, cnt, RM_VARIANT_INTER_INTRA);
        break;
    }
}

/* ------------------------------------------------------------------ */
/* Fused front-end: private-level filtering and filter products.      */
/* ------------------------------------------------------------------ */

typedef uint64_t u64;

/* Private-level Bit-PLRU state: each set is `ways + PLRU_SET_WORDS`
 * words of ws, its resident lines followed by u64 bit words
 * (PLRU_MRU and PLRU_DIRTY hold bit w for way w, PLRU_FILLED counts
 * filled ways). The caller declines a level wider than 64 ways, so one
 * word always holds a set's bits. */
enum { PLRU_MRU, PLRU_DIRTY, PLRU_FILLED, PLRU_WORDS };
typedef char plru_fits[PLRU_WORDS <= PLRU_SET_WORDS ? 1 : -1];

/* One Bit-PLRU access against a single private-level set.  `set`
 * points at the set's state (layout above), `full` is the all-ways
 * mask, and `stats` accumulates {hits, misses, evictions, writebacks}.
 * Returns 1 on hit, 0 on miss, with the transitions of the reference
 * BitPLRU policy and the Python loop in replay_bit_plru_stream: fill
 * the next free way in order, else evict the lowest way whose MRU bit
 * is clear (way 0 when none is, the 1-way case); every touch sets the
 * way's MRU bit, and a touch that would set the last one clears the
 * others.  Sets are independent, so replaying them interleaved in
 * access order is bit-identical to replaying them one after another. */
static i64 plru_access(i64 *set, i64 ways, u64 full, i64 line, i64 write,
                       i64 *stats)
{
    u64 *bits = (u64 *)(set + ways);
    u64 mask;
    i64 way, hit;
    PROBE(way, set, (i64)bits[PLRU_FILLED], line);
    hit = way >= 0;
    if (hit) {
        stats[0]++;
        bits[PLRU_DIRTY] |= (u64)write << way;
    } else {
        stats[1]++;
        if ((i64)bits[PLRU_FILLED] < ways) {
            way = (i64)bits[PLRU_FILLED]++;
        } else {
            u64 clear = ~bits[PLRU_MRU] & full;
            way = clear ? __builtin_ctzll(clear) : 0;
            stats[2]++;
            stats[3] += (i64)((bits[PLRU_DIRTY] >> way) & 1);
        }
        set[way] = line;
        bits[PLRU_DIRTY] = (bits[PLRU_DIRTY] & ~((u64)1 << way)) |
                           ((u64)write << way);
    }
    mask = (u64)1 << way;
    bits[PLRU_MRU] |= mask;
    if (bits[PLRU_MRU] == full) bits[PLRU_MRU] = mask;
    return hit;
}

/* Reset `sets` private-level sets laid out as above. */
static void plru_reset(i64 *state, i64 sets, i64 ways)
{
    i64 s, w;
    for (s = 0; s < sets; s++, state += ways + PLRU_SET_WORDS) {
        for (w = 0; w < ways; w++) state[w] = -1;
        for (w = 0; w < PLRU_SET_WORDS; w++) state[ways + w] = 0;
    }
}

/* Fused phase-1/2 pass: decode each address to a line, replay the L1
 * and (on L1 miss) L2 Bit-PLRU filters inline in access order, and
 * emit the compact LLC-visible stream.  A level with zero sets is
 * skipped (config None on the Python side); a level has at most 64
 * ways.  Outputs: visible_idx / vis_lines / vis_writes hold the first
 * out[0] surviving accesses; out[1..4] are L1 {hits, misses,
 * evictions, writebacks} and out[5..8] the same for L2.  ws carves
 * sets * (ways + PLRU_SET_WORDS) words per level. */
void k_private_filter(const i64 *addrs, const u8 *writes, i64 n,
                      i64 line_shift, i64 l1_sets, i64 l1_ways, i64 l1_pow2,
                      i64 l2_sets, i64 l2_ways, i64 l2_pow2,
                      i64 *visible_idx, i64 *vis_lines, u8 *vis_writes,
                      i64 *ws, i64 ws_len, i64 *out)
{
    i64 l1_stride = l1_ways + PLRU_SET_WORDS;
    i64 l2_stride = l2_ways + PLRU_SET_WORDS;
    i64 *l1 = ws;
    i64 *l2 = ws + l1_sets * l1_stride;
    u64 l1_full = l1_ways >= 64 ? ~(u64)0 : ((u64)1 << l1_ways) - 1;
    u64 l2_full = l2_ways >= 64 ? ~(u64)0 : ((u64)1 << l2_ways) - 1;
    i64 k, m = 0;
    if (!ws_fits(ws_len, l1_sets * l1_stride + l2_sets * l2_stride, out))
        return;
    plru_reset(l1, l1_sets, l1_ways);
    plru_reset(l2, l2_sets, l2_ways);
    for (k = 0; k < n; k++) {
        i64 line = addrs[k] >> line_shift;
        i64 write = writes[k] != 0;
        i64 hit = 0;
        if (l1_sets) {
            i64 s = l1_pow2 ? (line & (l1_sets - 1)) : (line % l1_sets);
            hit = plru_access(l1 + s * l1_stride, l1_ways, l1_full,
                              line, write, out + 1);
        }
        if (!hit && l2_sets) {
            i64 s = l2_pow2 ? (line & (l2_sets - 1)) : (line % l2_sets);
            hit = plru_access(l2 + s * l2_stride, l2_ways, l2_full,
                              line, write, out + 5);
        }
        if (!hit) {
            visible_idx[m] = k;
            vis_lines[m] = line;
            vis_writes[m] = (u8)write;
            m++;
        }
    }
    out[0] = m;
}

/* Fibonacci-hash slot for the open-addressing line tables below.
 * cap_mask is capacity-1 with capacity a power of two. */
static i64 hash_slot(i64 key, i64 cap_mask)
{
    u64 h = (u64)key * (u64)2654435761;
    h ^= h >> 15;
    return (i64)(h & (u64)cap_mask);
}

/* Next-use chain over a compact line stream: next_use[k] is the next
 * position referencing lines[k], or n when the line is never seen
 * again — the same values engine.py's lexsort neighbour-compare
 * produces.  One backward scan with an open-addressing map from line
 * to its earliest known position; ws carves keys[cap] + vals[cap]
 * with cap a power of two > n (so a free slot always exists). An empty
 * stream has nothing to compute or report. */
void k_next_use(const i64 *lines, i64 n, i64 cap, i64 *ws, i64 ws_len,
                i64 *next_use)
{
    i64 *keys = ws;
    i64 *vals = ws + cap;
    i64 k, kk;
    if (n == 0 || !ws_fits(ws_len, NEXT_USE_SLOT_WORDS * cap, next_use))
        return;
    for (k = 0; k < cap; k++) keys[k] = -1;
    for (kk = 0; kk < n; kk++) {
        i64 at = n - 1 - kk;
        i64 line = lines[at];
        i64 slot = hash_slot(line, cap - 1);
        for (;;) {
            if (keys[slot] == line) {
                next_use[at] = vals[slot];
                vals[slot] = at;
                break;
            }
            if (keys[slot] < 0) {
                next_use[at] = n;
                keys[slot] = line;
                vals[slot] = at;
                break;
            }
            slot = (slot + 1) & (cap - 1);
        }
    }
}

/* ------------------------------------------------------------------ */
/* Trace generation: one edge-centric traversal.                      */
/* ------------------------------------------------------------------ */

/* The trace's four channels and the next position to write. */
struct trace_out {
    i64 *addresses;
    u8 *pcs, *writes;
    i32 *vertices;
    i64 at;
};

/* Whether the access in `slot` fires for an edge to `nbr`: an access
 * without a mask row always does, a masked one when its row marks the
 * neighbor. */
INLINE i64 fires(const i64 *slot, const u8 *masks, i64 num_vertices,
                 i64 nbr)
{
    i64 row = slot[TRAV_MASK_ROW];
    return row < 0 || masks[row * num_vertices + nbr] != 0;
}

/* Append the access `slot` makes to element idx of its span. The byte
 * address is taken after the multiply, so 1-bit spans pack eight
 * elements per byte. */
INLINE void emit(struct trace_out *t, const i64 *slot, i64 idx, i32 vertex)
{
    t->addresses[t->at] = slot[TRAV_BASE] + ((idx * slot[TRAV_ELEM_BITS]) >> 3);
    t->pcs[t->at] = (u8)slot[TRAV_PC];
    t->writes[t->at] = (u8)(slot[TRAV_WRITE] != 0);
    t->vertices[t->at] = vertex;
    t->at++;
}

/* The trace of one traversal, written from position `start` of four
 * channels of trace_len accesses: per outer vertex v = order[i], the
 * offsets read OA[v], then per edge e of v the neighbor read NA[e] and
 * each per-edge access that fires, indexed by the neighbor, then the
 * dense access indexed by v. Every access carries v + vertex_offset as
 * its vertex. `slots` holds TRAVERSAL_SLOT_WORDS words per access: OA,
 * NA, the `per_edge` accesses in order, then the dense access when
 * has_dense. `masks` holds one row of num_vertices flags per masked
 * access. The caller checks order (in range, no vertex twice) and the
 * vertex width. When the channels are shorter than start plus the
 * traversal's length, nothing is written and out[0] is minus that
 * length; else out[0] is the position after the last access written.
 * A sizing call passes trace_len 0. */
void k_traversal(const i64 *order, i64 n_order, const i64 *offsets,
                 const i32 *neighbors, const i64 *slots, i64 per_edge,
                 i64 has_dense, const u8 *masks, i64 num_vertices,
                 i64 vertex_offset, i64 start, i64 *addresses, u8 *pcs,
                 u8 *writes, i32 *vertices, i64 trace_len, i64 *out)
{
    const i64 *oa = slots, *na = slots + TRAVERSAL_SLOT_WORDS;
    const i64 *edge = na + TRAVERSAL_SLOT_WORDS;
    const i64 *dense = edge + per_edge * TRAVERSAL_SLOT_WORDS;
    struct trace_out t;
    i64 needed = start + n_order * (1 + (has_dense != 0));
    i64 always = 1, masked = 0, i, e, a;
    for (a = 0; a < per_edge; a++) {
        if (edge[a * TRAVERSAL_SLOT_WORDS + TRAV_MASK_ROW] < 0) always++;
        else masked++;
    }
    for (i = 0; i < n_order; i++) {
        i64 v = order[i];
        needed += always * (offsets[v + 1] - offsets[v]);
        if (!masked) continue;
        for (e = offsets[v]; e < offsets[v + 1]; e++)
            for (a = 0; a < per_edge; a++) {
                const i64 *slot = edge + a * TRAVERSAL_SLOT_WORDS;
                if (slot[TRAV_MASK_ROW] >= 0)
                    needed += fires(slot, masks, num_vertices, neighbors[e]);
            }
    }
    if (trace_len < needed) {
        out[0] = -needed;
        return;
    }
    t.addresses = addresses;
    t.pcs = pcs;
    t.writes = writes;
    t.vertices = vertices;
    t.at = start;
    for (i = 0; i < n_order; i++) {
        i64 v = order[i];
        i32 vertex = (i32)(v + vertex_offset);
        emit(&t, oa, v, vertex);
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            i64 nbr = neighbors[e];
            emit(&t, na, e, vertex);
            for (a = 0; a < per_edge; a++) {
                const i64 *slot = edge + a * TRAVERSAL_SLOT_WORDS;
                if (fires(slot, masks, num_vertices, nbr))
                    emit(&t, slot, nbr, vertex);
            }
        }
        if (has_dense) emit(&t, dense, v, vertex);
    }
    out[0] = t.at;
}

/* ------------------------------------------------------------------ */
/* Access-order replay kernels for the PC-predictor policies.         */
/* ------------------------------------------------------------------ */

/* SHiP-PC: SRRIP substrate plus a global PC-signature history counter
 * table, so the SHCT couples every set.  Fields: rrpv, the filling
 * access's signature, and the reused bit; the tail is the
 * KERNEL_SIG_SPACE-entry SHCT. */
void k_ship(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
            i64 num_sets, i64 ways, const u8 *pcs, i64 rmax, i64 *ws,
            i64 ws_len, i64 *out)
{
    struct cache c;
    i64 *rrpv, *sig, *reused, *shct, k;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, SHIP_WAY_WORDS,
                     KERNEL_SIG_SPACE, out))
        return;
    rrpv = cache_field(&c, 0, rmax);
    sig = cache_field(&c, 1, 0);
    reused = cache_field(&c, 2, 0);
    shct = c.tail;
    for (k = 0; k < KERNEL_SIG_SPACE; k++) shct[k] = SHIP_SHCT_INITIAL;
    for (k = 0; k < n; k++) {
        i64 s = sidx[k], base = s * ways;
        i64 way = cache_probe(&c, s, lines[k], writes[k]);
        i64 *rrpv_s = rrpv + base, *sig_s = sig + base;
        i64 *reused_s = reused + base;
        if (way >= 0) {
            rrpv_s[way] = 0;
            if (!reused_s[way]) {
                reused_s[way] = 1;
                if (shct[sig_s[way]] < SHIP_SHCT_MAX) shct[sig_s[way]]++;
            }
            continue;
        }
        way = cache_free_way(&c, s);
        if (way < 0) {
            way = cache_evict(&c, s, rrip_victim(rrpv_s, ways, rmax));
            if (!reused_s[way] && shct[sig_s[way]] > 0) shct[sig_s[way]]--;
        }
        cache_fill(&c, s, way, lines[k], writes[k]);
        sig_s[way] = pcs[k];
        reused_s[way] = 0;
        rrpv_s[way] = shct[pcs[k]] ? rmax - 1 : rmax;
    }
    cache_out(&c, out);
}

/* One Hawkeye OPTgen training step for sampled set history `si`:
 * look the line up in the global open-addressing map (hkeys/htime/
 * hpc), run the liveness-interval verdict against the set's circular
 * occupancy window, train the PC predictor, and record this access.
 * The Python policy prunes its last_access dict for memory; a pruned
 * entry would fail the `clock - previous <= window` test at any later
 * lookup anyway, so the unpruned map here gives identical verdicts.
 * A line maps to exactly one set, so one global map serves every
 * sampled set. */
static void hawkeye_train(i64 si, i64 line, i64 pc, i64 capacity,
                          i64 window, i64 cap, i64 *occ, i64 *occ_start,
                          i64 *occ_len, i64 *clocks, i64 *hkeys,
                          i64 *htime, i64 *hpc, i64 *predictor)
{
    i64 *oc = occ + si * window;
    i64 st = occ_start[si];
    i64 olen = occ_len[si];
    i64 ck = clocks[si];
    i64 slot = hash_slot(line, cap - 1);
    i64 prev, tpc, j;
    i64 verdict = -1;
    for (;;) {
        if (hkeys[slot] == line) break;
        if (hkeys[slot] < 0) break;
        slot = (slot + 1) & (cap - 1);
    }
    if (hkeys[slot] == line) {
        prev = htime[slot];
        tpc = hpc[slot];
    } else {
        prev = -1;
        tpc = -1;
    }
    if (prev >= 0 && ck - prev <= window) {
        i64 start_off = prev - (ck - olen);
        if (start_off >= 0) {
            i64 ok = 1;
            for (j = start_off; j < olen; j++)
                if (oc[(st + j) % window] >= capacity) { ok = 0; break; }
            if (ok) {
                for (j = start_off; j < olen; j++)
                    oc[(st + j) % window] += 1;
                verdict = 1;
            } else {
                verdict = 0;
            }
        }
    }
    if (olen < window) {
        oc[(st + olen) % window] = 0;
        occ_len[si] = olen + 1;
    } else {
        oc[st] = 0;
        occ_start[si] = (st + 1) % window;
    }
    if (verdict >= 0 && tpc >= 0) {
        i64 c = predictor[tpc];
        if (verdict) {
            if (c < HAWKEYE_COUNTER_MAX) predictor[tpc] = c + 1;
        } else if (c > 0) {
            predictor[tpc] = c - 1;
        }
    }
    hkeys[slot] = line;
    htime[slot] = ck;
    hpc[slot] = pc;
    clocks[si] = ck + 1;
}

/* Hawkeye: sampled OPTgen + PC predictor over an RRIP-like substrate.
 * The predictor couples all sets.  Sampled sets are those with
 * set % sample_every == 0, num_sampled = ceil(num_sets / sample_every)
 * of them, and `cap` is the power-of-two capacity of the line map.
 * Fields: rrpv and the last touching PC; the tail is the predictor
 * (KERNEL_SIG_SPACE), occ (num_sampled * window), occ_start / occ_len /
 * clocks (num_sampled each) and hkeys / htime / hpc (cap each).
 * Victim choice is Hawkeye's: first way at RRPV_MAX, else the first
 * way holding the maximum RRPV — no aging pass. */
void k_hawkeye(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
               i64 num_sets, i64 ways, const u8 *pcs, i64 sample_every,
               i64 window, i64 cap, i64 *ws, i64 ws_len, i64 *out)
{
    struct cache c;
    i64 num_sampled = (num_sets + sample_every - 1) / sample_every;
    i64 *rrpv, *wpc, *predictor, *occ, *occ_start, *occ_len, *clocks;
    i64 *hkeys, *htime, *hpc, k, w;
    if (!cache_carve(&c, ws, ws_len, num_sets, ways, HAWKEYE_WAY_WORDS,
                     KERNEL_SIG_SPACE
                     + num_sampled * (window + HAWKEYE_SAMPLED_WORDS)
                     + HAWKEYE_SLOT_WORDS * cap, out))
        return;
    rrpv = cache_field(&c, 0, HAWKEYE_RRPV_MAX);
    wpc = cache_field(&c, 1, 0);
    predictor = c.tail;
    occ = predictor + KERNEL_SIG_SPACE;
    occ_start = occ + num_sampled * window;
    occ_len = occ_start + num_sampled;
    clocks = occ_len + num_sampled;
    hkeys = clocks + num_sampled;
    htime = hkeys + cap;
    hpc = htime + cap;
    for (k = 0; k < KERNEL_SIG_SPACE; k++)
        predictor[k] = HAWKEYE_COUNTER_INITIAL;
    for (k = 0; k < num_sampled; k++) {
        occ_start[k] = 0; occ_len[k] = 0; clocks[k] = 0;
    }
    for (k = 0; k < cap; k++) hkeys[k] = -1;
    for (k = 0; k < n; k++) {
        i64 line = lines[k], s = sidx[k], pc = pcs[k], base = s * ways;
        i64 way = cache_probe(&c, s, line, writes[k]), hit = way >= 0;
        i64 *rrpv_s = rrpv + base, *wpc_s = wpc + base;
        if (!hit) {
            way = cache_free_way(&c, s);
            if (way < 0) {
                i64 vpc;
                for (w = 0; w < ways; w++)
                    if (rrpv_s[w] == HAWKEYE_RRPV_MAX) { way = w; break; }
                if (way < 0) {
                    i64 top = rrpv_s[0];
                    way = 0;
                    for (w = 1; w < ways; w++)
                        if (rrpv_s[w] > top) { top = rrpv_s[w]; way = w; }
                }
                cache_evict(&c, s, way);
                vpc = wpc_s[way];
                if (predictor[vpc] >= HAWKEYE_COUNTER_INITIAL &&
                    predictor[vpc] > 0)
                    predictor[vpc]--;
            }
            cache_fill(&c, s, way, line, writes[k]);
        }
        if (s % sample_every == 0)
            hawkeye_train(s / sample_every, line, pc, ways, window, cap, occ,
                          occ_start, occ_len, clocks, hkeys, htime, hpc,
                          predictor);
        wpc_s[way] = pc;
        if (predictor[pc] >= HAWKEYE_COUNTER_INITIAL) {
            if (!hit)
                for (w = 0; w < ways; w++)
                    if (w != way && rrpv_s[w] < HAWKEYE_RRPV_MAX - 1)
                        rrpv_s[w]++;
            rrpv_s[way] = 0;
        } else if (!hit) {
            rrpv_s[way] = HAWKEYE_RRPV_MAX;
        }
    }
    cache_out(&c, out);
}
