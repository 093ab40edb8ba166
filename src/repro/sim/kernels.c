/* Compiled LLC replay kernels (optional fast path).
 *
 * Each k_<policy> replay kernel must be bit-identical to the policy
 * class of the same name under the generic engine (repro.policies,
 * repro.popt) — same probe order, same victim tie-breaks, same
 * dirty/writeback bookkeeping. Those classes are the executable
 * specification; the equivalence suite compares compiled vs generic vs
 * reference. The front-end helpers (k_private_filter, k_bit_plru_mask,
 * k_next_use, k_set_partition) match their numpy/Python constructions
 * in repro.sim.engine and repro.sim.kernels the same way.
 *
 * Built on demand by repro.sim.ckernels via the system C compiler and
 * loaded with ctypes; when no compiler is available every policy
 * replays through the generic engine instead. No Python API is used
 * here: every argument is a plain C array (int64 lines/counts, uint8
 * write flags, float64 RNG draws) or scalar. The loader derives each
 * kernel's ctypes signature from the `void k_*(...)` definitions
 * below, so parameters must be spelled `[const] i64|u8|double [*]
 * name`; anything else refuses to load.
 *
 * Shared numeric constants (TOPT_NEVER, the POPT_SP_* parameter-block
 * slots, the RM_VARIANT_* codes, the SHiP/Hawkeye bounds) are not
 * defined in this file: the loader passes every
 * repro.sim.constants.C_DEFINES entry as a -D flag, so the bit layouts
 * have one definition, on the Python side.
 *
 * Determinism discipline, enforced by how the file is built and
 * loaded: no heap allocation or other external calls (the object is
 * freestanding and linked with -nostdlib -Wl,-z,defs, so any call this
 * file does not define fails the link), and no mutable state, at file
 * or function scope (the loader refuses a .so with a writable section
 * such as .data or .bss). Every kernel's scratch is carved from a
 * caller-provided int64 workspace `ws` and fully initialized here.
 *
 * Randomness: BRRIP/DRRIP consume `random.Random` draws in fill order.
 * Reproducing the Mersenne Twister here would couple this file to
 * CPython internals, so the caller pre-generates one draw per access
 * (an upper bound on fills) with the *same* RNG the reference policy
 * owns and passes the array in; consumption order matches the
 * reference's lazy draws exactly.
 *
 * Residency probes are linear tag scans: a set's ways hold distinct
 * lines, so "first way whose tag matches" answers exactly what the
 * reference cache's tags.index(line) answers.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

/* out[0..3] += hits, misses, evictions, writebacks */

#define PROBE(way, resident, filled, line)                                   \
    do {                                                                     \
        i64 _w;                                                              \
        (way) = -1;                                                          \
        for (_w = 0; _w < (filled); _w++)                                    \
            if ((resident)[_w] == (line)) { (way) = _w; break; }             \
    } while (0)

/* Set-partitioned kernels carve 3-4 way-sized arrays from ws (the
 * caller sizes it; see _ws_partitioned in kernels.py) and re-initialize
 * them at every set boundary, so the workspace contents never leak
 * between sets or calls. */

void k_lru(const i64 *lines, const u8 *writes, const i64 *counts,
           i64 num_sets, i64 ways, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *stamps = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0, clock = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; stamps[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
            } else {
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    i64 lo = stamps[0];
                    way = 0;
                    for (w = 1; w < ways; w++)
                        if (stamps[w] < lo) { lo = stamps[w]; way = w; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
            }
            stamps[way] = ++clock;
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

void k_lip(const i64 *lines, const u8 *writes, const i64 *counts,
           i64 num_sets, i64 ways, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *stamps = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0, clock = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; stamps[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
                stamps[way] = ++clock;        /* promote to MRU */
            } else {
                i64 lo;
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    lo = stamps[0];
                    way = 0;
                    for (w = 1; w < ways; w++)
                        if (stamps[w] < lo) { lo = stamps[w]; way = w; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
                /* LRU-point insertion: strictly below the current min,
                 * computed over the victim's stale stamp (reference
                 * order). */
                lo = stamps[0];
                for (w = 1; w < ways; w++)
                    if (stamps[w] < lo) lo = stamps[w];
                stamps[way] = lo - 1;
            }
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

void k_bit_plru(const i64 *lines, const u8 *writes, const i64 *counts,
                i64 num_sets, i64 ways, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *mru = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; mru[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            i64 nset;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
            } else {
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    /* lowest clear MRU bit; way 0 in the 1-way case */
                    way = 0;
                    for (w = 0; w < ways; w++)
                        if (!mru[w]) { way = w; break; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
            }
            mru[way] = 1;
            nset = 0;
            for (w = 0; w < ways; w++) nset += mru[w];
            if (nset == ways) {
                for (w = 0; w < ways; w++) mru[w] = 0;
                mru[way] = 1;
            }
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

void k_srrip(const i64 *lines, const u8 *writes, const i64 *counts,
             i64 num_sets, i64 ways, i64 rmax, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *rrpv = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; rrpv[w] = rmax; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
                rrpv[way] = 0;
            } else {
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    i64 top = rrpv[0];
                    for (w = 1; w < ways; w++)
                        if (rrpv[w] > top) top = rrpv[w];
                    if (top != rmax)
                        for (w = 0; w < ways; w++) rrpv[w] += rmax - top;
                    way = 0;
                    for (w = 0; w < ways; w++)
                        if (rrpv[w] == rmax) { way = w; break; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
                rrpv[way] = rmax - 1;
            }
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

void k_opt(const i64 *lines, const u8 *writes, const i64 *snext,
           const i64 *counts, i64 num_sets, i64 ways, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *line_next = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; line_next[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
            } else {
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    i64 far = line_next[0];
                    way = 0;
                    for (w = 1; w < ways; w++)
                        if (line_next[w] > far) { far = line_next[w]; way = w; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
            }
            line_next[way] = snext[k];
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

/* Bit-PLRU with a per-access hit mask (private-level filtering needs to
 * know *which* accesses hit, not just how many). hit_out[k] is written
 * at the set-sorted position k; the caller scatters it back through its
 * argsort order. */
void k_bit_plru_mask(const i64 *lines, const u8 *writes, const i64 *counts,
                     i64 num_sets, i64 ways, u8 *hit_out, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 *resident = ws;
    i64 *mru = ws + ways;
    i64 *dirty = ws + 2 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; mru[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            i64 nset;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                hit_out[k] = 1;
                if (writes[k]) dirty[way] = 1;
            } else {
                misses++;
                hit_out[k] = 0;
                if (filled < ways) {
                    way = filled++;
                } else {
                    way = 0;
                    for (w = 0; w < ways; w++)
                        if (!mru[w]) { way = w; break; }
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
            }
            mru[way] = 1;
            nset = 0;
            for (w = 0; w < ways; w++) nset += mru[w];
            if (nset == ways) {
                for (w = 0; w < ways; w++) mru[w] = 0;
                mru[way] = 1;
            }
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

/* Access-order kernels: a global fill RNG (and DRRIP's PSEL) couples
 * the sets, so these walk the stream in original order with flat
 * (set, way) state arrays carved from the caller's workspace. */

static i64 rrip_victim(i64 *rrpv, i64 ways, i64 rmax)
{
    i64 top = rrpv[0], w, way;
    for (w = 1; w < ways; w++)
        if (rrpv[w] > top) top = rrpv[w];
    if (top != rmax)
        for (w = 0; w < ways; w++) rrpv[w] += rmax - top;
    way = 0;
    for (w = 0; w < ways; w++)
        if (rrpv[w] == rmax) { way = w; break; }
    return way;
}

void k_brrip(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
             i64 num_sets, i64 ways, i64 rmax, double trickle,
             const double *draws, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 total = num_sets * ways;
    i64 *resident = ws;
    i64 *rrpv = ws + total;
    i64 *dirty = ws + 2 * total;
    i64 *filled = ws + 3 * total;
    i64 k, dc = 0;
    for (k = 0; k < total; k++) { resident[k] = -1; rrpv[k] = rmax; dirty[k] = 0; }
    for (k = 0; k < num_sets; k++) filled[k] = 0;
    for (k = 0; k < n; k++) {
        i64 line = lines[k];
        i64 base = sidx[k] * ways;
        i64 *res_s = resident + base;
        i64 *rrpv_s = rrpv + base;
        i64 way;
        PROBE(way, res_s, filled[sidx[k]], line);
        if (way >= 0) {
            hits++;
            if (writes[k]) dirty[base + way] = 1;
            rrpv_s[way] = 0;
        } else {
            misses++;
            if (filled[sidx[k]] < ways) {
                way = filled[sidx[k]]++;
            } else {
                way = rrip_victim(rrpv_s, ways, rmax);
                evics++;
                if (dirty[base + way]) wbs++;
            }
            res_s[way] = line;
            dirty[base + way] = writes[k];
            rrpv_s[way] = draws[dc++] < trickle ? rmax - 1 : rmax;
        }
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

void k_drrip(const i64 *lines, const u8 *writes, const i64 *sidx, i64 n,
             i64 num_sets, i64 ways, i64 rmax, double trickle,
             i64 psel, i64 psel_max, const i64 *leader,
             const double *draws, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 total = num_sets * ways;
    i64 psel_half = psel_max / 2;
    i64 *resident = ws;
    i64 *rrpv = ws + total;
    i64 *dirty = ws + 2 * total;
    i64 *filled = ws + 3 * total;
    i64 k, dc = 0;
    for (k = 0; k < total; k++) { resident[k] = -1; rrpv[k] = rmax; dirty[k] = 0; }
    for (k = 0; k < num_sets; k++) filled[k] = 0;
    for (k = 0; k < n; k++) {
        i64 line = lines[k];
        i64 s = sidx[k];
        i64 base = s * ways;
        i64 *res_s = resident + base;
        i64 *rrpv_s = rrpv + base;
        i64 way;
        PROBE(way, res_s, filled[s], line);
        if (way >= 0) {
            hits++;
            if (writes[k]) dirty[base + way] = 1;
            rrpv_s[way] = 0;
        } else {
            i64 role, use_brrip;
            misses++;
            if (filled[s] < ways) {
                way = filled[s]++;
            } else {
                way = rrip_victim(rrpv_s, ways, rmax);
                evics++;
                if (dirty[base + way]) wbs++;
            }
            res_s[way] = line;
            dirty[base + way] = writes[k];
            /* _miss_feedback -> role -> insertion, reference order:
             * leaders vote PSEL first, then their fixed role decides
             * their own insertion; followers read the updated PSEL. */
            role = leader[s];
            if (role == 1) {
                if (psel < psel_max) psel++;
                use_brrip = 0;
            } else if (role == 2) {
                if (psel > 0) psel--;
                use_brrip = 1;
            } else {
                use_brrip = psel > psel_half;
            }
            if (!use_brrip)
                rrpv_s[way] = rmax - 1;
            else
                rrpv_s[way] = draws[dc++] < trickle ? rmax - 1 : rmax;
        }
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}

/* Next-ref kernels: the paper's own policies (T-OPT and P-OPT).
 * Counters beyond the hit/miss quartet go into a separate cnt[] array
 * so the Python wrapper can write them back onto the policy instance. */

static i64 lower_bound(const i64 *a, i64 lo, i64 hi, i64 key)
{
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (a[mid] < key) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* cnt[0..1] += replacements, transpose_walk_elements */
void k_topt(const i64 *lines, const u8 *writes, const i64 *vertices,
            const i64 *lo, const i64 *hi, const i64 *refs,
            const i64 *counts, i64 num_sets, i64 ways, i64 *ws,
            i64 *out, i64 *cnt)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 repl = 0, walk = 0;
    const i64 never = TOPT_NEVER;
    i64 *resident = ws;
    i64 *wlo = ws + ways;
    i64 *whi = ws + 2 * ways;
    i64 *dirty = ws + 3 * ways;
    i64 start = 0, s, k, w;
    for (s = 0; s < num_sets; s++) {
        i64 count = counts[s];
        i64 stop = start + count;
        i64 filled = 0;
        if (!count) continue;
        for (w = 0; w < ways; w++) { resident[w] = -1; wlo[w] = 0; whi[w] = 0; dirty[w] = 0; }
        for (k = start; k < stop; k++) {
            i64 line = lines[k], way;
            PROBE(way, resident, filled, line);
            if (way >= 0) {
                hits++;
                if (writes[k]) dirty[way] = 1;
            } else {
                misses++;
                if (filled < ways) {
                    way = filled++;
                } else {
                    i64 vertex = vertices[k];
                    i64 victim = -1, best_way = 0, best = -1;
                    repl++;
                    for (w = 0; w < ways; w++) {
                        i64 l = wlo[w], h, idx, stepped, r;
                        if (l < 0) { victim = w; break; } /* streaming */
                        h = whi[w];
                        idx = lower_bound(refs, l, h, vertex);
                        stepped = idx - l;
                        walk += stepped > 1 ? stepped : 1;
                        r = idx >= h ? never : refs[idx];
                        if (r > best) { best = r; best_way = w; }
                    }
                    way = victim >= 0 ? victim : best_way;
                    evics++;
                    if (dirty[way]) wbs++;
                }
                resident[way] = line;
                dirty[way] = writes[k];
                wlo[way] = lo[k];
                whi[way] = hi[k];
            }
        }
        start = stop;
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
    cnt[0] += repl; cnt[1] += walk;
}

/* Algorithm 2 over one flattened Rereference Matrix row; sp is the
 * stream's POPT_SPARAM_SLOTS-slot parameter block (layout
 * POPT_SP_*, mirroring constants.POPT_SPARAM_LAYOUT). All operands
 * are non-negative, so C integer division is the floor division the
 * Python decode uses. */
static i64 popt_next_ref(const i64 *sp, const i64 *entries, i64 row_base,
                         i64 vertex)
{
    i64 variant = sp[POPT_SP_VARIANT], msb = sp[POPT_SP_MSB];
    i64 low = sp[POPT_SP_LOW_MASK], nbit = sp[POPT_SP_NEXT_BIT];
    i64 esize = sp[POPT_SP_EPOCH_SIZE], ssize = sp[POPT_SP_SUB_EPOCH_SIZE];
    i64 nepochs = sp[POPT_SP_NUM_EPOCHS];
    i64 epoch = vertex / esize;
    i64 current, last_sub, curr_sub, next;
    if (epoch >= nepochs) return low;
    current = entries[row_base + epoch];
    if (variant == RM_VARIANT_INTER_ONLY) return current;
    if (current & msb) return current & low;
    last_sub = current & low;
    curr_sub = (vertex - epoch * esize) / ssize;
    if (curr_sub <= last_sub) return 0;
    if (variant == RM_VARIANT_SINGLE_EPOCH) return (current & nbit) ? 1 : 2;
    if (epoch + 1 >= nepochs) return low;
    next = entries[row_base + epoch + 1];
    if (next & msb) return 1 + (next & low);
    return 1;
}

/* cnt[0..4] += replacements, streaming_evictions, rm_lookups, ties,
 * tie_candidates (epoch accounting is vectorized on the Python side) */
void k_popt(const i64 *lines, const u8 *writes, const i64 *vertices,
            const i64 *sidx, const i64 *sid, const i64 *row_base, i64 n,
            i64 num_sets, i64 ways,
            const i64 *sparams, const i64 *entries, i64 prefer_streaming,
            i64 rmax, double trickle, i64 psel_max, const i64 *leader,
            const double *draws, i64 *ws, i64 *out, i64 *cnt)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 repl = 0, sevic = 0, rml = 0, ties = 0, tiec = 0;
    i64 total = num_sets * ways;
    i64 psel = psel_max / 2, psel_half = psel_max / 2;
    i64 *resident = ws;
    i64 *rrpv = ws + total;
    i64 *wsid = ws + 2 * total;
    i64 *wrb = ws + 3 * total;
    i64 *dirty = ws + 4 * total;
    i64 *filled = ws + 5 * total;
    i64 *wref = ws + 5 * total + num_sets;
    i64 k, w, dc = 0;
    for (k = 0; k < total; k++) {
        resident[k] = -1; rrpv[k] = rmax; wsid[k] = -1; wrb[k] = -1;
        dirty[k] = 0;
    }
    for (k = 0; k < num_sets; k++) filled[k] = 0;
    for (k = 0; k < n; k++) {
        i64 line = lines[k];
        i64 s = sidx[k];
        i64 base = s * ways;
        i64 *res_s = resident + base;
        i64 *rrpv_s = rrpv + base;
        i64 way;
        PROBE(way, res_s, filled[s], line);
        if (way >= 0) {
            hits++;
            if (writes[k]) dirty[base + way] = 1;
            rrpv_s[way] = 0;
        } else {
            i64 role, use_brrip;
            misses++;
            if (filled[s] < ways) {
                way = filled[s]++;
            } else {
                i64 vertex = vertices[k];
                i64 victim = -1, best = -1;
                repl++;
                for (w = 0; w < ways; w++) {
                    i64 sw = wsid[base + w], r;
                    if (sw < 0) {
                        if (prefer_streaming) {
                            /* First streaming way wins outright. */
                            sevic++; victim = w; break;
                        }
                        r = POPT_STREAMING_NEXT_REF;
                    } else {
                        rml++;
                        r = popt_next_ref(sparams + POPT_SPARAM_SLOTS * sw,
                                          entries, wrb[base + w], vertex);
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
                        for (w = 0; w < ways; w++)
                            if (wref[w] == best && rrpv_s[w] > best_value) {
                                best_value = rrpv_s[w];
                                victim = w;
                            }
                    }
                }
                way = victim;
                evics++;
                if (dirty[base + way]) wbs++;
            }
            res_s[way] = line;
            dirty[base + way] = writes[k];
            wsid[base + way] = sid[k];
            wrb[base + way] = row_base[k];
            /* DRRIP tie-break fill (same sequence as k_drrip). */
            role = leader[s];
            if (role == 1) {
                if (psel < psel_max) psel++;
                use_brrip = 0;
            } else if (role == 2) {
                if (psel > 0) psel--;
                use_brrip = 1;
            } else {
                use_brrip = psel > psel_half;
            }
            if (!use_brrip)
                rrpv_s[way] = rmax - 1;
            else
                rrpv_s[way] = draws[dc++] < trickle ? rmax - 1 : rmax;
        }
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
    cnt[0] += repl; cnt[1] += sevic; cnt[2] += rml; cnt[3] += ties; cnt[4] += tiec;
}

/* ------------------------------------------------------------------ */
/* Fused front-end: private-level filtering and filter products.      */
/* ------------------------------------------------------------------ */

typedef uint64_t u64;

/* One Bit-PLRU access against a single private-level set.  `resident`
 * `mru` and `dirty` point at the set's ways-sized state, `filled` at
 * its monotone fill counter, and `stats` accumulates {hits, misses,
 * evictions, writebacks}.  Returns 1 on hit, 0 on miss — the same
 * per-access transitions k_bit_plru_mask applies to a set-partitioned
 * stream (sets are independent, so replaying them interleaved in
 * access order is bit-identical). */
static i64 plru_access(i64 *resident, i64 *mru, i64 *dirty, i64 *filled,
                       i64 ways, i64 line, i64 write, i64 *stats)
{
    i64 way, w, nset, hit;
    PROBE(way, resident, *filled, line);
    hit = way >= 0;
    if (hit) {
        stats[0]++;
        if (write) dirty[way] = 1;
    } else {
        stats[1]++;
        if (*filled < ways) {
            way = (*filled)++;
        } else {
            way = 0;
            for (w = 0; w < ways; w++)
                if (!mru[w]) { way = w; break; }
            stats[2]++;
            if (dirty[way]) stats[3]++;
        }
        resident[way] = line;
        dirty[way] = write;
    }
    mru[way] = 1;
    nset = 0;
    for (w = 0; w < ways; w++) nset += mru[w];
    if (nset == ways) {
        for (w = 0; w < ways; w++) mru[w] = 0;
        mru[way] = 1;
    }
    return hit;
}

/* Fused phase-1/2 pass: decode each address to a line, replay the L1
 * and (on L1 miss) L2 Bit-PLRU filters inline in access order, and
 * emit the compact LLC-visible stream.  A level with zero sets is
 * skipped (config None on the Python side).  Outputs: visible_idx /
 * vis_lines / vis_writes hold the first out[0] surviving accesses;
 * out[1..4] are L1 {hits, misses, evictions, writebacks} and
 * out[5..8] the same for L2.  ws carves 3*total+sets per level. */
void k_private_filter(const i64 *addrs, const u8 *writes, i64 n,
                      i64 line_shift, i64 l1_sets, i64 l1_ways, i64 l1_pow2,
                      i64 l2_sets, i64 l2_ways, i64 l2_pow2,
                      i64 *visible_idx, i64 *vis_lines, u8 *vis_writes,
                      i64 *ws, i64 *out)
{
    i64 l1_total = l1_sets * l1_ways;
    i64 l2_total = l2_sets * l2_ways;
    i64 *l1_res = ws;
    i64 *l1_mru = ws + l1_total;
    i64 *l1_dirty = ws + 2 * l1_total;
    i64 *l1_filled = ws + 3 * l1_total;
    i64 *l2_res = l1_filled + l1_sets;
    i64 *l2_mru = l2_res + l2_total;
    i64 *l2_dirty = l2_mru + l2_total;
    i64 *l2_filled = l2_dirty + l2_total;
    i64 k, m = 0;
    for (k = 0; k < l1_total; k++) {
        l1_res[k] = -1; l1_mru[k] = 0; l1_dirty[k] = 0;
    }
    for (k = 0; k < l1_sets; k++) l1_filled[k] = 0;
    for (k = 0; k < l2_total; k++) {
        l2_res[k] = -1; l2_mru[k] = 0; l2_dirty[k] = 0;
    }
    for (k = 0; k < l2_sets; k++) l2_filled[k] = 0;
    for (k = 0; k < n; k++) {
        i64 line = addrs[k] >> line_shift;
        i64 write = writes[k];
        i64 hit = 0;
        if (l1_sets) {
            i64 s = l1_pow2 ? (line & (l1_sets - 1)) : (line % l1_sets);
            hit = plru_access(l1_res + s * l1_ways, l1_mru + s * l1_ways,
                              l1_dirty + s * l1_ways, l1_filled + s,
                              l1_ways, line, write, out + 1);
        }
        if (!hit && l2_sets) {
            i64 s = l2_pow2 ? (line & (l2_sets - 1)) : (line % l2_sets);
            hit = plru_access(l2_res + s * l2_ways, l2_mru + s * l2_ways,
                              l2_dirty + s * l2_ways, l2_filled + s,
                              l2_ways, line, write, out + 5);
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
 * with cap a power of two > n (so a free slot always exists). */
void k_next_use(const i64 *lines, i64 n, i64 cap, i64 *ws, i64 *next_use)
{
    i64 *keys = ws;
    i64 *vals = ws + cap;
    i64 k, kk;
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

/* Stable counting sort by precomputed set index: the same counts /
 * order / sorted_lines / sorted_writes quadruple engine.py builds
 * with np.argsort(kind="stable") + fancy indexing.  ws carves one
 * cursor per set. */
void k_set_partition(const i64 *lines, const u8 *writes, const i64 *sidx,
                     i64 n, i64 num_sets, i64 *counts, i64 *order,
                     i64 *sorted_lines, u8 *sorted_writes, i64 *ws)
{
    i64 *cursor = ws;
    i64 k, s, run = 0;
    for (s = 0; s < num_sets; s++) counts[s] = 0;
    for (k = 0; k < n; k++) counts[sidx[k]]++;
    for (s = 0; s < num_sets; s++) { cursor[s] = run; run += counts[s]; }
    for (k = 0; k < n; k++) {
        i64 pos = cursor[sidx[k]]++;
        order[pos] = k;
        sorted_lines[pos] = lines[k];
        sorted_writes[pos] = writes[k];
    }
}

/* ------------------------------------------------------------------ */
/* Access-order replay kernels for the PC-predictor policies.         */
/* ------------------------------------------------------------------ */

/* SHiP-PC: SRRIP substrate plus a global PC-signature history counter
 * table, so the SHCT couples every set and the kernel walks the
 * stream in access order.  ws carves flat (set, way) state
 * {resident, rrpv, sig, reused, dirty}, per-set fill counters, and
 * the KERNEL_SIG_SPACE-entry SHCT. */
void k_ship(const i64 *lines, const u8 *writes, const u8 *pcs,
            const i64 *sidx, i64 n, i64 num_sets, i64 ways, i64 rmax,
            i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 total = num_sets * ways;
    i64 *resident = ws;
    i64 *rrpv = ws + total;
    i64 *sig = ws + 2 * total;
    i64 *reused = ws + 3 * total;
    i64 *dirty = ws + 4 * total;
    i64 *filled = ws + 5 * total;
    i64 *shct = ws + 5 * total + num_sets;
    i64 k;
    for (k = 0; k < total; k++) {
        resident[k] = -1; rrpv[k] = rmax; sig[k] = 0; reused[k] = 0;
        dirty[k] = 0;
    }
    for (k = 0; k < num_sets; k++) filled[k] = 0;
    for (k = 0; k < KERNEL_SIG_SPACE; k++) shct[k] = SHIP_SHCT_INITIAL;
    for (k = 0; k < n; k++) {
        i64 line = lines[k];
        i64 s = sidx[k];
        i64 base = s * ways;
        i64 *res_s = resident + base;
        i64 *rrpv_s = rrpv + base;
        i64 way;
        PROBE(way, res_s, filled[s], line);
        if (way >= 0) {
            hits++;
            if (writes[k]) dirty[base + way] = 1;
            rrpv_s[way] = 0;
            if (!reused[base + way]) {
                reused[base + way] = 1;
                if (shct[sig[base + way]] < SHIP_SHCT_MAX)
                    shct[sig[base + way]]++;
            }
        } else {
            misses++;
            if (filled[s] < ways) {
                way = filled[s]++;
            } else {
                way = rrip_victim(rrpv_s, ways, rmax);
                evics++;
                if (dirty[base + way]) wbs++;
                if (!reused[base + way] && shct[sig[base + way]] > 0)
                    shct[sig[base + way]]--;
            }
            res_s[way] = line;
            dirty[base + way] = writes[k];
            sig[base + way] = pcs[k];
            reused[base + way] = 0;
            rrpv_s[way] = shct[pcs[k]] ? rmax - 1 : rmax;
        }
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
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
 * The predictor couples all sets, so the kernel walks the stream in
 * access order.  Sampled sets are those with set % sample_every == 0;
 * the caller sizes ws with num_sampled = ceil(num_sets / sample_every)
 * occupancy windows and a power-of-two line map of capacity `cap`.
 * ws carves: resident/rrpv/wpc/dirty (4*total), filled (num_sets),
 * predictor (KERNEL_SIG_SPACE), occ (num_sampled*window), occ_start /
 * occ_len / clocks (num_sampled each), hkeys/htime/hpc (cap each).
 * Victim choice is Hawkeye's: first way at RRPV_MAX, else the first
 * way holding the maximum RRPV — no aging pass. */
void k_hawkeye(const i64 *lines, const u8 *writes, const u8 *pcs,
               const i64 *sidx, i64 n, i64 num_sets, i64 ways,
               i64 sample_every, i64 window, i64 cap, i64 *ws, i64 *out)
{
    i64 hits = 0, misses = 0, evics = 0, wbs = 0;
    i64 total = num_sets * ways;
    i64 num_sampled = (num_sets + sample_every - 1) / sample_every;
    i64 *resident = ws;
    i64 *rrpv = ws + total;
    i64 *wpc = ws + 2 * total;
    i64 *dirty = ws + 3 * total;
    i64 *filled = ws + 4 * total;
    i64 *predictor = filled + num_sets;
    i64 *occ = predictor + KERNEL_SIG_SPACE;
    i64 *occ_start = occ + num_sampled * window;
    i64 *occ_len = occ_start + num_sampled;
    i64 *clocks = occ_len + num_sampled;
    i64 *hkeys = clocks + num_sampled;
    i64 *htime = hkeys + cap;
    i64 *hpc = htime + cap;
    i64 k, w;
    for (k = 0; k < total; k++) {
        resident[k] = -1; rrpv[k] = HAWKEYE_RRPV_MAX; wpc[k] = 0;
        dirty[k] = 0;
    }
    for (k = 0; k < num_sets; k++) filled[k] = 0;
    for (k = 0; k < KERNEL_SIG_SPACE; k++)
        predictor[k] = HAWKEYE_COUNTER_INITIAL;
    for (k = 0; k < num_sampled; k++) {
        occ_start[k] = 0; occ_len[k] = 0; clocks[k] = 0;
    }
    for (k = 0; k < cap; k++) hkeys[k] = -1;
    for (k = 0; k < n; k++) {
        i64 line = lines[k];
        i64 s = sidx[k];
        i64 pc = pcs[k];
        i64 base = s * ways;
        i64 *res_s = resident + base;
        i64 *rrpv_s = rrpv + base;
        i64 sampled = (s % sample_every) == 0;
        i64 way;
        PROBE(way, res_s, filled[s], line);
        if (way >= 0) {
            hits++;
            if (writes[k]) dirty[base + way] = 1;
            if (sampled)
                hawkeye_train(s / sample_every, line, pc, ways, window,
                              cap, occ, occ_start, occ_len, clocks,
                              hkeys, htime, hpc, predictor);
            wpc[base + way] = pc;
            if (predictor[pc] >= HAWKEYE_COUNTER_INITIAL) rrpv_s[way] = 0;
        } else {
            misses++;
            if (filled[s] < ways) {
                way = filled[s]++;
            } else {
                i64 vpc;
                way = -1;
                for (w = 0; w < ways; w++)
                    if (rrpv_s[w] == HAWKEYE_RRPV_MAX) { way = w; break; }
                if (way < 0) {
                    i64 top = rrpv_s[0];
                    way = 0;
                    for (w = 1; w < ways; w++)
                        if (rrpv_s[w] > top) { top = rrpv_s[w]; way = w; }
                }
                evics++;
                if (dirty[base + way]) wbs++;
                vpc = wpc[base + way];
                if (predictor[vpc] >= HAWKEYE_COUNTER_INITIAL &&
                    predictor[vpc] > 0)
                    predictor[vpc]--;
            }
            res_s[way] = line;
            dirty[base + way] = writes[k];
            if (sampled)
                hawkeye_train(s / sample_every, line, pc, ways, window,
                              cap, occ, occ_start, occ_len, clocks,
                              hkeys, htime, hpc, predictor);
            wpc[base + way] = pc;
            if (predictor[pc] >= HAWKEYE_COUNTER_INITIAL) {
                for (w = 0; w < ways; w++)
                    if (w != way && rrpv_s[w] < HAWKEYE_RRPV_MAX - 1)
                        rrpv_s[w]++;
                rrpv_s[way] = 0;
            } else {
                rrpv_s[way] = HAWKEYE_RRPV_MAX;
            }
        }
    }
    out[0] += hits; out[1] += misses; out[2] += evics; out[3] += wbs;
}
