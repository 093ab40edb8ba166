"""Set-partitioned LLC replay kernels (phase-3 fast paths).

The three-phase engine (:mod:`repro.sim.engine`) reduced a policy sweep
to "replay the LLC-visible stream per policy", but that replay still
walked ``SetAssociativeCache.access`` once per access: a tag probe, a
stats update, two or three policy callbacks through ``AccessContext`` —
and, at graph-workload LLC miss rates, one or two *raised exceptions*
per miss from the ``list.index``/``ValueError`` residency idiom. For the
simple policies that dominate sweeps, all of that is avoidable — each
kernel here replays the whole stream in one tight loop and returns the
final :class:`~repro.cache.stats.CacheStats`, bit-identical to the
reference path (the equivalence suite in ``tests/sim/test_engine.py``
proves it).

Each kernel exists in two forms. The **pure-Python** loop below is the
executable specification; a **compiled** transliteration of the same
loop (``kernels.c``, built on demand and loaded via
:mod:`repro.sim.ckernels`) runs instead whenever a system C compiler is
available, and falls back transparently when it is not (or when
``REPRO_PURE_KERNELS=1`` forces the pure path). Both forms consume the
same cached numpy partitions off the
:class:`~repro.sim.engine.PrivateFilter`.

Shared bit-identical transformations (vs. ``SetAssociativeCache``):

- *Residency* is a per-set dict ``line -> way`` (a linear tag scan in
  C) instead of an exception-raising list probe: a set's ways always
  hold distinct lines, so both answer exactly what ``tags.index(line)``
  answers, without raising on a miss.
- *Invalid-way fills* use a monotone ``filled`` counter: the cache fills
  the lowest invalid way, ways are never invalidated, so invalid ways
  are exactly ``filled..num_ways-1``.
- *RRIP aging* bumps once by ``rmax - max(rrpv)`` and then scans: the
  reference's age-until-found loop always terminates after one bump, at
  the same first-index victim.

Two kernel shapes:

**Set-partitioned** (LRU, LIP, Bit-PLRU, Random, SRRIP, OPT) — these
policies keep no state that couples cache sets, so the accesses are
grouped by set index with one vectorized stable sort (cached on the
``PrivateFilter`` per LLC set count) and each set is simulated over its
own compact subsequence. Correctness argument per policy:

- *LRU / LIP*: the reference's global clock is only ever **compared**
  within a set, so a per-set clock that preserves the relative order of
  touches yields identical victims. Hits always stamp a fresh per-set
  maximum; LIP fills stamp ``min - 1``, a fresh per-set minimum — the
  order relations (and tie structure) match the reference exactly. The
  pure LRU loop goes one step further: stamps are all distinct, so the
  minimum is unique and recency order *is* dict insertion order — the
  set's lines live in one dict ordered LRU-first (hit = pop +
  re-insert at the MRU end, victim = first key), no stamp scan at all.
- *Bit-PLRU / SRRIP*: all metadata is per-set already.
- *Random*: per-set RNG streams (see
  :meth:`~repro.policies.random_policy.RandomReplacement.rng_for_set`),
  so the draw sequence inside a set does not depend on interleaving.
  (Pure-Python only: a compiled form would have to reproduce CPython's
  Mersenne Twister ``randrange`` bit for bit — per-set draws cannot be
  pre-generated without knowing each set's eviction count, which is the
  kernel's own output.)
- *OPT*: victims are chosen by ``argmax`` of stored next-use positions.
  The kernel stores **compact** (LLC-visible-stream) positions where the
  reference stores original-trace positions; the original->compact
  mapping is strictly increasing (with "no next use" mapping to the
  respective stream length), so every comparison — including first-max
  tie-breaks — is preserved.

**Access-order** (BRRIP, DRRIP) — a single seeded RNG (and DRRIP's
global PSEL set-dueling counter) couples the sets through the order of
fills, so these kernels keep the original access order and inline the
RRPV/PSEL updates. For the compiled form the fill draws are
pre-generated in Python with the policy's own ``random.Random`` (one
per access is a safe upper bound on fills) and handed over as a float64
array — consumption order matches the reference's lazy draws exactly.

**Next-ref** (T-OPT, P-OPT) — the paper's own policies, with the
region-membership scan hoisted out of the loop: every access's line is
resolved against the irregular base/bound regions once per prepared
run (:meth:`~repro.sim.engine.PrivateFilter.stream_membership`), each
way remembers its resident line's annotation, and the victim scan is a
binary search over T-OPT's flat refs CSR / inlined Algorithm 2
arithmetic over the Rereference Matrix rows. T-OPT is set-partitioned
(no cross-set state, additive counters); P-OPT runs in access order
because its DRRIP tie-break carries the same PSEL/RNG coupling as
:func:`kernel_drrip`. Both write the engine-cost counters the timing
model and Fig. 15 consume back onto the policy instance, bit-identical
to the generic path.

Dispatch: policies advertise a kernel name via
:meth:`~repro.policies.base.ReplacementPolicy.replay_kernel` (backed by
the exact-type table in :mod:`repro.policies.registry`);
:func:`resolve_kernel` maps the name to a callable here. Kernels read
only *constructor* products off the policy instance (seed, RRPV width,
precomputed refs/matrices, ...) — the instance is never bound to a
cache — and only the next-ref kernels write anything back (their
replay counters).

Hot-path hygiene: the ``.tolist()``/array preambles below run once per
replay, outside the loops; simlint's ``kernels`` rule family checks
that no boxing or per-access list growth creeps *into* the loops.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cache.cache import INVALID_TAG
from ..cache.config import CacheConfig
from ..cache.stats import CacheStats
from ..errors import SimulationError
from ..policies.random_policy import RandomReplacement
from ..policies.rrip import BRRIP
from ..popt.arch import PoptCounters
from . import ckernels, worker_state
from .constants import (
    HAWKEYE_COUNTER_INITIAL,
    HAWKEYE_COUNTER_MAX,
    HAWKEYE_RRPV_MAX,
    KERNEL_SIG_SPACE,
    POPT_SPARAM_SLOTS,
    POPT_STREAMING_NEXT_REF,
    RM_VARIANT_CODES,
    SHIP_SHCT_INITIAL,
    SHIP_SHCT_MAX,
    TOPT_NEVER,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PrivateFilter

__all__ = [
    "KernelRequest",
    "KERNEL_TABLE",
    "resolve_kernel",
    "replay_bit_plru_stream",
    "fused_private_filter",
    "compiled_next_use",
    "compiled_set_partition",
]


@dataclass
class KernelRequest:
    """Everything a replay kernel needs for one (policy, geometry) run."""

    config: CacheConfig       # effective LLC geometry (post way-reservation)
    policy: object            # unbound policy instance (parameters only)
    filt: "PrivateFilter"     # LLC-visible stream + cached partitions


def _finish(
    config: CacheConfig,
    hits: int,
    misses: int,
    evictions: int,
    writebacks: int,
) -> CacheStats:
    stats = CacheStats(config.name)
    stats.accesses = hits + misses
    stats.hits = hits
    stats.misses = misses
    stats.evictions = evictions
    stats.writebacks = writebacks
    return stats


# ----------------------------------------------------------------------
# Compiled fast path (ckernels types every pointer parameter, so arrays
# are passed as-is and a wrong dtype or layout raises at the call)
# ----------------------------------------------------------------------

def _ws(size: int) -> np.ndarray:
    """Scratch workspace for a compiled kernel (malloc-free C: every
    kernel carves its per-set/per-way state out of one caller-owned
    int64 array and initializes it itself, so ``empty`` is safe)."""
    return np.empty(int(size), dtype=np.int64)


def _c_partitioned(clib, name: str, req: KernelRequest) -> CacheStats:
    """Invoke a plain set-partitioned C kernel:
    ``fn(lines, writes, counts, num_sets, ways, ws, out)``."""
    config = req.config
    counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
    out = np.zeros(4, dtype=np.int64)
    getattr(clib, name)(
        slines, swrites, counts,
        config.num_sets, config.num_ways,
        _ws(3 * config.num_ways), out,
    )
    return _finish(config, *out.tolist())


def _fill_draws(seed: int, n: int) -> np.ndarray:
    """Pre-generate the fill-order RNG draws a BRRIP-family replay may
    consume: the same ``random.Random(seed).random()`` sequence the
    reference policy draws lazily, one per access as an upper bound on
    fills (the compiled kernel consumes a prefix in identical order).

    numpy's MT19937 is the same Mersenne Twister as CPython's, and both
    turn two 32-bit words into a double with the same ``genrand_res53``
    formula, so loading ``random.Random(seed)``'s 624-word state and
    position into it yields that exact sequence in one vectorized call.
    """
    _, internal, _ = random.Random(seed).getstate()
    bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    return np.random.Generator(bits).random(n)


# ----------------------------------------------------------------------
# Private-level replay (shared with the engine's filter construction)
# ----------------------------------------------------------------------


def replay_bit_plru_stream(
    lines: np.ndarray, writes: np.ndarray, config: CacheConfig
) -> Tuple[np.ndarray, CacheStats]:
    """Exact Bit-PLRU set-associative replay of one private level.

    Returns ``(hit_mask, stats)`` where ``hit_mask[i]`` says whether
    access ``i`` (of the stream this level observes) hit. Semantically
    identical to ``SetAssociativeCache(config, BitPLRU())`` fed the same
    stream — same fill, eviction, dirty, and MRU-bit rules — but grouped
    by set: a stable argsort partitions the accesses into per-set
    subsequences (sets never interact), and each set is simulated with a
    tight loop (compiled when available) using the kernels'
    dict-residency scheme.
    """
    n = len(lines)
    stats = CacheStats(config.name)
    hit_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return hit_mask, stats
    num_sets = config.num_sets
    num_ways = config.num_ways
    if config.sets_are_power_of_two:
        set_idx = lines & (num_sets - 1)
    else:
        set_idx = lines % num_sets
    order = np.argsort(set_idx, kind="stable")
    counts = np.bincount(set_idx, minlength=num_sets).astype(
        np.int64, copy=False
    )
    sorted_lines_arr = np.ascontiguousarray(lines[order], dtype=np.int64)
    sorted_writes_arr = np.ascontiguousarray(writes[order], dtype=np.uint8)

    clib = ckernels.lib()
    if clib is not None:
        counts64 = counts.astype(np.int64)
        hit_sorted = np.zeros(n, dtype=np.uint8)
        out = np.zeros(4, dtype=np.int64)
        clib.k_bit_plru_mask(
            sorted_lines_arr, sorted_writes_arr, counts64,
            num_sets, num_ways, hit_sorted,
            _ws(3 * num_ways), out,
        )
        hit_mask[order] = hit_sorted.view(bool)
        hits, misses, evictions, writebacks = out.tolist()
        stats.accesses = n
        stats.hits = hits
        stats.misses = misses
        stats.evictions = evictions
        stats.writebacks = writebacks
        return hit_mask, stats

    sorted_lines = sorted_lines_arr.tolist()
    sorted_writes = sorted_writes_arr.tolist()
    hits = misses = evictions = writebacks = 0
    hit_flags: List[bool] = []
    append_flag = hit_flags.append
    start = 0
    for count in counts.tolist():
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        mru = [False] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = sorted_lines[k]
            way = get(line)
            if way is not None:
                hits += 1
                append_flag(True)
                if sorted_writes[k]:
                    dirty[way] = True
            else:
                misses += 1
                append_flag(False)
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    # Bit-PLRU victim: lowest clear MRU bit (way 0 in the
                    # single-way degenerate case, where all bits stay set).
                    way = mru.index(False) if False in mru else 0
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = sorted_writes[k]
            # Bit-PLRU touch: set the MRU bit; when the last zero bit
            # would disappear, clear every *other* bit.
            mru[way] = True
            if all(mru):
                mru = [False] * num_ways
                mru[way] = True
        start = stop

    hit_mask[order] = hit_flags
    stats.accesses = n
    stats.hits = hits
    stats.misses = misses
    stats.evictions = evictions
    stats.writebacks = writebacks
    return hit_mask, stats


# ----------------------------------------------------------------------
# Fused compiled front-end (phases 1+2 and the filter's products)
# ----------------------------------------------------------------------


def fused_private_filter(
    addresses: np.ndarray,
    writes: np.ndarray,
    line_shift: int,
    l1: Optional[CacheConfig],
    l2: Optional[CacheConfig],
) -> Optional[tuple]:
    """Fused phase-1/2 pass via ``k_private_filter``, or None.

    Decodes each address to a line and replays the L1 and (on L1 miss)
    L2 Bit-PLRU filters inline in access order, emitting the compact
    LLC-visible stream in one C call — no decoded channel arrays, no
    argsort partitions, no boolean-mask fancy-indexing round-trips.
    Access-order replay of independent sets is bit-identical to the
    set-partitioned replay :func:`replay_bit_plru_stream` performs, so
    the emitted stream and per-level stats match the pure construction
    exactly (the fused-front-end equivalence suite proves it).

    Returns ``(visible_idx, lines, writes, l1_stats, l2_stats)`` with
    a level's stats ``None`` when its config is ``None``; returns
    ``None`` when no compiled library is available (pure fallback runs
    in ``engine.build_private_filter``).
    """
    clib = ckernels.lib()
    if clib is None:
        return None
    n = len(addresses)
    addr_arr = np.ascontiguousarray(addresses, dtype=np.int64)
    writes_u8 = np.ascontiguousarray(writes, dtype=np.uint8)
    l1_sets = l1.num_sets if l1 is not None else 0
    l1_ways = l1.num_ways if l1 is not None else 0
    l1_pow2 = 1 if l1 is not None and l1.sets_are_power_of_two else 0
    l2_sets = l2.num_sets if l2 is not None else 0
    l2_ways = l2.num_ways if l2 is not None else 0
    l2_pow2 = 1 if l2 is not None and l2.sets_are_power_of_two else 0
    visible_idx = np.empty(n, dtype=np.int64)
    vis_lines = np.empty(n, dtype=np.int64)
    vis_writes = np.empty(n, dtype=np.uint8)
    out = np.zeros(9, dtype=np.int64)
    scratch = 3 * l1_sets * l1_ways + l1_sets + 3 * l2_sets * l2_ways + l2_sets
    clib.k_private_filter(
        addr_arr, writes_u8, n, line_shift,
        l1_sets, l1_ways, l1_pow2, l2_sets, l2_ways, l2_pow2,
        visible_idx, vis_lines, vis_writes,
        _ws(scratch), out,
    )
    counters = out.tolist()
    m = counters[0]
    l1_stats = _finish(l1, *counters[1:5]) if l1 is not None else None
    l2_stats = _finish(l2, *counters[5:9]) if l2 is not None else None
    return (
        visible_idx[:m].copy(),
        vis_lines[:m].copy(),
        vis_writes[:m].copy().view(np.bool_),
        l1_stats,
        l2_stats,
    )


def compiled_next_use(lines: np.ndarray) -> Optional[np.ndarray]:
    """Compact next-use chain via ``k_next_use``, or None.

    One backward C scan with an open-addressing line map replaces the
    ``np.lexsort`` neighbour-compare in
    :meth:`~repro.sim.engine.PrivateFilter.compact_next_use`; values
    are identical (next position of the same line, stream length when
    never seen again).
    """
    clib = ckernels.lib()
    if clib is None:
        return None
    m = len(lines)
    next_use = np.empty(m, dtype=np.int64)
    if m == 0:
        return next_use
    cap = 1
    while cap < 2 * m:
        cap <<= 1
    lines_arr = np.ascontiguousarray(lines, dtype=np.int64)
    clib.k_next_use(lines_arr, m, cap, _ws(2 * cap), next_use)
    return next_use


def compiled_set_partition(
    lines: np.ndarray,
    writes: np.ndarray,
    set_idx: np.ndarray,
    num_sets: int,
) -> Optional[tuple]:
    """Stable set partition via ``k_set_partition``, or None.

    A counting sort over the precomputed set indices produces the same
    ``(counts, sorted_lines, sorted_writes, order)`` quadruple as the
    ``np.argsort(kind="stable")`` path in
    :meth:`~repro.sim.engine.PrivateFilter.set_partition_arrays`.
    """
    clib = ckernels.lib()
    if clib is None:
        return None
    n = len(lines)
    counts = np.empty(num_sets, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    sorted_lines = np.empty(n, dtype=np.int64)
    sorted_writes = np.empty(n, dtype=np.uint8)
    lines_arr = np.ascontiguousarray(lines, dtype=np.int64)
    writes_arr = np.ascontiguousarray(writes, dtype=np.uint8)
    sidx_arr = np.ascontiguousarray(set_idx, dtype=np.int64)
    clib.k_set_partition(
        lines_arr, writes_arr, sidx_arr, n, num_sets,
        counts, order, sorted_lines, sorted_writes,
        _ws(num_sets),
    )
    return counts, sorted_lines, sorted_writes, order


# ----------------------------------------------------------------------
# Set-partitioned kernels
# ----------------------------------------------------------------------


def kernel_lru(req: KernelRequest) -> CacheStats:
    """Timestamp LRU, one tight loop per set (see module docstring for
    the ordered-dict argument)."""
    clib = ckernels.lib()
    if clib is not None:
        return _c_partitioned(clib, "k_lru", req)
    config = req.config
    num_ways = config.num_ways
    counts, slines, swrites, _ = req.filt.set_partition(config)
    hits = misses = evictions = writebacks = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}   # line -> way; iteration order LRU-first
        pop = where.pop
        dirty = [False] * num_ways
        filled = 0
        for line, write in zip(slines[start:stop], swrites[start:stop]):
            way = pop(line, None)
            if way is not None:
                hits += 1
                if write:
                    dirty[way] = True
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    victim_line = next(iter(where))
                    way = pop(victim_line)
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                dirty[way] = write
            where[line] = way
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_lip(req: KernelRequest) -> CacheStats:
    """LIP: hits promote to a fresh maximum, fills insert at min - 1."""
    clib = ckernels.lib()
    if clib is not None:
        return _c_partitioned(clib, "k_lip", req)
    config = req.config
    num_ways = config.num_ways
    counts, slines, swrites, _ = req.filt.set_partition(config)
    hits = misses = evictions = writebacks = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        stamps = [0] * num_ways
        dirty = [False] * num_ways
        filled = 0
        clock = 0
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
                clock += 1
                stamps[way] = clock
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    way = stamps.index(min(stamps))
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
                # LRU-point insertion: strictly below the current minimum
                # (computed over the victim's stale stamp, exactly like
                # the reference's on_fill).
                stamps[way] = min(stamps) - 1
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_bit_plru(req: KernelRequest) -> CacheStats:
    """Bit-PLRU at the LLC (same rules as the private-level replay)."""
    clib = ckernels.lib()
    if clib is not None:
        return _c_partitioned(clib, "k_bit_plru", req)
    config = req.config
    num_ways = config.num_ways
    counts, slines, swrites, _ = req.filt.set_partition(config)
    hits = misses = evictions = writebacks = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        mru = [False] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    way = mru.index(False) if False in mru else 0
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
            mru[way] = True
            if all(mru):
                mru = [False] * num_ways
                mru[way] = True
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_random(req: KernelRequest) -> CacheStats:
    """Random replacement with the policy's per-set RNG streams
    (pure-Python only — see the module docstring)."""
    config = req.config
    num_ways = config.num_ways
    counts, slines, swrites, _ = req.filt.set_partition(config)
    seed = req.policy._seed
    rng_for_set = RandomReplacement.rng_for_set
    hits = misses = evictions = writebacks = 0
    start = 0
    for set_idx, count in enumerate(counts):
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        dirty = [False] * num_ways
        filled = 0
        draw = rng_for_set(seed, set_idx).randrange
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    way = draw(num_ways)
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_srrip(req: KernelRequest) -> CacheStats:
    """SRRIP: pure per-set RRPV state, long-interval insertion."""
    clib = ckernels.lib()
    if clib is not None:
        config = req.config
        counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
        out = np.zeros(4, dtype=np.int64)
        clib.k_srrip(
            slines, swrites, counts,
            config.num_sets, config.num_ways, req.policy.rrpv_max,
            _ws(3 * config.num_ways), out,
        )
        return _finish(config, *out.tolist())
    config = req.config
    num_ways = config.num_ways
    counts, slines, swrites, _ = req.filt.set_partition(config)
    rmax = req.policy.rrpv_max
    insert = rmax - 1
    hits = misses = evictions = writebacks = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        rrpv = [rmax] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
                rrpv[way] = 0
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    top = max(rrpv)
                    if top != rmax:
                        bump = rmax - top
                        for w in range(num_ways):
                            rrpv[w] += bump
                    way = rrpv.index(rmax)
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
                rrpv[way] = insert
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_opt(req: KernelRequest) -> CacheStats:
    """Belady's MIN over compact (LLC-visible-stream) next-use positions.

    The reference :class:`~repro.policies.opt.BeladyOPT` stores each
    line's next use as an *original trace* position; this kernel stores
    the position within the compacted LLC-visible stream instead (no
    ``AccessContext`` needed — the sorted positions index straight into
    the compact chain). The mapping between the two coordinate systems is
    strictly increasing, so ``index(max(...))`` picks the same victim.
    """
    config = req.config
    clib = ckernels.lib()
    if clib is not None:
        counts, slines, swrites, order = req.filt.set_partition_arrays(
            config
        )
        snext_arr = np.ascontiguousarray(
            req.filt.compact_next_use()[order], dtype=np.int64
        )
        out = np.zeros(4, dtype=np.int64)
        clib.k_opt(
            slines, swrites, snext_arr, counts,
            config.num_sets, config.num_ways,
            _ws(3 * config.num_ways), out,
        )
        return _finish(config, *out.tolist())
    num_ways = config.num_ways
    counts, slines, swrites, order = req.filt.set_partition(config)
    snext = req.filt.compact_next_use()[order].tolist()
    hits = misses = evictions = writebacks = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        line_next = [0] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    way = line_next.index(max(line_next))
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
            line_next[way] = snext[k]
        start = stop
    return _finish(config, hits, misses, evictions, writebacks)


# ----------------------------------------------------------------------
# Access-order kernels (global RNG / set-dueling state couples the sets)
# ----------------------------------------------------------------------


def kernel_brrip(req: KernelRequest) -> CacheStats:
    """BRRIP: one global fill RNG, so the original access order is kept.

    The trickle draw happens once per fill in global order — exactly the
    reference's RNG consumption — which rules out set partitioning; the
    win comes from inlining the RRPV updates (and, compiled, from
    pre-generating the draw sequence).
    """
    config = req.config
    policy = req.policy
    rmax = policy.rrpv_max
    trickle = policy.TRICKLE
    clib = ckernels.lib()
    if clib is not None:
        filt = req.filt
        n = len(filt.lines)
        lines_arr = np.ascontiguousarray(filt.lines, dtype=np.int64)
        writes_arr = np.ascontiguousarray(filt.writes, dtype=np.uint8)
        sidx = filt.set_index_array(config)
        draws = _fill_draws(policy._seed, n)
        out = np.zeros(4, dtype=np.int64)
        clib.k_brrip(
            lines_arr, writes_arr, sidx, n,
            config.num_sets, config.num_ways, rmax, trickle, draws,
            _ws(3 * config.num_sets * config.num_ways + config.num_sets),
            out,
        )
        return _finish(config, *out.tolist())
    num_sets = config.num_sets
    num_ways = config.num_ways
    lines, writes = req.filt.channel_lists("lines", "writes")
    sidx = req.filt.set_index_list(config)
    draw = random.Random(policy._seed).random
    where: List[Dict[int, int]] = [{} for _ in range(num_sets)]
    resident = [[INVALID_TAG] * num_ways for _ in range(num_sets)]
    rrpv = [[rmax] * num_ways for _ in range(num_sets)]
    dirty = [[False] * num_ways for _ in range(num_sets)]
    filled = [0] * num_sets
    hits = misses = evictions = writebacks = 0
    for k in range(len(lines)):
        line = lines[k]
        s = sidx[k]
        where_s = where[s]
        way = where_s.get(line)
        if way is not None:
            hits += 1
            if writes[k]:
                dirty[s][way] = True
            rrpv[s][way] = 0
        else:
            misses += 1
            rrpv_s = rrpv[s]
            if filled[s] < num_ways:
                way = filled[s]
                filled[s] = way + 1
            else:
                top = max(rrpv_s)
                if top != rmax:
                    bump = rmax - top
                    for w in range(num_ways):
                        rrpv_s[w] += bump
                way = rrpv_s.index(rmax)
                evictions += 1
                if dirty[s][way]:
                    writebacks += 1
                del where_s[resident[s][way]]
            resident[s][way] = line
            where_s[line] = way
            dirty[s][way] = writes[k]
            rrpv_s[way] = rmax - 1 if draw() < trickle else rmax
    return _finish(config, hits, misses, evictions, writebacks)


def _drrip_leader_roles(num_sets: int, period: int) -> List[int]:
    """0 = follower, 1 = SRRIP leader, 2 = BRRIP leader (reference map)."""
    leader = [0] * num_sets
    for set_idx in range(num_sets):
        phase = set_idx % period
        if phase == 0:
            leader[set_idx] = 1
        elif phase == period // 2:
            leader[set_idx] = 2
    return leader


def kernel_drrip(req: KernelRequest) -> CacheStats:
    """DRRIP: set-dueling PSEL + global fill RNG, kept in access order.

    Inlines the reference's ``_miss_feedback`` -> role -> insertion
    sequence per fill: leader sets vote PSEL first, then the role (not
    the updated PSEL) decides the leader's own insertion; followers read
    the post-feedback PSEL.
    """
    config = req.config
    policy = req.policy
    num_sets = config.num_sets
    num_ways = config.num_ways
    rmax = policy.rrpv_max
    insert_long = rmax - 1
    trickle = BRRIP.TRICKLE
    psel_max = policy.psel_max
    psel_half = psel_max // 2
    leader = _drrip_leader_roles(num_sets, policy.leader_period)
    clib = ckernels.lib()
    if clib is not None:
        filt = req.filt
        n = len(filt.lines)
        lines_arr = np.ascontiguousarray(filt.lines, dtype=np.int64)
        writes_arr = np.ascontiguousarray(filt.writes, dtype=np.uint8)
        sidx = filt.set_index_array(config)
        draws = _fill_draws(policy._seed, n)
        leader_arr = np.asarray(leader, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        clib.k_drrip(
            lines_arr, writes_arr, sidx, n,
            num_sets, num_ways, rmax, trickle,
            psel_max // 2, psel_max, leader_arr,
            draws,
            _ws(3 * num_sets * num_ways + num_sets), out,
        )
        return _finish(config, *out.tolist())
    lines, writes = req.filt.channel_lists("lines", "writes")
    sidx = req.filt.set_index_list(config)
    draw = random.Random(policy._seed).random
    psel = psel_max // 2
    where: List[Dict[int, int]] = [{} for _ in range(num_sets)]
    resident = [[INVALID_TAG] * num_ways for _ in range(num_sets)]
    rrpv = [[rmax] * num_ways for _ in range(num_sets)]
    dirty = [[False] * num_ways for _ in range(num_sets)]
    filled = [0] * num_sets
    hits = misses = evictions = writebacks = 0
    for k in range(len(lines)):
        line = lines[k]
        s = sidx[k]
        where_s = where[s]
        way = where_s.get(line)
        if way is not None:
            hits += 1
            if writes[k]:
                dirty[s][way] = True
            rrpv[s][way] = 0
        else:
            misses += 1
            rrpv_s = rrpv[s]
            if filled[s] < num_ways:
                way = filled[s]
                filled[s] = way + 1
            else:
                top = max(rrpv_s)
                if top != rmax:
                    bump = rmax - top
                    for w in range(num_ways):
                        rrpv_s[w] += bump
                way = rrpv_s.index(rmax)
                evictions += 1
                if dirty[s][way]:
                    writebacks += 1
                del where_s[resident[s][way]]
            resident[s][way] = line
            where_s[line] = way
            dirty[s][way] = writes[k]
            role = leader[s]
            if role == 1:
                if psel < psel_max:
                    psel += 1  # SRRIP leader missed -> lean BRRIP
                use_brrip = False
            elif role == 2:
                if psel > 0:
                    psel -= 1  # BRRIP leader missed -> lean SRRIP
                use_brrip = True
            else:
                use_brrip = psel > psel_half
            if not use_brrip:
                rrpv_s[way] = insert_long
            else:
                rrpv_s[way] = insert_long if draw() < trickle else rmax
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_ship(req: KernelRequest) -> CacheStats:
    """SHiP-PC: SRRIP substrate + global signature history table.

    The SHCT couples every set through PC signatures, so the kernel
    keeps access order. Trace PCs are uint8 region tags, so the
    reference's ``defaultdict`` SHCT becomes a dense
    ``KERNEL_SIG_SPACE``-entry counter array with identical semantics
    (counters saturate in ``[0, SHCT_MAX]`` from ``SHCT_INITIAL``).
    Only the PC-signature flavor dispatches here (``SHiP.replay_kernel``
    gates on ``signature_kind``); SHiP-Mem stays on the generic path.
    """
    config = req.config
    policy = req.policy
    num_sets = config.num_sets
    num_ways = config.num_ways
    rmax = policy.rrpv_max
    shct_max = policy.SHCT_MAX
    shct_init = policy.SHCT_INITIAL
    clib = ckernels.lib()
    if (
        clib is not None
        and (shct_max, shct_init) == (SHIP_SHCT_MAX, SHIP_SHCT_INITIAL)
    ):
        filt = req.filt
        n = len(filt.lines)
        lines_arr = np.ascontiguousarray(filt.lines, dtype=np.int64)
        writes_arr = np.ascontiguousarray(filt.writes, dtype=np.uint8)
        pcs_arr = np.ascontiguousarray(filt.pcs, dtype=np.uint8)
        sidx = filt.set_index_array(config)
        out = np.zeros(4, dtype=np.int64)
        clib.k_ship(
            lines_arr, writes_arr, pcs_arr, sidx, n,
            num_sets, num_ways, rmax,
            _ws(5 * num_sets * num_ways + num_sets + KERNEL_SIG_SPACE),
            out,
        )
        return _finish(config, *out.tolist())
    lines, pcs, writes = req.filt.channel_lists("lines", "pcs", "writes")
    sidx = req.filt.set_index_list(config)
    shct = [shct_init] * KERNEL_SIG_SPACE
    where: List[Dict[int, int]] = [{} for _ in range(num_sets)]
    resident = [[INVALID_TAG] * num_ways for _ in range(num_sets)]
    rrpv = [[rmax] * num_ways for _ in range(num_sets)]
    sig = [[0] * num_ways for _ in range(num_sets)]
    reused = [[False] * num_ways for _ in range(num_sets)]
    dirty = [[False] * num_ways for _ in range(num_sets)]
    filled = [0] * num_sets
    hits = misses = evictions = writebacks = 0
    for k in range(len(lines)):
        line = lines[k]
        s = sidx[k]
        where_s = where[s]
        way = where_s.get(line)
        if way is not None:
            hits += 1
            if writes[k]:
                dirty[s][way] = True
            rrpv[s][way] = 0
            if not reused[s][way]:
                reused[s][way] = True
                sg = sig[s][way]
                if shct[sg] < shct_max:
                    shct[sg] += 1
        else:
            misses += 1
            rrpv_s = rrpv[s]
            if filled[s] < num_ways:
                way = filled[s]
                filled[s] = way + 1
            else:
                top = max(rrpv_s)
                if top != rmax:
                    bump = rmax - top
                    for w in range(num_ways):
                        rrpv_s[w] += bump
                way = rrpv_s.index(rmax)
                evictions += 1
                if dirty[s][way]:
                    writebacks += 1
                if not reused[s][way]:
                    sg = sig[s][way]
                    if shct[sg] > 0:
                        shct[sg] -= 1
                del where_s[resident[s][way]]
            resident[s][way] = line
            where_s[line] = way
            dirty[s][way] = writes[k]
            pc = pcs[k]
            sig[s][way] = pc
            reused[s][way] = False
            rrpv_s[way] = rmax if shct[pc] == 0 else rmax - 1
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_hawkeye(req: KernelRequest) -> CacheStats:
    """Hawkeye: sampled OPTgen + PC predictor, kept in access order.

    The predictor couples every set, so the stream is replayed in
    original order with per-sampled-set OPTgen state. Two
    transformations versus :mod:`repro.policies.hawkeye`, both
    verdict-preserving:

    - The occupancy vector becomes a fixed ``window``-length circular
      buffer (append + head-trim never lets it grow past ``window``).
    - The per-set ``last_access`` dicts (which the reference prunes for
      memory) become one unpruned map keyed by line: a line maps to
      exactly one set, and a pruned entry would fail the
      ``clock - previous <= window`` liveness test at any later lookup
      anyway, so verdicts are identical.

    PCs are uint8, so the predictor is a dense ``KERNEL_SIG_SPACE``
    counter array. Victim choice is Hawkeye's own (first way at
    ``RRPV_MAX``, else first way at the maximum RRPV — no aging).
    """
    config = req.config
    policy = req.policy
    num_sets = config.num_sets
    num_ways = config.num_ways
    rmax = policy.RRPV_MAX
    cmax = policy.COUNTER_MAX
    cinit = policy.COUNTER_INITIAL
    sample_every = policy.sample_every
    window = policy.history_factor * num_ways
    clib = ckernels.lib()
    if (
        clib is not None
        and (rmax, cmax, cinit)
        == (HAWKEYE_RRPV_MAX, HAWKEYE_COUNTER_MAX, HAWKEYE_COUNTER_INITIAL)
    ):
        filt = req.filt
        n = len(filt.lines)
        lines_arr = np.ascontiguousarray(filt.lines, dtype=np.int64)
        writes_arr = np.ascontiguousarray(filt.writes, dtype=np.uint8)
        pcs_arr = np.ascontiguousarray(filt.pcs, dtype=np.uint8)
        sidx = filt.set_index_array(config)
        num_sampled = (num_sets + sample_every - 1) // sample_every
        cap = 1
        while cap < 2 * (n + 1):
            cap <<= 1
        total = num_sets * num_ways
        scratch = (
            4 * total + num_sets + KERNEL_SIG_SPACE
            + num_sampled * (window + 3) + 3 * cap
        )
        out = np.zeros(4, dtype=np.int64)
        clib.k_hawkeye(
            lines_arr, writes_arr, pcs_arr, sidx, n,
            num_sets, num_ways, sample_every, window, cap,
            _ws(scratch), out,
        )
        return _finish(config, *out.tolist())
    lines, pcs, writes = req.filt.channel_lists("lines", "pcs", "writes")
    sidx = req.filt.set_index_list(config)
    predictor = [cinit] * KERNEL_SIG_SPACE
    occ: List[Optional[List[int]]] = [None] * num_sets
    occ_start = [0] * num_sets
    occ_len = [0] * num_sets
    clocks = [0] * num_sets
    last_time: List[Optional[Dict[int, int]]] = [None] * num_sets
    last_pc: List[Optional[Dict[int, int]]] = [None] * num_sets
    for s in range(0, num_sets, sample_every):
        occ[s] = [0] * window
        last_time[s] = {}
        last_pc[s] = {}

    def train(s: int, line: int, pc: int) -> None:
        # One OPTgen training step (record + predictor update) for a
        # sampled set -- inlined _SetHistory.record over the circular
        # occupancy buffer.
        oc = occ[s]
        st = occ_start[s]
        olen = occ_len[s]
        ck = clocks[s]
        lt = last_time[s]
        prev = lt.get(line)
        verdict = None
        if prev is not None and ck - prev <= window:
            start_off = prev - (ck - olen)
            if start_off >= 0:
                ok = True
                for j in range(start_off, olen):
                    if oc[(st + j) % window] >= num_ways:
                        ok = False
                        break
                if ok:
                    for j in range(start_off, olen):
                        oc[(st + j) % window] += 1
                    verdict = True
                else:
                    verdict = False
        if olen < window:
            oc[(st + olen) % window] = 0
            occ_len[s] = olen + 1
        else:
            oc[st] = 0
            occ_start[s] = (st + 1) % window
        lt[line] = ck
        clocks[s] = ck + 1
        lp = last_pc[s]
        tpc = lp.get(line)
        if verdict is not None and tpc is not None:
            c = predictor[tpc]
            if verdict:
                if c < cmax:
                    predictor[tpc] = c + 1
            elif c > 0:
                predictor[tpc] = c - 1
        lp[line] = pc

    where: List[Dict[int, int]] = [{} for _ in range(num_sets)]
    resident = [[INVALID_TAG] * num_ways for _ in range(num_sets)]
    rrpv = [[rmax] * num_ways for _ in range(num_sets)]
    line_pc = [[0] * num_ways for _ in range(num_sets)]
    dirty = [[False] * num_ways for _ in range(num_sets)]
    filled = [0] * num_sets
    age_cap = rmax - 1
    hits = misses = evictions = writebacks = 0
    for k in range(len(lines)):
        line = lines[k]
        s = sidx[k]
        pc = pcs[k]
        where_s = where[s]
        way = where_s.get(line)
        if way is not None:
            hits += 1
            if writes[k]:
                dirty[s][way] = True
            if occ[s] is not None:
                train(s, line, pc)
            line_pc[s][way] = pc
            if predictor[pc] >= cinit:
                rrpv[s][way] = 0
        else:
            misses += 1
            rrpv_s = rrpv[s]
            if filled[s] < num_ways:
                way = filled[s]
                filled[s] = way + 1
            else:
                way = (
                    rrpv_s.index(rmax) if rmax in rrpv_s
                    else rrpv_s.index(max(rrpv_s))
                )
                evictions += 1
                if dirty[s][way]:
                    writebacks += 1
                vpc = line_pc[s][way]
                if predictor[vpc] >= cinit and predictor[vpc] > 0:
                    predictor[vpc] -= 1
                del where_s[resident[s][way]]
            resident[s][way] = line
            where_s[line] = way
            dirty[s][way] = writes[k]
            if occ[s] is not None:
                train(s, line, pc)
            line_pc[s][way] = pc
            if predictor[pc] >= cinit:
                for w in range(num_ways):
                    if w != way and rrpv_s[w] < age_cap:
                        rrpv_s[w] += 1
                rrpv_s[way] = 0
            else:
                rrpv_s[way] = rmax
    return _finish(config, hits, misses, evictions, writebacks)


# ----------------------------------------------------------------------
# Next-ref kernels (the paper's own policies: T-OPT and P-OPT)
# ----------------------------------------------------------------------


#: Streaming ways rank as "infinitely far" when P-OPT is configured not
#: to prefer them outright (matches ``POPT.choose_victim``); shared with
#: the reference policy via :mod:`repro.sim.constants`.
_POPT_STREAMING_REF = POPT_STREAMING_NEXT_REF

#: Rereference Matrix variant codes shared by the pure and C forms
#: (the registry copy — ``kernels.c`` parity-checks its ``#define``s).
_RM_VARIANT_CODES = RM_VARIANT_CODES


def _region_bounds(policy) -> tuple:
    """(line_base, line_bound) pairs of a next-ref policy's regions."""
    return tuple(
        (line_base, line_bound)
        for line_base, line_bound, _ in policy._regions
    )


def _topt_annotations(req: KernelRequest) -> tuple:
    """Per-access refs-slice bounds, in set-partition order.

    Resolves every access's line against the irregular regions ONCE
    (vectorized, via the filter's cached membership) into ``(lo, hi)``
    slices of T-OPT's flat refs array — ``lo = -1`` marks streaming
    lines — then gathers them (and the vertex channel) into the same
    per-set order as :meth:`PrivateFilter.set_partition_arrays`.
    """
    policy = req.policy
    filt = req.filt
    sid, off = filt.stream_membership(_region_bounds(policy))
    lo = np.full(len(sid), -1, dtype=np.int64)
    hi = np.full(len(sid), -1, dtype=np.int64)
    for index, (_, _, offsets) in enumerate(policy._regions):
        match = sid == index
        if match.any():
            offs = off[match]
            lo[match] = offsets[offs]
            hi[match] = offsets[offs + 1]
    order = filt.set_partition_arrays(req.config)[3]
    return (
        np.ascontiguousarray(lo[order]),
        np.ascontiguousarray(hi[order]),
        filt.set_partition_vertices(req.config),
    )


def kernel_topt(req: KernelRequest) -> CacheStats:
    """T-OPT: set-partitioned Belady emulation over the flat refs CSR.

    T-OPT keeps no cross-set state and both of its counters
    (``replacements``, ``transpose_walk_elements``) are sums over
    per-eviction work, so the set-partitioned shape applies. Each way
    remembers the (lo, hi) refs slice of its resident line (annotated
    per access in the preamble — no region scan in the loop); a victim
    scan binary-searches each slice for the current outer vertex,
    accounting the same walk elements as ``TOPT._next_ref``, and the
    first streaming way (``lo < 0``) short-circuits exactly like the
    reference. Counters are written back onto the policy instance so
    the timing model reads identical values from every engine.
    """
    config = req.config
    policy = req.policy
    num_ways = config.num_ways
    slo_arr, shi_arr, sverts_arr = _topt_annotations(req)
    clib = ckernels.lib()
    if clib is not None:
        counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
        out = np.zeros(4, dtype=np.int64)
        cnt = np.zeros(2, dtype=np.int64)
        clib.k_topt(
            slines, swrites, sverts_arr,
            slo_arr, shi_arr, policy._refs_arr,
            counts, config.num_sets, num_ways,
            _ws(4 * num_ways), out, cnt,
        )
        policy.replacements = int(cnt[0])
        policy.transpose_walk_elements = int(cnt[1])
        return _finish(config, *out.tolist())
    counts, slines, swrites, _ = req.filt.set_partition(config)
    slo = slo_arr.tolist()
    shi = shi_arr.tolist()
    sverts = sverts_arr.tolist()
    refs = policy._refs
    search = bisect.bisect_left
    never = TOPT_NEVER
    hits = misses = evictions = writebacks = 0
    replacements = walk = 0
    start = 0
    for count in counts:
        if not count:
            continue
        stop = start + count
        where: Dict[int, int] = {}
        get = where.get
        resident = [INVALID_TAG] * num_ways
        way_lo = [0] * num_ways
        way_hi = [0] * num_ways
        dirty = [False] * num_ways
        filled = 0
        for k in range(start, stop):
            line = slines[k]
            way = get(line)
            if way is not None:
                hits += 1
                if swrites[k]:
                    dirty[way] = True
            else:
                misses += 1
                if filled < num_ways:
                    way = filled
                    filled += 1
                else:
                    replacements += 1
                    vertex = sverts[k]
                    victim = -1
                    best_way = 0
                    best_ref = -1
                    for w in range(num_ways):
                        lo = way_lo[w]
                        if lo < 0:
                            # Streaming way: evicted immediately, and the
                            # remaining ways are never examined.
                            victim = w
                            break
                        hi = way_hi[w]
                        idx = search(refs, vertex, lo, hi)
                        stepped = idx - lo
                        walk += stepped if stepped > 1 else 1
                        ref = never if idx >= hi else refs[idx]
                        if ref > best_ref:
                            best_ref = ref
                            best_way = w
                    way = victim if victim >= 0 else best_way
                    evictions += 1
                    if dirty[way]:
                        writebacks += 1
                    del where[resident[way]]
                resident[way] = line
                where[line] = way
                dirty[way] = swrites[k]
                way_lo[way] = slo[k]
                way_hi[way] = shi[k]
        start = stop
    policy.replacements = replacements
    policy.transpose_walk_elements = walk
    return _finish(config, hits, misses, evictions, writebacks)


def kernel_popt(req: KernelRequest) -> CacheStats:
    """P-OPT: access-order replay with inlined Algorithm 2 + DRRIP.

    The DRRIP tie-break's set-dueling PSEL and global fill RNG couple
    the sets exactly as in :func:`kernel_drrip`, so the access order is
    kept (``POPT.replay_kernel`` only advertises this kernel when the
    tie-break is exactly DRRIP). Region membership is resolved once in
    the preamble; each way remembers its resident line's (stream, RM
    row) so a victim scan is pure Algorithm 2 arithmetic per way, with
    the reference's counter semantics: ``rm_lookups`` per irregular way
    examined, first-streaming-way short-circuit (when preferred), and
    first-max + DRRIP-RRPV resolution over tied ways.

    Epoch accounting is replay-independent — ``_note_epoch`` fires once
    per LLC-visible access (hit or fill), so ``epoch_transitions`` is
    the number of epoch changes along the vertex channel and
    ``bytes_streamed`` is one column per stream per transition —
    computed vectorized up front and written back with the scan
    counters as a fresh :class:`~repro.popt.arch.PoptCounters`.
    """
    config = req.config
    policy = req.policy
    filt = req.filt
    num_sets = config.num_sets
    num_ways = config.num_ways
    tie = policy._tie_break
    rmax = tie.rrpv_max
    insert_long = rmax - 1
    trickle = BRRIP.TRICKLE
    psel_max = tie.psel_max
    psel_half = psel_max // 2
    leader = _drrip_leader_roles(num_sets, tie.leader_period)
    prefer_streaming = policy.prefer_streaming_victims
    regions = policy._regions
    matrices = [matrix for _, _, matrix in regions]
    sid_arr, off_arr = filt.stream_membership(_region_bounds(policy))
    n = len(sid_arr)

    verts_arr = np.asarray(filt.vertices, dtype=np.int64)
    epochs = verts_arr // policy._epoch_size
    transitions = (
        int(np.count_nonzero(epochs[1:] != epochs[:-1])) if n else 0
    )
    column_bytes = sum(matrix.column_bytes() for matrix in matrices)

    hits = misses = evictions = writebacks = 0
    replacements = streaming_evictions = rm_lookups = 0
    ties = tie_candidates = 0

    clib = ckernels.lib()
    if clib is not None:
        # Flatten every stream's RM into one int64 array; each access
        # carries the flat base index of its line's row (-1 = streaming)
        # and a POPT_SPARAM_LAYOUT parameter block per stream drives
        # the decode.
        sparams = np.zeros(POPT_SPARAM_SLOTS * len(regions), dtype=np.int64)
        entry_parts = [
            np.ascontiguousarray(m.entries, dtype=np.int64).ravel()
            for m in matrices
        ]
        entry_bases = [0] * len(entry_parts)
        for index in range(1, len(entry_parts)):
            entry_bases[index] = (
                entry_bases[index - 1] + entry_parts[index - 1].size
            )
        row_base = np.full(n, -1, dtype=np.int64)
        for index, matrix in enumerate(matrices):
            block = POPT_SPARAM_SLOTS * index
            sparams[block:block + POPT_SPARAM_SLOTS] = (
                _RM_VARIANT_CODES[matrix.variant],
                matrix._msb,
                matrix._low_mask,
                matrix._next_bit,
                matrix.epoch_size,
                matrix.sub_epoch_size,
                matrix.num_epochs,
            )
            match = sid_arr == index
            row_base[match] = (
                entry_bases[index] + off_arr[match] * matrix.num_epochs
            )
        entries_flat = np.concatenate(entry_parts)
        lines_arr = np.ascontiguousarray(filt.lines, dtype=np.int64)
        writes_arr = np.ascontiguousarray(filt.writes, dtype=np.uint8)
        sidx = filt.set_index_array(config)
        verts_c = np.ascontiguousarray(verts_arr)
        sid_c = np.ascontiguousarray(sid_arr)
        draws = _fill_draws(tie._seed, n)
        leader_arr = np.asarray(leader, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        cnt = np.zeros(5, dtype=np.int64)
        clib.k_popt(
            lines_arr, writes_arr, verts_c, sidx,
            sid_c, row_base, n, num_sets, num_ways,
            sparams, entries_flat,
            1 if prefer_streaming else 0,
            rmax, trickle, psel_max, leader_arr, draws,
            _ws(5 * num_sets * num_ways + num_sets + num_ways),
            out, cnt,
        )
        hits, misses, evictions, writebacks = out.tolist()
        (replacements, streaming_evictions, rm_lookups,
         ties, tie_candidates) = cnt.tolist()
    else:
        lines, writes = filt.channel_lists("lines", "writes")
        sidx = filt.set_index_list(config)
        verts = verts_arr.tolist()
        sid = sid_arr.tolist()
        off = off_arr.tolist()
        # Per-stream decode parameters + per-access RM row references
        # (the matrices' cached Python rows), resolved in the preamble.
        p_variant = [_RM_VARIANT_CODES[m.variant] for m in matrices]
        p_msb = [m._msb for m in matrices]
        p_low = [m._low_mask for m in matrices]
        p_next = [m._next_bit for m in matrices]
        p_esize = [m.epoch_size for m in matrices]
        p_ssize = [m.sub_epoch_size for m in matrices]
        p_nepochs = [m.num_epochs for m in matrices]
        stream_rows = [m._rows for m in matrices]
        acc_rows = [
            stream_rows[s][o] if s >= 0 else None
            for s, o in zip(sid, off)
        ]
        draw = random.Random(tie._seed).random
        psel = psel_half
        where: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        resident = [[INVALID_TAG] * num_ways for _ in range(num_sets)]
        rrpv = [[rmax] * num_ways for _ in range(num_sets)]
        dirty = [[False] * num_ways for _ in range(num_sets)]
        way_sid = [[-1] * num_ways for _ in range(num_sets)]
        way_row: List[List[object]] = [
            [None] * num_ways for _ in range(num_sets)
        ]
        filled = [0] * num_sets
        wref = [0] * num_ways
        for k in range(len(lines)):
            line = lines[k]
            s = sidx[k]
            where_s = where[s]
            way = where_s.get(line)
            if way is not None:
                hits += 1
                if writes[k]:
                    dirty[s][way] = True
                rrpv[s][way] = 0
            else:
                misses += 1
                rrpv_s = rrpv[s]
                if filled[s] < num_ways:
                    way = filled[s]
                    filled[s] = way + 1
                else:
                    replacements += 1
                    vertex = verts[k]
                    sid_s = way_sid[s]
                    row_s = way_row[s]
                    victim = -1
                    best_ref = -1
                    for w in range(num_ways):
                        sw = sid_s[w]
                        if sw < 0:
                            if prefer_streaming:
                                # First streaming way wins outright.
                                streaming_evictions += 1
                                victim = w
                                break
                            ref = _POPT_STREAMING_REF
                        else:
                            rm_lookups += 1
                            # Algorithm 2, inlined (same branch order
                            # as RereferenceMatrix.find_next_ref).
                            esize = p_esize[sw]
                            epoch = vertex // esize
                            low = p_low[sw]
                            if epoch >= p_nepochs[sw]:
                                ref = low
                            else:
                                row = row_s[w]
                                current = row[epoch]
                                variant = p_variant[sw]
                                if variant == 0:
                                    ref = current
                                elif current & p_msb[sw]:
                                    ref = current & low
                                else:
                                    last_sub = current & low
                                    curr_sub = (
                                        (vertex - epoch * esize)
                                        // p_ssize[sw]
                                    )
                                    if curr_sub <= last_sub:
                                        ref = 0
                                    elif variant == 2:
                                        ref = (
                                            1 if current & p_next[sw] else 2
                                        )
                                    elif epoch + 1 >= p_nepochs[sw]:
                                        ref = low
                                    else:
                                        nxt = row[epoch + 1]
                                        if nxt & p_msb[sw]:
                                            ref = 1 + (nxt & low)
                                        else:
                                            ref = 1
                        wref[w] = ref
                        if ref > best_ref:
                            best_ref = ref
                    if victim < 0:
                        tied = 0
                        for w in range(num_ways):
                            if wref[w] == best_ref:
                                tied += 1
                                if tied == 1:
                                    victim = w
                        if tied > 1:
                            ties += 1
                            tie_candidates += tied
                            best_value = -1
                            for w in range(num_ways):
                                if (
                                    wref[w] == best_ref
                                    and rrpv_s[w] > best_value
                                ):
                                    best_value = rrpv_s[w]
                                    victim = w
                    way = victim
                    evictions += 1
                    if dirty[s][way]:
                        writebacks += 1
                    del where_s[resident[s][way]]
                resident[s][way] = line
                where_s[line] = way
                dirty[s][way] = writes[k]
                way_sid[s][way] = sid[k]
                way_row[s][way] = acc_rows[k]
                # DRRIP tie-break fill: feedback -> role -> insertion
                # (identical to kernel_drrip's miss path).
                role = leader[s]
                if role == 1:
                    if psel < psel_max:
                        psel += 1
                    use_brrip = False
                elif role == 2:
                    if psel > 0:
                        psel -= 1
                    use_brrip = True
                else:
                    use_brrip = psel > psel_half
                if not use_brrip:
                    rrpv_s[way] = insert_long
                else:
                    rrpv_s[way] = (
                        insert_long if draw() < trickle else rmax
                    )
    policy.counters = PoptCounters(
        replacements=replacements,
        streaming_evictions=streaming_evictions,
        rm_lookups=rm_lookups,
        ties=ties,
        tie_candidates=tie_candidates,
        epoch_transitions=transitions,
        bytes_streamed=transitions * column_bytes,
    )
    return _finish(config, hits, misses, evictions, writebacks)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: Kernel name -> implementation. Names are what
#: ``ReplacementPolicy.replay_kernel()`` returns (see the exact-type
#: table in :mod:`repro.policies.registry`).
KERNEL_TABLE: Dict[str, Callable[[KernelRequest], CacheStats]] = {
    "lru": kernel_lru,
    "lip": kernel_lip,
    "bit-plru": kernel_bit_plru,
    "random": kernel_random,
    "srrip": kernel_srrip,
    "brrip": kernel_brrip,
    "drrip": kernel_drrip,
    "ship": kernel_ship,
    "hawkeye": kernel_hawkeye,
    "opt": kernel_opt,
    "t-opt": kernel_topt,
    "p-opt": kernel_popt,
}

worker_state.register_worker_state(
    "repro.sim.kernels.KERNEL_TABLE",
    kind="frozen",
    note="kernel dispatch table, fixed at import; worker-executed code "
         "must not add or swap kernels",
)


def resolve_kernel(
    policy,
) -> Optional[Tuple[str, Callable[[KernelRequest], CacheStats]]]:
    """``(name, fn)`` for the kernel ``policy`` advertises, else None.

    A policy advertising a name this module does not implement is a wiring
    bug (the dispatch would silently fall back and hide the lost speedup),
    so it raises instead; simlint's ``kernel-resolve`` rule catches the
    same drift statically.
    """
    name = policy.replay_kernel()
    if name is None:
        return None
    fn = KERNEL_TABLE.get(name)
    if fn is None:
        raise SimulationError(
            f"policy {policy.name!r} advertises replay kernel {name!r}, "
            f"but sim.kernels implements {sorted(KERNEL_TABLE)}"
        )
    return name, fn
