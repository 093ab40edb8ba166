"""Set-partitioned LLC replay kernels (phase-3 fast paths).

The three-phase engine (:mod:`repro.sim.engine`) reduced a policy sweep
to "replay the LLC-visible stream per policy". The generic replay walks
``SetAssociativeCache.access`` once per access — a tag probe, a stats
update, two or three policy callbacks through ``AccessContext``. For the
policies that dominate sweeps, each kernel here replaces that walk with
one call into the compiled ``kernels.c`` (built on demand and loaded via
:mod:`repro.sim.ckernels`) and returns the final
:class:`~repro.cache.stats.CacheStats`, bit-identical to the generic and
reference paths (the equivalence suite in ``tests/sim/test_engine.py``
proves it). The policy classes under the generic engine are the
executable specification; a kernel is only a faster way to the same
counts.

Each ``kernel_*`` is a thin wrapper: it gathers the cached numpy
products of the :class:`~repro.sim.engine.PrivateFilter` (set
partitions, set indices, next-use chain, region membership), makes one
C call and wraps the counters. When no compiled library is available
(no toolchain, or a build that failed and said why),
:func:`resolve_kernel` returns None and every policy replays through
the generic engine — slower, never different.

Shared bit-identical transformations (vs. ``SetAssociativeCache``):

- *Residency* is a linear tag scan: a set's ways always hold distinct
  lines, so "first way whose tag matches" answers exactly what
  ``tags.index(line)`` answers, without raising on a miss.
- *Invalid-way fills* use a monotone ``filled`` counter: the cache fills
  the lowest invalid way, ways are never invalidated, so invalid ways
  are exactly ``filled..num_ways-1``.
- *RRIP aging* bumps once by ``rmax - max(rrpv)`` and then scans: the
  reference's age-until-found loop always terminates after one bump, at
  the same first-index victim.

Two kernel shapes:

**Set-partitioned** (LRU, LIP, Bit-PLRU, SRRIP, OPT) — these policies
keep no state that couples cache sets, so the accesses are grouped by
set index with one stable sort (cached on the ``PrivateFilter`` per LLC
set count) and each set is simulated over its own compact subsequence.
Correctness argument per policy:

- *LRU / LIP*: the reference's global clock is only ever **compared**
  within a set, so a per-set clock that preserves the relative order of
  touches yields identical victims. Hits always stamp a fresh per-set
  maximum; LIP fills stamp ``min - 1``, a fresh per-set minimum — the
  order relations (and tie structure) match the reference exactly.
- *Bit-PLRU / SRRIP*: all metadata is per-set already.
- *OPT*: victims are chosen by first-max of stored next-use positions.
  The kernel stores **compact** (LLC-visible-stream) positions where the
  reference stores original-trace positions; the original->compact
  mapping is strictly increasing (with "no next use" mapping to the
  respective stream length), so every comparison — including first-max
  tie-breaks — is preserved.

**Access-order** (BRRIP, DRRIP, SHiP-PC, Hawkeye) — global state
couples the sets through the order of accesses (the BRRIP-family fill
RNG, DRRIP's PSEL set-dueling counter, SHiP's signature table,
Hawkeye's predictor), so these kernels keep the original access order.
The BRRIP-family fill draws are pre-generated in Python from the
policy's own ``random.Random`` seed (one per access is a safe upper
bound on fills) and handed over as a float64 array — consumption order
matches the reference's lazy draws exactly.

Random replacement has no kernel: its per-set streams come from
CPython's ``randrange``, and per-set draws cannot be pre-generated
without knowing each set's eviction count, which is the replay's own
output. It replays on the generic engine, like GRASP and BIP.

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

The private-level front-end keeps a Python form: the per-set loop of
:func:`replay_bit_plru_stream` and the numpy next-use and set-partition
paths of :class:`~repro.sim.engine.PrivateFilter` run whenever the
compiled helpers here return None. Every policy, kernel-covered or not,
needs the private filter, and the generic engine has nothing to replace
it.

Dispatch: policies advertise a kernel name via
:meth:`~repro.policies.base.ReplacementPolicy.replay_kernel` (backed by
the exact-type table in :mod:`repro.policies.registry`);
:func:`resolve_kernel` maps the name to a callable here. Kernels read
only *constructor* products off the policy instance (seed, RRPV width,
precomputed refs/matrices, ...) — the instance is never bound to a
cache — and only the next-ref kernels write anything back (their
replay counters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cache.cache import INVALID_TAG
from ..cache.config import CacheConfig
from ..cache.stats import CacheStats
from ..errors import SimulationError
from ..policies.rrip import BRRIP
from ..popt.arch import PoptCounters
from . import ckernels, worker_state
from .constants import KERNEL_SIG_SPACE, POPT_SPARAM_SLOTS, RM_VARIANT_CODES

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
# C call helpers (ckernels types every pointer parameter, so arrays are
# passed as-is and a wrong dtype or layout raises at the call)
# ----------------------------------------------------------------------

def _ws(size: int) -> np.ndarray:
    """Scratch workspace for a compiled kernel (malloc-free C: every
    kernel carves its per-set/per-way state out of one caller-owned
    int64 array and initializes it itself, so ``empty`` is safe)."""
    return np.empty(int(size), dtype=np.int64)


def _c_partitioned(name: str, req: KernelRequest) -> CacheStats:
    """Invoke a plain set-partitioned C kernel:
    ``fn(lines, writes, counts, num_sets, ways, ws, out)``."""
    config = req.config
    counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
    out = np.zeros(4, dtype=np.int64)
    getattr(ckernels.lib(), name)(
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
    tight loop: ``k_bit_plru_mask`` when the compiled library is
    available, else the Python loop below (a ``line -> way`` dict for
    residency).
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
    the emitted stream and per-level stats match the decode+replay
    construction exactly (the fused-front-end equivalence suite proves
    it).

    Returns ``(visible_idx, lines, writes, l1_stats, l2_stats)`` with
    a level's stats ``None`` when its config is ``None``; returns
    ``None`` when no compiled library is available (the decode+replay
    fallback runs in ``engine.build_private_filter``).
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
    """Timestamp LRU, one tight loop per set."""
    return _c_partitioned("k_lru", req)


def kernel_lip(req: KernelRequest) -> CacheStats:
    """LIP: hits promote to a fresh maximum, fills insert at min - 1."""
    return _c_partitioned("k_lip", req)


def kernel_bit_plru(req: KernelRequest) -> CacheStats:
    """Bit-PLRU at the LLC (same rules as the private-level replay)."""
    return _c_partitioned("k_bit_plru", req)


def kernel_srrip(req: KernelRequest) -> CacheStats:
    """SRRIP: pure per-set RRPV state, long-interval insertion."""
    config = req.config
    counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_srrip(
        slines, swrites, counts,
        config.num_sets, config.num_ways, req.policy.rrpv_max,
        _ws(3 * config.num_ways), out,
    )
    return _finish(config, *out.tolist())


def kernel_opt(req: KernelRequest) -> CacheStats:
    """Belady's MIN over compact (LLC-visible-stream) next-use positions.

    The reference :class:`~repro.policies.opt.BeladyOPT` stores each
    line's next use as an *original trace* position; this kernel stores
    the position within the compacted LLC-visible stream instead (no
    ``AccessContext`` needed — the sorted positions index straight into
    the compact chain). The mapping between the two coordinate systems is
    strictly increasing, so the first-max victim is the same.
    """
    config = req.config
    counts, slines, swrites, order = req.filt.set_partition_arrays(config)
    snext = np.ascontiguousarray(
        req.filt.compact_next_use()[order], dtype=np.int64
    )
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_opt(
        slines, swrites, snext, counts,
        config.num_sets, config.num_ways,
        _ws(3 * config.num_ways), out,
    )
    return _finish(config, *out.tolist())


# ----------------------------------------------------------------------
# Access-order kernels (global RNG / set-dueling state couples the sets)
# ----------------------------------------------------------------------


def _access_order_arrays(req: KernelRequest) -> tuple:
    """``(n, lines, writes, set_idx)`` in access order, C-ready."""
    filt = req.filt
    return (
        len(filt.lines),
        np.ascontiguousarray(filt.lines, dtype=np.int64),
        np.ascontiguousarray(filt.writes, dtype=np.uint8),
        filt.set_index_array(req.config),
    )


def kernel_brrip(req: KernelRequest) -> CacheStats:
    """BRRIP: one global fill RNG, so the original access order is kept.

    The trickle draw happens once per fill in global order — exactly the
    reference's RNG consumption — which rules out set partitioning; the
    draw sequence is pre-generated (:func:`_fill_draws`).
    """
    config = req.config
    policy = req.policy
    n, lines, writes, sidx = _access_order_arrays(req)
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_brrip(
        lines, writes, sidx, n,
        config.num_sets, config.num_ways, policy.rrpv_max, policy.TRICKLE,
        _fill_draws(policy._seed, n),
        _ws(3 * config.num_sets * config.num_ways + config.num_sets),
        out,
    )
    return _finish(config, *out.tolist())


def _drrip_leader_roles(num_sets: int, period: int) -> np.ndarray:
    """0 = follower, 1 = SRRIP leader, 2 = BRRIP leader (reference map)."""
    phase = np.arange(num_sets, dtype=np.int64) % period
    leader = np.zeros(num_sets, dtype=np.int64)
    leader[phase == period // 2] = 2
    leader[phase == 0] = 1
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
    n, lines, writes, sidx = _access_order_arrays(req)
    num_sets = config.num_sets
    num_ways = config.num_ways
    psel_max = policy.psel_max
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_drrip(
        lines, writes, sidx, n,
        num_sets, num_ways, policy.rrpv_max, BRRIP.TRICKLE,
        psel_max // 2, psel_max,
        _drrip_leader_roles(num_sets, policy.leader_period),
        _fill_draws(policy._seed, n),
        _ws(3 * num_sets * num_ways + num_sets), out,
    )
    return _finish(config, *out.tolist())


def kernel_ship(req: KernelRequest) -> CacheStats:
    """SHiP-PC: SRRIP substrate + global signature history table.

    The SHCT couples every set through PC signatures, so the kernel
    keeps access order. Trace PCs are uint8 region tags, so the
    reference's ``defaultdict`` SHCT becomes a dense
    ``KERNEL_SIG_SPACE``-entry counter array with identical semantics
    (counters saturate in ``[0, SHIP_SHCT_MAX]`` from
    ``SHIP_SHCT_INITIAL``). Only the PC-signature flavor dispatches here
    (``SHiP.replay_kernel`` gates on ``signature_kind``); SHiP-Mem stays
    on the generic path.
    """
    config = req.config
    n, lines, writes, sidx = _access_order_arrays(req)
    num_sets = config.num_sets
    num_ways = config.num_ways
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_ship(
        lines, writes, np.ascontiguousarray(req.filt.pcs, dtype=np.uint8),
        sidx, n, num_sets, num_ways, req.policy.rrpv_max,
        _ws(5 * num_sets * num_ways + num_sets + KERNEL_SIG_SPACE),
        out,
    )
    return _finish(config, *out.tolist())


def kernel_hawkeye(req: KernelRequest) -> CacheStats:
    """Hawkeye: sampled OPTgen + PC predictor, kept in access order.

    The predictor couples every set, so the stream is replayed in
    original order with per-sampled-set OPTgen state. Two
    transformations versus :mod:`repro.policies.hawkeye`, both
    verdict-preserving:

    - The occupancy vector becomes a fixed ``window``-length circular
      buffer (append + head-trim never lets it grow past ``window``).
    - The per-set ``last_access`` dicts (which the reference prunes for
      memory) become one unpruned open-addressing map keyed by line: a
      line maps to exactly one set, and a pruned entry would fail the
      ``clock - previous <= window`` liveness test at any later lookup
      anyway, so verdicts are identical.

    PCs are uint8, so the predictor is a dense ``KERNEL_SIG_SPACE``
    counter array. Victim choice is Hawkeye's own (first way at
    ``HAWKEYE_RRPV_MAX``, else first way at the maximum RRPV — no aging).
    """
    config = req.config
    policy = req.policy
    n, lines, writes, sidx = _access_order_arrays(req)
    num_sets = config.num_sets
    num_ways = config.num_ways
    sample_every = policy.sample_every
    window = policy.history_factor * num_ways
    num_sampled = (num_sets + sample_every - 1) // sample_every
    cap = 1
    while cap < 2 * (n + 1):
        cap <<= 1
    scratch = (
        4 * num_sets * num_ways + num_sets + KERNEL_SIG_SPACE
        + num_sampled * (window + 3) + 3 * cap
    )
    out = np.zeros(4, dtype=np.int64)
    ckernels.lib().k_hawkeye(
        lines, writes, np.ascontiguousarray(req.filt.pcs, dtype=np.uint8),
        sidx, n, num_sets, num_ways, sample_every, window, cap,
        _ws(scratch), out,
    )
    return _finish(config, *out.tolist())


# ----------------------------------------------------------------------
# Next-ref kernels (the paper's own policies: T-OPT and P-OPT)
# ----------------------------------------------------------------------


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
    slo, shi, sverts = _topt_annotations(req)
    counts, slines, swrites, _ = req.filt.set_partition_arrays(config)
    out = np.zeros(4, dtype=np.int64)
    cnt = np.zeros(2, dtype=np.int64)
    ckernels.lib().k_topt(
        slines, swrites, sverts, slo, shi, policy._refs_arr,
        counts, config.num_sets, config.num_ways,
        _ws(4 * config.num_ways), out, cnt,
    )
    policy.replacements = int(cnt[0])
    policy.transpose_walk_elements = int(cnt[1])
    return _finish(config, *out.tolist())


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

    Every stream's RM is flattened into one int64 array; each access
    carries the flat base index of its line's row (-1 = streaming) and
    a ``POPT_SPARAM_LAYOUT`` parameter block per stream drives the
    decode.

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
    tie = policy._tie_break
    matrices = [matrix for _, _, matrix in policy._regions]
    sid, off = filt.stream_membership(_region_bounds(policy))
    n = len(sid)

    verts = np.ascontiguousarray(filt.vertices, dtype=np.int64)
    epochs = verts // policy._epoch_size
    transitions = (
        int(np.count_nonzero(epochs[1:] != epochs[:-1])) if n else 0
    )
    column_bytes = sum(matrix.column_bytes() for matrix in matrices)

    sparams = np.zeros(POPT_SPARAM_SLOTS * len(matrices), dtype=np.int64)
    entry_parts = [
        np.ascontiguousarray(m.entries, dtype=np.int64).ravel()
        for m in matrices
    ]
    entry_base = 0
    row_base = np.full(n, -1, dtype=np.int64)
    for index, matrix in enumerate(matrices):
        block = POPT_SPARAM_SLOTS * index
        sparams[block:block + POPT_SPARAM_SLOTS] = (
            RM_VARIANT_CODES[matrix.variant],
            matrix._msb,
            matrix._low_mask,
            matrix._next_bit,
            matrix.epoch_size,
            matrix.sub_epoch_size,
            matrix.num_epochs,
        )
        match = sid == index
        row_base[match] = entry_base + off[match] * matrix.num_epochs
        entry_base += entry_parts[index].size
    entries = np.concatenate(entry_parts)

    _, lines, writes, sidx = _access_order_arrays(req)
    num_sets = config.num_sets
    num_ways = config.num_ways
    leader = _drrip_leader_roles(num_sets, tie.leader_period)
    draws = _fill_draws(tie._seed, n)
    out = np.zeros(4, dtype=np.int64)
    cnt = np.zeros(5, dtype=np.int64)
    ckernels.lib().k_popt(
        lines, writes, verts, sidx,
        np.ascontiguousarray(sid), row_base, n, num_sets, num_ways,
        sparams, entries,
        1 if policy.prefer_streaming_victims else 0,
        tie.rrpv_max, BRRIP.TRICKLE, tie.psel_max, leader, draws,
        _ws(5 * num_sets * num_ways + num_sets + num_ways),
        out, cnt,
    )
    replacements, streaming_evictions, rm_lookups, ties, tie_candidates = (
        cnt.tolist()
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
    return _finish(config, *out.tolist())


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

    None also when no compiled library is available: the policy then
    replays through the generic engine (``EngineRun.kernel`` is None),
    and :func:`~repro.sim.ckernels.build_error` says why. A policy
    advertising a name this module does not implement is a wiring bug
    (the dispatch would silently fall back and hide the lost speedup),
    so it raises instead, toolchain or not; simlint's ``kernel-resolve``
    rule catches the same drift statically.
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
    if ckernels.lib() is None:
        return None
    return name, fn
