"""Three-phase replay engine (decode once / filter once / replay LLC).

Every P-OPT experiment replays one prepared kernel trace under many LLC
policies. The levels above the LLC are policy-*independent*: L1 and L2
always run Bit-PLRU (Table I) and never see feedback from the LLC (the
hierarchy is non-inclusive fill-on-miss, so each level's state depends
only on the access stream it observes). The engine exploits that:

1. **Decode once** — line addresses and per-access metadata are computed
   as numpy arrays and memoized on the trace/:class:`PreparedRun`
   (:func:`repro.memory.trace.decode_trace`), instead of four
   ``.tolist()`` copies per policy replay.
2. **Filter once** — the Bit-PLRU private levels are replayed a single
   time per ``(PreparedRun, private-level geometry)``; the resulting
   LLC-visible mask, filtered subsequence, and exact L1/L2 stats are
   cached on the prepared run (:func:`get_private_filter`). The private
   replay itself is restructured *per set* — sets of a set-associative
   cache are independent, so accesses are grouped by set index with one
   vectorized stable sort and each set is simulated over its own compact
   subsequence.
3. **Replay per policy** — policies with a replay kernel
   (:data:`~repro.sim.kernels.KERNEL_TABLE`, keyed by exact type)
   dispatch to one compiled call in :mod:`repro.sim.kernels` when the
   compiled library is available; everything else — including every
   policy on a host without a C toolchain — runs the generic per-access
   loop through a fresh :class:`SetAssociativeCache`, with original
   trace indices/vertices/PCs in the :class:`AccessContext` so oracle
   policies (OPT, T-OPT, P-OPT) see exactly what they would have seen
   behind real private levels. The policy classes on that loop are the
   executable specification the kernels are tested against. Sanitized
   replays always take the generic loop — the sanitizer's invariants
   are phrased over a live cache object (tag arrays, per-set policy
   state), which kernels never build.

The per-access reference path (full :class:`CacheHierarchy` walk) stays
available via ``simulate_prepared(..., engine="reference")``, and the
generic loop can be forced with ``engine="generic"``; the equivalence
suite in ``tests/sim/test_engine.py`` proves all paths produce identical
per-level hit/miss/eviction/writeback counts for every registered
policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..apps.base import PreparedRun
from ..cache.cache import AccessContext, SetAssociativeCache
from ..cache.config import CacheConfig, HierarchyConfig
from ..cache.stats import CacheStats
from ..errors import SimulationError
from ..memory.trace import MemoryTrace, decode_trace
from . import artifacts
from .kernels import (
    KernelRequest,
    compiled_next_use,
    compiled_set_partition,
    fused_private_filter,
    replay_bit_plru_stream,
    resolve_kernel,
)

__all__ = [
    "PrivateFilter",
    "EngineRun",
    "ReplayEngine",
    "build_private_filter",
    "get_private_filter",
    "llc_visible_next_use",
    "llc_compact_next_use",
]


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays read-only (shared across replays and worker tasks).

    Filter channels and memoized products are handed to every policy
    replay of the run — and, under ``--jobs``, re-read across worker
    task boundaries — so an in-place write through one consumer would
    silently corrupt every later replay. ``setflags(write=False)`` turns
    that race into an immediate ``ValueError``; consumers that need a
    scratch copy take ``.copy()`` explicitly. Non-ndarray channels
    (tests hand-build filters with plain lists) pass through untouched,
    mirroring the ``np.asarray`` tolerance in the accessors.
    """
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)


@dataclass
class PrivateFilter:
    """Cached result of replaying the private levels once (phase 2).

    The LLC-visible subsequence is stored **once**, as numpy arrays; the
    plain-list views the generic per-access loop wants (and the per-set
    partitions and set indices the replay kernels want) are derived
    lazily and memoized, so a filter costs one copy of the stream
    regardless of how many replay paths consume it.
    """

    key: tuple
    num_accesses: int
    mask: np.ndarray                 # True where the access reaches the LLC
    l1_stats: Optional[CacheStats]   # exact snapshots (copy() before use)
    l2_stats: Optional[CacheStats]
    l1_hits: int
    l2_hits: int
    # LLC-visible subsequence (numpy arrays; list views are lazy).
    lines: np.ndarray
    pcs: np.ndarray
    writes: np.ndarray
    vertices: np.ndarray
    indices: np.ndarray              # original trace positions
    # Construction-phase wall seconds (0.0 on rehydrated filters; the
    # fused compiled pass decodes inline, so its whole cost lands in
    # filter_seconds and decode_seconds stays 0.0).
    decode_seconds: float = 0.0
    filter_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Single choke point covering both freshly-built filters and
        # ones rehydrated from the artifact store: every shared channel
        # is read-only from birth.
        _freeze(
            self.mask, self.lines, self.pcs, self.writes,
            self.vertices, self.indices,
        )
        self._lists: Optional[tuple] = None
        self._compact_next_use: Optional[np.ndarray] = None
        self._partition_arrays: Dict[int, tuple] = {}
        self._set_index_arrays: Dict[int, np.ndarray] = {}
        self._memberships: Dict[tuple, tuple] = {}

    @property
    def llc_visible(self) -> int:
        return len(self.lines)

    def level_stats(self) -> List[CacheStats]:
        """Fresh copies of the private-level stats, in hierarchy order."""
        return [
            stats.copy()
            for stats in (self.l1_stats, self.l2_stats)
            if stats is not None
        ]

    def as_lists(self) -> tuple:
        """``(lines, pcs, writes, vertices, indices)`` as plain lists.

        Memoized: the generic per-access loop reads Python scalars per
        element, so one boxing pass here is shared by every generic
        replay of this filter.
        """
        if self._lists is None:
            self._lists = tuple(
                np.asarray(getattr(self, name)).tolist()
                for name in ("lines", "pcs", "writes", "vertices", "indices")
            )
        return self._lists

    def compact_next_use(self) -> np.ndarray:
        """Next-use chain in *compact* (LLC-visible-stream) coordinates.

        ``out[k]`` is the position within this filtered stream of the
        next access to ``lines[k]``'s line, or ``len(lines)`` when there
        is none. Computed with the same vectorized grouped sort as
        :func:`llc_visible_next_use` and memoized — the OPT kernel is
        the primary consumer.
        """
        if self._compact_next_use is None:
            lines = np.asarray(self.lines)
            m = len(lines)
            next_use = compiled_next_use(lines)
            if next_use is None:
                next_use = np.full(m, m, dtype=np.int64)
                if m:
                    pos = np.arange(m, dtype=np.int64)
                    order = np.lexsort((pos, lines))
                    sorted_lines = lines[order]
                    sorted_pos = pos[order]
                    same = sorted_lines[:-1] == sorted_lines[1:]
                    next_use[sorted_pos[:-1][same]] = sorted_pos[1:][same]
            _freeze(next_use)
            self._compact_next_use = next_use
        return self._compact_next_use

    def set_partition_arrays(self, config: CacheConfig) -> tuple:
        """Per-set grouping of the stream, as contiguous numpy arrays.

        Returns ``(counts, sorted_lines, sorted_writes, order)``:
        ``order`` is the stable argsort by set index, ``counts`` the
        per-set access counts (int64), ``sorted_lines`` int64 and
        ``sorted_writes`` uint8 — the exact layouts the compiled kernels
        take by pointer. Memoized per set count, so a whole policy sweep
        pays for one sort.
        """
        num_sets = config.num_sets
        cached = self._partition_arrays.get(num_sets)
        if cached is None:
            lines = np.asarray(self.lines)
            set_idx = self.set_index_array(config)
            cached = compiled_set_partition(
                lines, np.asarray(self.writes), set_idx, num_sets
            )
            if cached is None:
                order = np.argsort(set_idx, kind="stable")
                cached = (
                    np.bincount(set_idx, minlength=num_sets).astype(np.int64),
                    np.ascontiguousarray(lines[order], dtype=np.int64),
                    np.ascontiguousarray(
                        np.asarray(self.writes)[order], dtype=np.uint8
                    ),
                    order,
                )
            _freeze(*cached)
            self._partition_arrays[num_sets] = cached
        return cached

    def set_index_array(self, config: CacheConfig) -> np.ndarray:
        """Per-access set indices (int64; access-order kernels)."""
        num_sets = config.num_sets
        cached = self._set_index_arrays.get(num_sets)
        if cached is None:
            lines = np.asarray(self.lines)
            if config.sets_are_power_of_two:
                set_idx = lines & (num_sets - 1)
            else:
                set_idx = lines % num_sets
            cached = np.ascontiguousarray(set_idx, dtype=np.int64)
            _freeze(cached)
            self._set_index_arrays[num_sets] = cached
        return cached

    def stream_membership(self, bounds: tuple) -> tuple:
        """Per-access (stream index, line offset) against region bounds.

        ``bounds`` is a tuple of ``(line_base, line_bound)`` pairs in
        priority order — the first matching region wins, mirroring the
        next-ref engine's irreg base/bound register scan — and accesses
        matching no region get stream ``-1`` (streaming data). This is
        the once-per-prepared-run region-membership precompute the T-OPT
        and P-OPT kernels share, replacing their per-way linear scans.
        Memoized per bounds tuple.
        """
        cached = self._memberships.get(bounds)
        if cached is None:
            lines = np.asarray(self.lines)
            sid = np.full(len(lines), -1, dtype=np.int64)
            off = np.zeros(len(lines), dtype=np.int64)
            for index, (line_base, line_bound) in enumerate(bounds):
                match = (sid < 0) & (lines >= line_base) & (lines < line_bound)
                sid[match] = index
                off[match] = lines[match] - line_base
            _freeze(sid, off)
            cached = (sid, off)
            self._memberships[bounds] = cached
        return cached


def filter_key(config: HierarchyConfig) -> tuple:
    """Cache key for a private filter: everything above the LLC."""
    return (config.l1, config.l2, config.line_size)


def build_private_filter(
    trace: MemoryTrace, config: HierarchyConfig
) -> PrivateFilter:
    """Replay the deterministic Bit-PLRU private levels once (phase 1+2).

    Compiled path: one fused :func:`~repro.sim.kernels.fused_private_filter`
    call decodes each address and replays both private levels inline in
    access order — no decoded channel arrays, no per-level
    argsort-partition / boolean-mask / fancy-index round-trips. Without
    the compiled library, or when a private level is wider than the
    fused pass replays (it declines with a warning): :func:`decode_trace`
    plus one :func:`replay_bit_plru_stream` pass per level, bit-identical
    by construction (the fused-front-end
    equivalence suite proves it). Phase timings land on the filter; the
    fused pass decodes inline, so its ``decode_seconds`` is 0.0.
    """
    line_shift = config.line_size.bit_length() - 1
    start = time.perf_counter()
    fused = fused_private_filter(
        trace.addresses, trace.writes, line_shift, config.l1, config.l2
    )
    if fused is not None:
        visible_idx, vis_lines, vis_writes, l1_stats, l2_stats = fused
        n = len(trace.addresses)
        mask = np.zeros(n, dtype=bool)
        mask[visible_idx] = True
        elapsed = time.perf_counter() - start
        return PrivateFilter(
            key=filter_key(config),
            num_accesses=n,
            mask=mask,
            l1_stats=l1_stats,
            l2_stats=l2_stats,
            l1_hits=l1_stats.hits if l1_stats is not None else 0,
            l2_hits=l2_stats.hits if l2_stats is not None else 0,
            lines=vis_lines,
            pcs=trace.pcs[visible_idx],
            writes=vis_writes,
            vertices=trace.vertices[visible_idx],
            indices=visible_idx,
            decode_seconds=0.0,
            filter_seconds=elapsed,
        )
    decoded = decode_trace(trace, line_shift)
    decode_seconds = time.perf_counter() - start
    n = len(decoded)
    visible_idx = np.arange(n, dtype=np.int64)
    vis_lines = decoded.lines
    vis_writes = decoded.writes

    l1_stats = l2_stats = None
    l1_hits = l2_hits = 0
    if config.l1 is not None:
        hit, l1_stats = replay_bit_plru_stream(
            vis_lines, vis_writes, config.l1
        )
        l1_hits = l1_stats.hits
        miss = ~hit
        visible_idx = visible_idx[miss]
        vis_lines = vis_lines[miss]
        vis_writes = vis_writes[miss]
    if config.l2 is not None:
        hit, l2_stats = replay_bit_plru_stream(
            vis_lines, vis_writes, config.l2
        )
        l2_hits = l2_stats.hits
        miss = ~hit
        visible_idx = visible_idx[miss]
        vis_lines = vis_lines[miss]
        vis_writes = vis_writes[miss]

    mask = np.zeros(n, dtype=bool)
    mask[visible_idx] = True
    elapsed = time.perf_counter() - start
    return PrivateFilter(
        key=filter_key(config),
        num_accesses=n,
        mask=mask,
        l1_stats=l1_stats,
        l2_stats=l2_stats,
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        lines=vis_lines,
        pcs=decoded.pcs[visible_idx],
        writes=vis_writes,
        vertices=decoded.vertices[visible_idx],
        indices=visible_idx,
        decode_seconds=decode_seconds,
        filter_seconds=elapsed - decode_seconds,
    )


def get_private_filter(
    prepared: PreparedRun, config: HierarchyConfig
) -> PrivateFilter:
    """Fetch (or build and cache) the run's filter for this geometry."""
    key = filter_key(config)
    cached = prepared.private_filters.get(key)
    if cached is not None:
        prepared.filter_counters["reused"] += 1
        return cached
    store = artifacts.get_store()
    if store is not None:
        loaded = artifacts.cached_filter(store, prepared.trace, config)
        if loaded is not None:
            prepared.private_filters[key] = loaded
            prepared.filter_counters["reused"] += 1
            return loaded
    built = build_private_filter(prepared.trace, config)
    prepared.private_filters[key] = built
    prepared.filter_counters["built"] += 1
    if store is not None:
        artifacts.store_filter(store, prepared.trace, config, built)
    return built


@dataclass
class EngineRun:
    """Outcome of replaying one policy through the engine."""

    levels: List[CacheStats]       # L1/L2 snapshots + final LLC stats
    level_counts: List[int]        # indexed by LEVEL_* constants
    llc: Optional[SetAssociativeCache]  # None on the kernel path
    seconds: float                 # total wall time of this run() call
    filter: PrivateFilter
    kernel: Optional[str] = None   # replay kernel used, if any
    # Amdahl phase split: decode/filter are non-zero only on the run
    # that actually built the filter (reuses and rehydrations are
    # pay-once by design); replay is the phase-3 LLC pass alone.
    decode_seconds: float = 0.0
    filter_seconds: float = 0.0
    replay_seconds: float = 0.0

    @property
    def accesses_per_second(self) -> float:
        total = self.filter.num_accesses
        return total / self.seconds if self.seconds > 0 else 0.0


class ReplayEngine:
    """Replays one prepared run under many LLC policies, sharing the
    decoded trace and the private-level filter across all of them."""

    def __init__(
        self, prepared: PreparedRun, hierarchy_config: HierarchyConfig
    ) -> None:
        self.prepared = prepared
        self.hierarchy_config = hierarchy_config

    def run(
        self,
        llc_policy,
        llc_config: Optional[CacheConfig] = None,
        sanitizer=None,
        use_kernel: bool = True,
    ) -> EngineRun:
        """Replay the LLC-visible subsequence under ``llc_policy``.

        ``llc_config`` overrides the hierarchy's LLC geometry (P-OPT's
        way reservation shrinks the data ways). ``sanitizer`` (a
        :class:`repro.cache.sanitizer.CacheSanitizer`) enables periodic
        and end-of-replay invariant checks; the default ``None`` keeps
        the unsanitized loop untouched, so sanitize-off replays are
        bit-identical and pay zero overhead.

        Dispatch: when ``use_kernel`` is True (default), sanitizing is
        off, the policy has a replay kernel and the compiled
        library is available, the whole stream runs through the kernel
        and no cache object is built (``EngineRun.llc`` is None,
        ``EngineRun.kernel`` names the kernel). Any other combination —
        no kernel, no compiled library, ``use_kernel=False`` (the
        ``engine="generic"`` path), or an active sanitizer — falls back
        to the per-access loop transparently.
        """
        start = time.perf_counter()
        built_before = self.prepared.filter_counters["built"]
        filt = get_private_filter(self.prepared, self.hierarchy_config)
        fresh_build = self.prepared.filter_counters["built"] > built_before
        if llc_config is None:
            llc_config = self.hierarchy_config.llc
        replay_start = time.perf_counter()

        kernel_name: Optional[str] = None
        kernel_fn = None
        if use_kernel and sanitizer is None:
            resolved = resolve_kernel(llc_policy)
            if resolved is not None:
                kernel_name, kernel_fn = resolved

        llc: Optional[SetAssociativeCache] = None
        if kernel_fn is not None:
            llc_stats = kernel_fn(
                KernelRequest(
                    config=llc_config, policy=llc_policy, filt=filt
                )
            )
        else:
            llc = SetAssociativeCache(llc_config, llc_policy)
            ctx = AccessContext()
            lines, pcs, writes, vertices, indices = filt.as_lists()
            access = llc.access
            if sanitizer is None:
                for k in range(len(lines)):
                    ctx.pc = pcs[k]
                    ctx.index = indices[k]
                    ctx.vertex = vertices[k]
                    ctx.write = writes[k]
                    access(lines[k], ctx)
            else:
                interval = sanitizer.interval
                until_check = interval
                for k in range(len(lines)):
                    ctx.pc = pcs[k]
                    ctx.index = indices[k]
                    ctx.vertex = vertices[k]
                    ctx.write = writes[k]
                    access(lines[k], ctx)
                    until_check -= 1
                    if until_check == 0:
                        until_check = interval
                        sanitizer.check_cache(llc)
                        sanitizer.check_stats(llc.stats)
            llc_stats = llc.stats

        end = time.perf_counter()
        replay_seconds = end - replay_start
        seconds = end - start
        levels = filt.level_stats() + [llc_stats.copy()]
        if sanitizer is not None:
            sanitizer.check_end_of_replay(
                llc, levels, filt.num_accesses, filt=filt
            )
        level_counts = [
            0,
            filt.l1_hits,
            filt.l2_hits,
            llc_stats.hits,
            llc_stats.misses,
        ]
        return EngineRun(
            levels=levels,
            level_counts=level_counts,
            llc=llc,
            seconds=seconds,
            filter=filt,
            kernel=kernel_name,
            decode_seconds=filt.decode_seconds if fresh_build else 0.0,
            filter_seconds=filt.filter_seconds if fresh_build else 0.0,
            replay_seconds=replay_seconds,
        )


def llc_visible_next_use(
    trace: MemoryTrace,
    config: HierarchyConfig,
    prepared: Optional[PreparedRun] = None,
) -> np.ndarray:
    """Next-use indices over the accesses that actually reach the LLC,
    in **original trace** coordinates.

    Belady at the LLC must rank lines by their next *LLC* access;
    accesses absorbed by L1/L2 never reach it. Derived without touching
    the decoded trace: the filter's compact next-use chain
    (:meth:`PrivateFilter.compact_next_use`, compiled when available)
    is translated to original coordinates through ``filt.indices`` —
    the original->compact position mapping is strictly increasing, so
    ``orig[indices[k]] = indices[compact[k]]`` for every chained access
    and the result is element-identical to the former lexsort over
    decoded visible positions. Accesses with no later LLC-visible
    reference — including all private-level hits — get ``len(trace)``.

    See :func:`llc_compact_next_use` for the same chain expressed in
    compacted LLC-visible-stream positions (what the replay kernels
    consume).
    """
    if prepared is not None and prepared.trace is not trace:
        raise SimulationError("prepared.trace does not match trace")
    if prepared is not None:
        filt = get_private_filter(prepared, config)
    else:
        filt = build_private_filter(trace, config)
    n = filt.num_accesses
    next_use = np.full(n, n, dtype=np.int64)
    m = filt.llc_visible
    if m == 0:
        return next_use
    compact = filt.compact_next_use()
    indices = np.asarray(filt.indices)
    chained = compact < m
    next_use[indices[chained]] = indices[compact[chained]]
    return next_use


def llc_compact_next_use(
    trace: MemoryTrace,
    config: HierarchyConfig,
    prepared: Optional[PreparedRun] = None,
) -> np.ndarray:
    """Next-use chain over the LLC-visible stream, in **compact**
    (filtered-stream-position) coordinates.

    ``out[k]`` refers to access ``k`` *of the filtered stream* (length
    ``M``): the compact position of the line's next LLC-visible access,
    or ``M`` when there is none. Relation to
    :func:`llc_visible_next_use` (original coordinates, length ``n``):
    for visible original position ``p = filt.indices[k]``,

    - ``orig[p] == len(trace)``  iff  ``compact[k] == M``, and
    - otherwise ``filt.indices[compact[k]] == orig[p]``.

    Both systems order next-uses identically (the original->compact
    position mapping is strictly increasing), which is what lets the OPT
    kernel rank victims by compact positions and still match the
    reference policy bit for bit.
    """
    if prepared is not None and prepared.trace is not trace:
        raise SimulationError("prepared.trace does not match trace")
    if prepared is not None:
        filt = get_private_filter(prepared, config)
    else:
        filt = build_private_filter(trace, config)
    return filt.compact_next_use()
