"""Simulation driver: wire an app, a graph, a hierarchy, and a policy.

The driver is where the paper's methodology lives:

1. ``prepare_run`` executes the kernel once, materializing its access
   trace and irregular-stream descriptors (reusable across policies —
   the same trace is replayed under every policy being compared).
2. ``simulate_prepared`` instantiates the requested LLC policy (including
   T-OPT and the P-OPT variants with their Rereference Matrices and way
   reservations), replays the trace through the hierarchy, and returns a
   :class:`SimResult` with per-level stats, MPKI, and modeled cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Type

from ..apps.base import GraphApp, PreparedRun
from ..cache.cache import AccessContext
from ..cache.config import HierarchyConfig
from ..cache.hierarchy import CacheHierarchy
from ..cache.sanitizer import CacheSanitizer
from ..cache.stats import MPKI_INSTRUCTIONS_PER_ACCESS, CacheStats
from ..errors import ReservationError, SimulationError
from ..graph.csr import CSRGraph
from ..graph.reorder import DbgLayout, apply_order, dbg_order
from ..memory.trace import decode_trace
from ..policies.base import ReplacementPolicy
from ..policies.registry import PolicyContext, make_policy
from ..policies.rrip import DRRIP
from ..popt import rereference
from ..popt.arch import reserved_ways
from ..popt.policy import POPT, FirstTiedWay, KernelMatrices, PoptStream
from ..popt.topt import TOPT, build_stream_references
from . import artifacts
from .engine import ReplayEngine, llc_visible_next_use
from .timing import TimingModel

__all__ = [
    "SimResult",
    "prepare_run",
    "simulate_prepared",
    "replay",
    "grasp_ranges_for",
    "prepare_dbg_run",
    "POPT_POLICIES",
    "POPT_VARIANTS",
    "ENGINES",
]

#: Replay engines accepted by :func:`simulate_prepared`. ``fast`` is the
#: three-phase engine (decode once, filter the private levels once per
#: hierarchy, replay only the LLC-visible stream per policy), which
#: additionally dispatches to a compiled replay kernel
#: (:mod:`repro.sim.kernels`) when the policy has one;
#: ``generic`` is the same engine with kernel dispatch disabled (the
#: per-access LLC loop, kept addressable for equivalence testing);
#: ``reference`` is the original per-access full-hierarchy walk, kept as
#: the equivalence baseline.
ENGINES = ("fast", "generic", "reference")

#: P-OPT policy names -> (Rereference Matrix variant,
#: ``prefer_streaming_victims``, tie-break policy class). The last two
#: rows are Section V-C's ablations: streaming lines ranked through the
#: RM path, and quantization ties settled by the first tied way rather
#: than DRRIP.
POPT_VARIANTS: Mapping[
    str, Tuple[str, bool, Type[ReplacementPolicy]]
] = MappingProxyType({
    "P-OPT": ("inter_intra", True, DRRIP),
    "P-OPT-Inter": ("inter_only", True, DRRIP),
    "P-OPT-SE": ("single_epoch", True, DRRIP),
    "P-OPT-RM-Ranked": ("inter_intra", False, DRRIP),
    "P-OPT-FirstWay": ("inter_intra", True, FirstTiedWay),
})

#: Policy names handled by the driver itself rather than the registry.
POPT_POLICIES = ("T-OPT",) + tuple(POPT_VARIANTS)


@dataclass
class SimResult:
    """Outcome of replaying one prepared run under one policy."""

    app_name: str
    policy_name: str
    levels: List[CacheStats]
    level_counts: List[int]
    num_accesses: int
    instructions: int
    cycles: float
    reserved_llc_ways: int = 0
    popt_counters: Optional[Dict[str, float]] = None
    preprocessing_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def llc(self) -> CacheStats:
        return self.levels[-1]

    @property
    def llc_mpki(self) -> float:
        return self.llc.mpki(self.instructions)

    @property
    def llc_miss_rate(self) -> float:
        return self.llc.miss_rate

    def speedup_over(self, baseline: "SimResult") -> float:
        """Modeled speedup of this run relative to ``baseline``."""
        return baseline.cycles / self.cycles if self.cycles else float("inf")

    def miss_reduction_over(self, baseline: "SimResult") -> float:
        """Relative LLC miss reduction vs ``baseline`` (positive = fewer)."""
        if baseline.llc.misses == 0:
            return 0.0
        return 1.0 - self.llc.misses / baseline.llc.misses

    def summary(self) -> Dict[str, object]:
        return {
            "app": self.app_name,
            "policy": self.policy_name,
            "llc_miss_rate": round(self.llc_miss_rate, 4),
            "llc_mpki": round(self.llc_mpki, 3),
            "cycles": int(self.cycles),
            "reserved_ways": self.reserved_llc_ways,
        }


def prepare_run(app: GraphApp, graph: CSRGraph, **params) -> PreparedRun:
    """Execute the kernel and materialize its trace (policy-independent)."""
    return app.prepare(graph, **params)


def replay(trace, hierarchy: CacheHierarchy) -> None:
    """Replay a trace through the hierarchy (the reference hot loop)."""
    ctx = AccessContext()
    lines, pcs, writes, vertices = decode_trace(
        trace, hierarchy.line_shift
    ).as_lists()
    access_line = hierarchy.access_line
    for index in range(len(lines)):
        ctx.pc = pcs[index]
        ctx.index = index
        ctx.vertex = vertices[index]
        ctx.write = writes[index]
        access_line(lines[index], ctx)


def _build_popt_policy(
    prepared: PreparedRun,
    variant: str,
    entry_bits: int,
    line_size: int,
    **options,
) -> Tuple[POPT, float]:
    """Instantiate P-OPT with per-stream Rereference Matrices
    (``options`` are the remaining :class:`POPT` arguments).

    Each matrix is built (or loaded from the artifact store) once per
    prepared run and kept in ``prepared.matrices``: it depends on the
    reference graph, the stream's span and the encoding, never on the
    cache geometry, so every LLC point of a sweep reuses it. The same
    holds for the matrices' kernel form, kept in
    ``prepared.kernel_matrices``.
    """
    start = time.perf_counter()
    streams = []
    for index, irregular in enumerate(prepared.irregular_streams):
        graph, span = irregular.reference_graph, irregular.span
        matrix = artifacts.get_or_build(
            artifacts.MATRIX,
            (graph, span.elems_per_line, entry_bits, variant, span.num_lines),
            lambda: rereference.build_rereference_matrix(
                graph,
                elems_per_line=span.elems_per_line,
                entry_bits=entry_bits,
                variant=variant,
                num_lines=span.num_lines,
            ),
            prepared.matrices, (index, entry_bits, variant),
        )
        streams.append(PoptStream(span=irregular.span, matrix=matrix))
    kernel_matrices = prepared.kernel_matrices.get((entry_bits, variant))
    if kernel_matrices is None:
        kernel_matrices = KernelMatrices([s.matrix for s in streams])
        prepared.kernel_matrices[(entry_bits, variant)] = kernel_matrices
    elapsed = time.perf_counter() - start
    policy = POPT(
        streams, line_size=line_size, kernel_matrices=kernel_matrices,
        **options,
    )
    return policy, elapsed


def simulate_prepared(
    prepared: PreparedRun,
    policy_name: str,
    hierarchy_config: HierarchyConfig,
    entry_bits: int = 8,
    account_capacity: bool = True,
    timing: Optional[TimingModel] = None,
    engine: str = "fast",
    sanitize: bool = False,
    sanitizer: Optional[CacheSanitizer] = None,
) -> SimResult:
    """Replay a prepared run under the named LLC policy.

    ``account_capacity=True`` applies P-OPT's way reservation (the
    Rereference Matrix columns consume LLC ways); ``False`` gives the
    limit-study configuration of Fig. 15.

    GRASP derives its hot/warm ranges here (:func:`grasp_ranges_for`)
    from the DBG group bounds that :func:`prepare_dbg_run` records in
    ``prepared.details`` and this call's LLC geometry; on a run that was
    not DBG-ordered it has no ranges and the registry refuses it.

    ``engine`` selects the replay path: ``"fast"`` (default) shares the
    decoded trace and the one-time private-level filter across policies,
    replays only the LLC-visible stream, and dispatches to a replay
    kernel when the policy has one; ``"generic"`` is the fast
    engine with kernels disabled; ``"reference"`` walks the full
    hierarchy per access. All three produce bit-identical stats
    (``details["engine"]["kernel"]`` records which kernel, if any, ran).

    ``sanitize=True`` (or an explicit ``sanitizer``) runs the runtime
    invariant checker during and after the replay: tag-array sanity,
    stats conservation, private-filter consistency, and the Belady lower
    bound across every sanitized policy replayed from the same prepared
    run (see :mod:`repro.cache.sanitizer`). Sanitized runs produce
    bit-identical results; a violation raises
    :class:`~repro.errors.SanitizerError`.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    if sanitizer is None and sanitize:
        sanitizer = CacheSanitizer()
    line_size = hierarchy_config.line_size
    reserved = 0
    preprocessing = 0.0
    popt_policy: Optional[POPT] = None

    if policy_name == "T-OPT":
        if prepared.line_references is None:
            prepared.line_references = build_stream_references(
                prepared.irregular_streams
            )
        llc_policy = TOPT(
            prepared.irregular_streams, line_size=line_size,
            references=prepared.line_references,
        )
    elif policy_name in POPT_VARIANTS:
        variant, prefer_streaming, tie_break = POPT_VARIANTS[policy_name]
        popt_policy, preprocessing = _build_popt_policy(
            prepared, variant, entry_bits, line_size,
            prefer_streaming_victims=prefer_streaming,
            tie_break=tie_break(),
        )
        llc_policy = popt_policy
        if account_capacity:
            resident = popt_policy.resident_bytes()
            fraction = prepared.details.get("resident_fraction", 1.0)
            resident = int(resident * fraction)
            reserved = reserved_ways(resident, hierarchy_config.llc)
    else:
        ctx = PolicyContext(trace=prepared.trace, layout=prepared.layout)
        if policy_name == "GRASP" and DBG_BOUNDS in prepared.details:
            ctx.hot_range, ctx.warm_range = grasp_ranges_for(
                prepared,
                llc_data_lines=(
                    hierarchy_config.llc.num_sets
                    * hierarchy_config.llc.num_ways
                ),
                line_size=line_size,
            )
        if policy_name == "OPT":
            # Belady at the LLC must rank lines by their next *LLC* access:
            # accesses absorbed by L1/L2 never reach it, so next-use is
            # computed over the LLC-visible subsequence (the engine's
            # cached private-level filter, shared with the replay below).
            ctx.next_use = llc_visible_next_use(
                prepared.trace, hierarchy_config, prepared=prepared
            )
        llc_policy = make_policy(policy_name, ctx)

    llc_config = hierarchy_config.llc
    if reserved:
        remaining = llc_config.num_ways - reserved
        if remaining < 1:
            raise ReservationError(
                f"{policy_name}: Rereference Matrix needs {reserved} of "
                f"{llc_config.num_ways} LLC ways; nothing left for data"
            )
        llc_config = llc_config.with_ways(remaining)

    replay_start = time.perf_counter()
    kernel_used: Optional[str] = None
    decode_seconds = 0.0
    filter_seconds = 0.0
    phase_replay: Optional[float] = None
    if engine in ("fast", "generic"):
        run = ReplayEngine(prepared, hierarchy_config).run(
            llc_policy,
            llc_config=llc_config,
            sanitizer=sanitizer,
            use_kernel=(engine == "fast"),
        )
        levels = run.levels
        level_counts = run.level_counts
        llc_stats = levels[-1]
        llc_visible = run.filter.llc_visible
        kernel_used = run.kernel
        decode_seconds = run.decode_seconds
        filter_seconds = run.filter_seconds
        phase_replay = run.replay_seconds
    else:
        hierarchy = CacheHierarchy(
            replace(hierarchy_config, llc=llc_config), llc_policy
        )
        replay(prepared.trace, hierarchy)
        levels = hierarchy.stats_snapshot()
        level_counts = list(hierarchy.level_counts)
        llc_stats = levels[-1]
        llc_visible = llc_stats.accesses
        if sanitizer is not None:
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.llc):
                if level is not None:
                    sanitizer.check_cache(level, where=level.config.name)
            sanitizer.check_policy_state(hierarchy.llc)
            sanitizer.check_level_chain(levels, len(prepared.trace))
    total_seconds = time.perf_counter() - replay_start
    # The reference engine has no phase split: its whole walk is replay.
    replay_seconds = phase_replay if phase_replay is not None else total_seconds

    num_accesses = len(prepared.trace)
    instructions = int(round(num_accesses * MPKI_INSTRUCTIONS_PER_ACCESS))
    model = timing if timing is not None else TimingModel(hierarchy_config)
    counters = (
        popt_policy.counters.as_dict() if popt_policy is not None else None
    )
    cycles = model.cycles(
        level_counts=level_counts,
        instructions=instructions,
        popt_bytes_streamed=(
            popt_policy.counters.bytes_streamed if popt_policy else 0
        ),
        popt_rm_lookups=(
            popt_policy.counters.rm_lookups if popt_policy else 0
        ),
        llc_writebacks=llc_stats.writebacks,
    )
    details: Dict[str, object] = dict(prepared.details)
    if sanitizer is not None:
        # The Belady bound applies across sanitized replays that share
        # both the private-level filter and the exact LLC geometry
        # (P-OPT's way reservation changes the geometry, so reserved
        # configurations form their own buckets).
        bound_key = (
            hierarchy_config.l1,
            hierarchy_config.l2,
            hierarchy_config.line_size,
            llc_config,
        )
        sanitizer.record_llc_misses(
            prepared.sanitizer_records,
            bound_key,
            policy_name,
            llc_stats.misses,
        )
        details["sanitizer"] = {
            "interval": sanitizer.interval,
            **sanitizer.report.as_dict(),
        }
    details["engine"] = {
        "name": engine,
        "kernel": kernel_used,
        # Amdahl phase split: decode/filter are non-zero only when this
        # call built the filter (later policies reuse it for free);
        # replay_seconds is the phase-3 LLC pass alone, total_seconds
        # the whole engine call (throughput is judged against it).
        "decode_seconds": decode_seconds,
        "filter_seconds": filter_seconds,
        "replay_seconds": replay_seconds,
        "total_seconds": total_seconds,
        "accesses_per_second": (
            num_accesses / total_seconds if total_seconds > 0 else 0.0
        ),
        "llc_visible_accesses": llc_visible,
        "filters_built": prepared.filter_counters["built"],
        "filters_reused": prepared.filter_counters["reused"],
    }
    return SimResult(
        app_name=prepared.app_name,
        policy_name=policy_name,
        levels=levels,
        level_counts=level_counts,
        num_accesses=num_accesses,
        instructions=instructions,
        cycles=cycles,
        reserved_llc_ways=reserved,
        popt_counters=counters,
        preprocessing_seconds=preprocessing,
        details=details,
    )


# ----------------------------------------------------------------------
# GRASP support (Fig. 12a)
# ----------------------------------------------------------------------


#: ``prepared.details`` key holding the DBG group bounds of a run made
#: by :func:`prepare_dbg_run` (the start of each group in the new ID
#: space, hottest first, then the vertex count).
DBG_BOUNDS = "dbg_group_bounds"


def grasp_ranges_for(
    prepared: PreparedRun,
    llc_data_lines: int,
    line_size: int = 64,
    hot_fraction: float = 0.75,
    warm_factor: float = 2.0,
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """GRASP's hot/warm line-address ranges over DBG-ordered vertex data.

    GRASP sizes its protected region relative to cache capacity: the hot
    range is the highest-degree prefix of the DBG-ordered vertex array
    that fits in ``hot_fraction`` of the LLC's data lines; the warm range
    covers the next ``warm_factor`` x LLC lines. Group boundaries (the
    ``DBG_BOUNDS`` entry of a :func:`prepare_dbg_run` run) cap the prefix
    so only genuinely above-average-degree vertices are protected.
    """
    span = prepared.irregular_streams[0].span
    base_line = span.base // line_size
    bounds = prepared.details[DBG_BOUNDS]
    # Hot prefix: capacity-sized, but never past the below-average group.
    above_average_vertices = bounds[-2] if len(bounds) > 2 else bounds[-1]
    above_average_lines = -(-above_average_vertices // span.elems_per_line)
    hot_lines = min(
        int(hot_fraction * llc_data_lines),
        max(above_average_lines, 1),
        span.num_lines,
    )
    warm_lines = min(
        hot_lines + int(warm_factor * llc_data_lines), span.num_lines
    )
    hot = (base_line, base_line + hot_lines)
    warm = (base_line + hot_lines, base_line + warm_lines)
    return hot, warm


def prepare_dbg_run(
    app: GraphApp, graph: CSRGraph, num_groups: int = 8, **params
) -> Tuple[PreparedRun, DbgLayout]:
    """Reorder the graph with DBG and prepare the run on it.

    Both GRASP and the policies it is compared against run on the
    DBG-ordered graph, matching Fig. 12(a)'s methodology. The group
    bounds are recorded as ``prepared.details[DBG_BOUNDS]`` so GRASP can
    derive its ranges at replay time.
    """
    layout_info = dbg_order(graph, num_groups=num_groups)
    reordered = apply_order(graph, layout_info.new_ids)
    prepared = prepare_run(app, reordered, **params)
    prepared.details[DBG_BOUNDS] = [
        int(bound) for bound in layout_info.group_bounds
    ]
    return prepared, layout_info
