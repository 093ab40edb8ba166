"""Wall-clock experiments: Table IV and the replay throughput sweeps.

They time the driver directly instead of running a spec sweep (every
paper figure is a :class:`~repro.sim.spec.Figure` in
:data:`~repro.sim.spec.FIGURES`). Each returns plain-dict rows for
:func:`repro.sim.tables.format_table`, at the ``small`` scale by default.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence

from ..apps import PageRank
from ..apps.pagerank import pagerank_reference
from ..cache.config import scaled_hierarchy
from ..graph import datasets
from ..popt.rereference import build_rereference_matrix
from ..popt.topt import TOPT
from .driver import prepare_run, simulate_prepared
from .engine import ReplayEngine

__all__ = [
    "engine_throughput_sweep",
    "kernel_throughput_sweep",
    "table4_preprocessing",
]

DEFAULT_GRAPHS = tuple(datasets.graph_names())


ENGINE_SWEEP_POLICIES = ("LRU", "DRRIP", "SHiP-PC", "Hawkeye")


def engine_throughput_sweep(
    scale: str = "small",
    graphs: Sequence[str] = ("DBP",),
    policies: Sequence[str] = ENGINE_SWEEP_POLICIES,
    seed: int = 42,
    engines: Sequence[str] = ("reference", "fast"),
) -> List[Dict[str, object]]:
    """Replay-engine throughput: one policy sweep under each engine.

    Replays the same PageRank trace under every policy with both the
    reference per-access path and the three-phase fast engine, recording
    wall-time, accesses/sec, filter build/reuse counters, and the fast
    engine's speedup. Each engine gets a fresh :class:`PreparedRun` so
    neither inherits the other's caches; per-policy LLC miss columns let
    callers verify the engines agree.
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        reference_seconds: Optional[float] = None
        for engine in engines:
            prepared = prepare_run(PageRank(), graph)
            start = time.perf_counter()
            misses: Dict[str, int] = {}
            decode_total = filter_total = replay_total = 0.0
            for policy in policies:
                result = simulate_prepared(
                    prepared, policy, hierarchy, engine=engine
                )
                misses[policy] = result.llc.misses
                engine_details = result.details["engine"]
                decode_total += engine_details["decode_seconds"]
                filter_total += engine_details["filter_seconds"]
                replay_total += engine_details["replay_seconds"]
            seconds = time.perf_counter() - start
            if engine == "reference":
                reference_seconds = seconds
            replayed = len(prepared.trace) * len(policies)
            row: Dict[str, object] = {
                "graph": graph_name,
                "engine": engine,
                "policies": len(policies),
                "accesses_replayed": replayed,
                "seconds": round(seconds, 4),
                # Amdahl phase split, summed over the sweep: decode and
                # filter are paid once (first policy builds the filter),
                # replay once per policy.
                "decode_seconds": round(decode_total, 4),
                "filter_seconds": round(filter_total, 4),
                "replay_seconds": round(replay_total, 4),
                "accesses_per_s": (
                    round(replayed / seconds) if seconds > 0 else 0
                ),
                "speedup_vs_reference": (
                    round(reference_seconds / seconds, 3)
                    if reference_seconds and seconds > 0
                    else 1.0
                ),
                "filters_built": prepared.filter_counters["built"],
                "filters_reused": prepared.filter_counters["reused"],
            }
            for policy in policies:
                row[f"misses_{policy}"] = misses[policy]
            rows.append(row)
    return rows


#: Policy lists of the two kernel benches (registry kernels, next-ref
#: kernels); both run :func:`kernel_throughput_sweep`.
KERNEL_SWEEP_POLICIES = (
    "LRU", "SRRIP", "DRRIP", "OPT", "SHiP-PC", "Hawkeye"
)
POPT_KERNEL_SWEEP_POLICIES = ("T-OPT", "P-OPT", "P-OPT-Inter", "P-OPT-SE")


def kernel_throughput_sweep(
    policies: Sequence[str],
    scale: str = "small",
    graphs: Sequence[str] = ("DBP",),
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Replay-kernel throughput: kernel vs generic replay per policy.

    For every policy, replays the same LLC-visible stream with the
    generic per-access engine and with the policy's replay kernel
    (:mod:`repro.sim.kernels`), recording phase-3 replay seconds and the
    kernel's speedup. A warm-up pass per engine builds the private
    filter, next-use, and set-partition caches first, so the measured
    numbers isolate the replay loop. The miss columns come from both
    paths and let callers assert bit-identity; ``kernel`` is the
    dispatched kernel name (``None`` means the generic engine ran) and
    ``counters_match`` says the engine-cost counters agree between
    paths: P-OPT's ``PoptCounters``, and T-OPT's ``replacements`` and
    ``transpose_walk_elements`` (trivially True for policies without
    counters).
    """
    from . import ckernels  # local: report which kernel form ran

    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        prepared = prepare_run(PageRank(), graph)
        for policy in policies:
            for engine in ("generic", "fast"):
                simulate_prepared(
                    prepared, policy, hierarchy, engine=engine
                )  # warm caches
            generic, fast = (
                simulate_prepared(prepared, policy, hierarchy, engine=engine)
                for engine in ("generic", "fast")
            )
            generic_seconds = generic.details["engine"]["replay_seconds"]
            kernel_seconds = fast.details["engine"]["replay_seconds"]
            rows.append(
                {
                    "graph": graph_name,
                    "policy": policy,
                    "kernel": fast.details["engine"]["kernel"],
                    "compiled": ckernels.available(),
                    "generic_seconds": round(generic_seconds, 5),
                    "kernel_seconds": round(kernel_seconds, 5),
                    "kernel_speedup": round(
                        generic_seconds / kernel_seconds, 2
                    )
                    if kernel_seconds > 0
                    else float("inf"),
                    "misses_generic": generic.llc.misses,
                    "misses_kernel": fast.llc.misses,
                    "counters_match": (
                        _topt_counters(prepared, hierarchy, False)
                        == _topt_counters(prepared, hierarchy, True)
                        if policy == "T-OPT"
                        else generic.popt_counters == fast.popt_counters
                    ),
                }
            )
    return rows


def _topt_counters(prepared, hierarchy, use_kernel: bool) -> tuple:
    """T-OPT's ``(replacements, transpose_walk_elements)`` after one
    replay. They live on the policy instance, which
    :func:`simulate_prepared` does not return, so replay through the
    engine API instead."""
    policy = TOPT(
        prepared.irregular_streams, line_size=hierarchy.line_size,
        references=prepared.line_references,
    )
    ReplayEngine(prepared, hierarchy).run(policy, use_kernel=use_kernel)
    return policy.replacements, policy.transpose_walk_elements


#: Table IV times each side this many times and keeps the median, so
#: one slow run on a busy host moves neither column.
TABLE4_REPEATS = 5


def _median_seconds(fn, *args, **kwargs) -> float:
    samples = []
    for _ in range(TABLE4_REPEATS):
        start = time.perf_counter()
        fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def table4_preprocessing(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    entry_bits: int = 8,
) -> List[Dict[str, object]]:
    """Table IV: Rereference Matrix build time vs PageRank runtime.

    Both measured as wall-clock on this host over the same graph, each
    the median of :data:`TABLE4_REPEATS` runs. Paper shape:
    preprocessing ~= 20% of one PageRank execution on average (HBUBL
    excepted — its PR converges unusually fast).
    """
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        rm_seconds = _median_seconds(
            build_rereference_matrix, graph,
            elems_per_line=16,  # 4 B srcData elements
            entry_bits=entry_bits,
        )
        pr_seconds = _median_seconds(pagerank_reference, graph)
        rows.append(
            {
                "graph": graph_name,
                "popt_preprocessing_s": round(rm_seconds, 5),
                "pagerank_execution_s": round(pr_seconds, 5),
                "ratio": round(rm_seconds / max(pr_seconds, 1e-12), 3),
            }
        )
    return rows
