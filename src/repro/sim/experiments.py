"""Canned experiment harnesses: one function per paper figure/table.

Every function returns a list of plain-dict rows (printable with
:func:`repro.sim.tables.format_table`) so that benchmarks, examples, and
EXPERIMENTS.md all consume the same code path. Graph/cache scale defaults
to the ``small`` profile; pass ``scale="medium"``/``"large"`` for
higher-fidelity runs.

Every figure is a thin wrapper over a declarative spec
(:mod:`repro.sim.spec`) executed by the unified parallel runner — its
rows are bit-identical to the pre-spec hand-rolled version
(``tests/sim/test_spec.py`` pins them to golden rows) and it accepts
``jobs``. Only Table IV, a wall-clock measurement rather than a sweep,
and the replay-throughput sweeps call the driver directly.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..apps import PageRank
from ..apps.pagerank import pagerank_reference
from ..cache.config import scaled_hierarchy
from ..graph import datasets
from ..popt.rereference import build_rereference_matrix
from ..popt.topt import TOPT
from .driver import prepare_run, simulate_prepared
from .engine import ReplayEngine
from . import spec as spec_module
from .spec import report_rows, run_spec

__all__ = [
    "engine_throughput_sweep",
    "kernel_throughput_sweep",
    "fig02_sota_mpki",
    "fig04_topt_mpki",
    "fig07_rereference_designs",
    "fig10_main_result",
    "fig11_popt_se_scaling",
    "fig12a_grasp",
    "fig12b_hats",
    "fig13_tiling",
    "fig14_pb_phi",
    "fig15_quantization",
    "fig16_llc_sensitivity",
    "table4_preprocessing",
    "geomean",
]

DEFAULT_GRAPHS = tuple(datasets.graph_names())

FIG2_POLICIES = spec_module.FIG2_POLICIES


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregation for speedups/ratios)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def _run_reported(factory, jobs: int, **kwargs) -> List[Dict[str, object]]:
    """Build a figure's spec, execute it, and derive its figure rows."""
    spec = factory(**kwargs)
    return report_rows(spec, run_spec(spec, jobs=jobs))


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


def fig02_sota_mpki(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 2: PageRank LLC MPKI under state-of-the-art policies.

    Paper shape: all five policies land within a narrow band (60-70% miss
    rates); none substantially beats LRU. ``jobs`` fans the sweep over a
    process pool (see :mod:`repro.sim.parallel`); output is identical
    for any value.
    """
    return _run_reported(
        spec_module.fig02_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig04_topt_mpki(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 4: T-OPT against the Fig. 2 policies.

    Paper shape: T-OPT reduces misses ~1.67x vs LRU (41% vs 60-70% miss
    rate).
    """
    return _run_reported(
        spec_module.fig04_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig07_rereference_designs(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 7: Rereference Matrix designs, miss reduction vs DRRIP.

    Paper shape: INTER+INTRA ~= T-OPT > INTER-ONLY > DRRIP; both P-OPT
    designs pay their reserved-way cost and still win.
    """
    return _run_reported(
        spec_module.fig07_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig10_main_result(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    apps: Optional[Sequence[object]] = None,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 10: speedups and LLC miss reductions for P-OPT and T-OPT.

    Rows hold speedups over both LRU and DRRIP plus miss reductions vs
    DRRIP, one row per (app, graph). Radii skips HBUBL like the paper
    (its diameter keeps Radii push-only there), and (app, graph) pairs
    whose trace is empty are dropped. Paper shape: P-OPT ~22% mean
    speedup and ~24% miss cut vs DRRIP, within ~12% of T-OPT; gains
    smallest on KRON.

    ``apps`` accepts app names or app instances (``app.info.name``).
    """
    app_names = None
    if apps is not None:
        app_names = tuple(
            app if isinstance(app, str) else app.info.name for app in apps
        )
    return _run_reported(
        spec_module.fig10_spec, jobs,
        scale=scale, graphs=graphs, seed=seed, apps=app_names,
    )


def fig11_popt_se_scaling(
    vertex_counts: Sequence[int] = (4096, 16384, 65536, 131072),
    scale: str = "small",
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 11: P-OPT vs P-OPT-SE as graph size grows, LLC fixed.

    Paper shape: below the capacity knee P-OPT (two resident columns)
    wins; for the largest graphs its doubled reservation costs more than
    the better metadata buys, and P-OPT-SE takes over. The row records the
    reserved way counts (the boxes atop Fig. 11's bars); a reservation
    that leaves no LLC way for data reports ``None`` and the start of
    its error message instead.
    """
    return _run_reported(
        spec_module.fig11_spec, jobs,
        vertex_counts=vertex_counts, scale=scale, seed=seed,
    )


def fig12a_grasp(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS + ("GPL",),
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 12(a): GRASP vs P-OPT on DBG-ordered graphs.

    Paper shape: GRASP helps only on skewed graphs; P-OPT wins everywhere
    and by more.
    """
    return _run_reported(
        spec_module.fig12a_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig12b_hats(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS + ("ARAB",),
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 12(b): HATS-BDFS vs P-OPT (vertex-ordered).

    Paper shape: BDFS helps community graphs (UK-02 class, where it can
    even beat T-OPT) but *increases* misses on graphs without community
    structure; P-OPT is consistent.
    """
    return _run_reported(
        spec_module.fig12b_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig13_tiling(
    scale: str = "small",
    graphs: Sequence[str] = ("URAND64", "KRON"),
    tile_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 13: CSR-segmenting x {DRRIP, P-OPT}, misses normalized to
    untiled DRRIP.

    Paper shape: tiling improves both; P-OPT reaches a given miss level
    with ~5x fewer tiles (P-OPT at 2 tiles ~= DRRIP at 10 on URAND).

    The untiled (``tiles=1``) DRRIP point is the normalization baseline;
    the spec carries tiling as the ``tiling:N`` software technique.
    """
    return _run_reported(
        spec_module.fig13_spec, jobs,
        scale=scale, graphs=graphs, tile_counts=tile_counts, seed=seed,
    )


def fig14_pb_phi(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 14: PB and PHI under DRRIP and P-OPT (binning phase).

    DRAM traffic (LLC misses) normalized to PB+DRRIP. Paper shape: PHI
    beats PB on power-law graphs and improves further with better
    replacement; on URAND/HBUBL PHI's aggregation finds little reuse while
    P-OPT still helps.

    PHI's regime requires the destination accumulators to be comparable
    to the LLC (the paper holds ~8 MB of accumulators against a 24 MiB
    LLC), so this experiment pairs the graphs with the cache profile that
    restores that ratio (:data:`repro.sim.spec.PHI_CACHE_SCALE`, the
    spec's ``cache_scale``): in-cache aggregation is meaningless when
    the accumulator dwarfs the cache.
    """
    return _run_reported(
        spec_module.fig14_spec, jobs, scale=scale, graphs=graphs, seed=seed
    )


def fig15_quantization(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    entry_bit_choices: Sequence[int] = (4, 8, 16),
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 15: quantization sensitivity (limit study, no capacity cost).

    Paper shape: 8-bit ~= 16-bit ~= T-OPT, 4-bit worse; tie rates fall
    from ~41% (4b) to ~12% (8b) to ~0% (16b).
    """
    return _run_reported(
        spec_module.fig15_spec, jobs,
        scale=scale, graphs=graphs, seed=seed,
        entry_bit_choices=entry_bit_choices,
    )


def fig16_llc_sensitivity(
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    scale: str = "small",
    set_counts: Sequence[int] = (8, 16, 32, 64),
    way_counts: Sequence[int] = (8, 16, 32),
    seed: int = 42,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """Fig. 16: sensitivity to LLC capacity and associativity.

    Paper shape: P-OPT's miss reduction over DRRIP grows with capacity
    (the RM reservation amortizes) and with associativity (more eviction
    candidates to choose among). The capacity and associativity sweeps
    are the spec's LLC-geometry axis (labeled points over the scale's
    base hierarchy).
    """
    return _run_reported(
        spec_module.fig16_spec, jobs,
        scale=scale, graphs=graphs, seed=seed,
        set_counts=set_counts, way_counts=way_counts,
    )


def table4_preprocessing(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
    entry_bits: int = 8,
) -> List[Dict[str, object]]:
    """Table IV: Rereference Matrix build time vs PageRank runtime.

    Both measured as wall-clock on this host over the same graph. Paper
    shape: preprocessing ~= 20% of one PageRank execution on average
    (HBUBL excepted — its PR converges unusually fast).
    """
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        elems_per_line = 16  # 4 B srcData elements
        start = time.perf_counter()
        build_rereference_matrix(
            graph, elems_per_line=elems_per_line, entry_bits=entry_bits
        )
        rm_seconds = time.perf_counter() - start
        start = time.perf_counter()
        pagerank_reference(graph)
        pr_seconds = time.perf_counter() - start
        rows.append(
            {
                "graph": graph_name,
                "popt_preprocessing_s": round(rm_seconds, 5),
                "pagerank_execution_s": round(pr_seconds, 5),
                "ratio": round(rm_seconds / max(pr_seconds, 1e-12), 3),
            }
        )
    return rows
