"""Canned experiment harnesses: one function per paper figure/table.

Every function returns a list of plain-dict rows (printable with
:func:`repro.sim.tables.format_table`) so that benchmarks, examples, and
EXPERIMENTS.md all consume the same code path. Graph/cache scale defaults
to the ``small`` profile; pass ``scale="medium"``/``"large"`` for
higher-fidelity runs.

The axis-sweep figures (fig02/04/10/13/14/16) are thin wrappers over
declarative specs (:mod:`repro.sim.spec`) executed by the unified
parallel runner — their rows are bit-identical to the pre-spec
hand-rolled versions (``tests/sim/test_spec.py`` pins them to golden
rows) and all accept ``jobs``. Harnesses that genuinely cannot be a
policy sweep (per-policy contexts, wall-clock measurement, non-standard
replay options) stay hand-rolled and carry a
``simlint: allow[spec-coverage]`` pragma.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..apps import PageRank, bdfs_order
from ..apps.pagerank import pagerank_reference
from ..cache.config import scaled_hierarchy
from ..errors import ReservationError
from ..graph import datasets
from ..policies.registry import PolicyContext
from ..popt.rereference import build_rereference_matrix
from .driver import (
    grasp_ranges_for,
    prepare_dbg_run,
    prepare_run,
    simulate_prepared,
)
from . import spec as spec_module
from .spec import (
    PHI_CACHE_SCALE,
    fig02_spec,
    fig04_spec,
    fig10_spec,
    fig13_spec,
    fig14_spec,
    fig16_spec,
    report_rows,
    run_spec,
)

__all__ = [
    "engine_throughput_sweep",
    "kernel_throughput_sweep",
    "popt_kernel_throughput_sweep",
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


def _run_reported(spec, jobs: int = 1) -> List[Dict[str, object]]:
    """Execute a spec and derive its figure rows (spec-backed figures)."""
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
            start = time.perf_counter()  # simlint: allow[determinism-time]
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
            seconds = time.perf_counter() - start  # simlint: allow[determinism-time]
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


KERNEL_SWEEP_POLICIES = (
    "LRU", "SRRIP", "DRRIP", "OPT", "SHiP-PC", "Hawkeye"
)


def kernel_throughput_sweep(
    scale: str = "small",
    graphs: Sequence[str] = ("DBP",),
    policies: Sequence[str] = KERNEL_SWEEP_POLICIES,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Replay-kernel throughput: kernel vs generic replay per policy.

    For every kernel-covered policy, replays the same LLC-visible stream
    with the generic per-access engine and with the policy's replay
    kernel (:mod:`repro.sim.kernels`), recording phase-3 replay seconds
    and the kernel's speedup. A warm-up pass per engine builds the
    private filter, next-use, and set-partition caches first, so the
    measured numbers isolate the replay loop. The miss columns come from
    both paths and let callers assert bit-identity.
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
            timings: Dict[str, float] = {}
            misses: Dict[str, int] = {}
            for engine in ("generic", "fast"):
                result = simulate_prepared(
                    prepared, policy, hierarchy, engine=engine
                )
                engine_details = result.details["engine"]
                timings[engine] = engine_details["replay_seconds"]
                misses[engine] = result.llc.misses
            rows.append(
                {
                    "graph": graph_name,
                    "policy": policy,
                    "compiled": ckernels.available(),
                    "generic_seconds": round(timings["generic"], 5),
                    "kernel_seconds": round(timings["fast"], 5),
                    "kernel_speedup": round(
                        timings["generic"] / timings["fast"], 2
                    )
                    if timings["fast"] > 0
                    else float("inf"),
                    "misses_generic": misses["generic"],
                    "misses_kernel": misses["fast"],
                }
            )
    return rows


POPT_KERNEL_SWEEP_POLICIES = ("T-OPT", "P-OPT", "P-OPT-Inter", "P-OPT-SE")


def popt_kernel_throughput_sweep(
    scale: str = "small",
    graphs: Sequence[str] = ("DBP",),
    policies: Sequence[str] = POPT_KERNEL_SWEEP_POLICIES,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Next-ref kernel throughput: T-OPT/P-OPT kernel vs generic replay.

    Same measurement protocol as :func:`kernel_throughput_sweep` (warm-up
    pass per engine, phase-3 replay seconds from the engine details), but
    over the paper's own policies and with two extra columns: ``kernel``
    (the dispatched kernel name — ``None`` would mean the registry lost
    coverage) and ``counters_match`` (the engine-cost counters the timing
    model consumes agree between paths; trivially True for T-OPT, whose
    counters live on the policy and are checked by the equivalence
    suite).
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
            timings: Dict[str, float] = {}
            misses: Dict[str, int] = {}
            counters: Dict[str, object] = {}
            kernel_name: Optional[str] = None
            for engine in ("generic", "fast"):
                result = simulate_prepared(
                    prepared, policy, hierarchy, engine=engine
                )
                engine_details = result.details["engine"]
                timings[engine] = engine_details["replay_seconds"]
                misses[engine] = result.llc.misses
                counters[engine] = result.popt_counters
                if engine == "fast":
                    kernel_name = engine_details["kernel"]
            rows.append(
                {
                    "graph": graph_name,
                    "policy": policy,
                    "kernel": kernel_name,
                    "compiled": ckernels.available(),
                    "generic_seconds": round(timings["generic"], 5),
                    "kernel_seconds": round(timings["fast"], 5),
                    "kernel_speedup": round(
                        timings["generic"] / timings["fast"], 2
                    )
                    if timings["fast"] > 0
                    else float("inf"),
                    "misses_generic": misses["generic"],
                    "misses_kernel": misses["fast"],
                    "counters_match": counters["generic"] == counters["fast"],
                }
            )
    return rows


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
        fig02_spec(scale=scale, graphs=graphs, seed=seed), jobs=jobs
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
        fig04_spec(scale=scale, graphs=graphs, seed=seed), jobs=jobs
    )


# Hand-rolled on purpose: RM-variant comparison shares one baseline result per graph.
# simlint: allow[spec-coverage]
def fig07_rereference_designs(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Fig. 7: Rereference Matrix designs, miss reduction vs DRRIP.

    Paper shape: INTER+INTRA ~= T-OPT > INTER-ONLY > DRRIP; both P-OPT
    designs pay their reserved-way cost and still win.
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        prepared = prepare_run(PageRank(), graph)
        baseline = simulate_prepared(prepared, "DRRIP", hierarchy)
        row: Dict[str, object] = {"graph": graph_name}
        for policy, label in (
            ("P-OPT-Inter", "P-OPT-INTER-ONLY"),
            ("P-OPT", "P-OPT-INTER+INTRA"),
            ("T-OPT", "T-OPT"),
        ):
            result = simulate_prepared(prepared, policy, hierarchy)
            row[label] = round(result.miss_reduction_over(baseline), 3)
        rows.append(row)
    return rows


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
        fig10_spec(scale=scale, graphs=graphs, seed=seed, apps=app_names),
        jobs=jobs,
    )


# Hand-rolled on purpose: sweeps synthetic vertex counts, not a named-graph axis.
# simlint: allow[spec-coverage]
def fig11_popt_se_scaling(
    vertex_counts: Sequence[int] = (4096, 16384, 65536, 131072),
    scale: str = "small",
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Fig. 11: P-OPT vs P-OPT-SE as graph size grows, LLC fixed.

    Paper shape: below the capacity knee P-OPT (two resident columns)
    wins; for the largest graphs its doubled reservation costs more than
    the better metadata buys, and P-OPT-SE takes over. The row records the
    reserved way counts (the boxes atop Fig. 11's bars).
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for n in vertex_counts:
        graph = datasets.PAPER_GRAPHS[3].build(n, seed)  # URAND class
        prepared = prepare_run(PageRank(), graph)
        baseline = simulate_prepared(prepared, "DRRIP", hierarchy)
        row: Dict[str, object] = {"vertices": n}
        for policy in ("P-OPT", "P-OPT-SE"):
            try:
                result = simulate_prepared(prepared, policy, hierarchy)
                row[f"{policy}_missred"] = round(
                    result.miss_reduction_over(baseline), 3
                )
                row[f"{policy}_ways"] = result.reserved_llc_ways
            except ReservationError as error:  # no LLC way left for data
                row[f"{policy}_missred"] = None
                row[f"{policy}_ways"] = str(error)[:40]
        rows.append(row)
    return rows


# Hand-rolled on purpose: GRASP needs per-run PolicyContext hot/warm ranges.
# simlint: allow[spec-coverage]
def fig12a_grasp(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS + ("GPL",),
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Fig. 12(a): GRASP vs P-OPT on DBG-ordered graphs.

    Paper shape: GRASP helps only on skewed graphs; P-OPT wins everywhere
    and by more.
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        prepared, dbg_layout = prepare_dbg_run(PageRank(), graph)
        hot, warm = grasp_ranges_for(
            prepared,
            dbg_layout,
            llc_data_lines=hierarchy.llc.num_sets * hierarchy.llc.num_ways,
        )
        baseline = simulate_prepared(prepared, "DRRIP", hierarchy)
        grasp = simulate_prepared(
            prepared,
            "GRASP",
            hierarchy,
            policy_context=PolicyContext(hot_range=hot, warm_range=warm),
        )
        popt = simulate_prepared(prepared, "P-OPT", hierarchy)
        rows.append(
            {
                "graph": graph_name,
                "GRASP_missred": round(grasp.miss_reduction_over(baseline), 3),
                "P-OPT_missred": round(popt.miss_reduction_over(baseline), 3),
            }
        )
    return rows


# Hand-rolled on purpose: compares two prepared runs (BDFS order) per row.
# simlint: allow[spec-coverage]
def fig12b_hats(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS + ("ARAB",),
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Fig. 12(b): HATS-BDFS vs P-OPT (vertex-ordered).

    Paper shape: BDFS helps community graphs (UK-02 class, where it can
    even beat T-OPT) but *increases* misses on graphs without community
    structure; P-OPT is consistent.
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        prepared = prepare_run(PageRank(), graph)
        baseline = simulate_prepared(prepared, "DRRIP", hierarchy)
        popt = simulate_prepared(prepared, "P-OPT", hierarchy)
        # HATS: same kernel, BDFS outer-loop order, baseline replacement.
        order = bdfs_order(graph.transpose())
        prepared_bdfs = prepare_run(PageRank(), graph, order=order)
        hats = simulate_prepared(prepared_bdfs, "DRRIP", hierarchy)
        rows.append(
            {
                "graph": graph_name,
                "HATS-BDFS_missred": round(
                    hats.miss_reduction_over(baseline), 3
                ),
                "P-OPT_missred": round(popt.miss_reduction_over(baseline), 3),
            }
        )
    return rows


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
        fig13_spec(
            scale=scale, graphs=graphs, tile_counts=tile_counts, seed=seed
        ),
        jobs=jobs,
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
        fig14_spec(scale=scale, graphs=graphs, seed=seed), jobs=jobs
    )


# Hand-rolled on purpose: per-policy entry_bits/account_capacity replay options.
# simlint: allow[spec-coverage]
def fig15_quantization(
    scale: str = "small",
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    entry_bit_choices: Sequence[int] = (4, 8, 16),
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Fig. 15: quantization sensitivity (limit study, no capacity cost).

    Paper shape: 8-bit ~= 16-bit ~= T-OPT, 4-bit worse; tie rates fall
    from ~41% (4b) to ~12% (8b) to ~0% (16b).
    """
    hierarchy = scaled_hierarchy(scale)
    rows = []
    for graph_name in graphs:
        graph = datasets.load(graph_name, scale=scale, seed=seed)
        prepared = prepare_run(PageRank(), graph)
        baseline = simulate_prepared(prepared, "DRRIP", hierarchy)
        topt = simulate_prepared(prepared, "T-OPT", hierarchy)
        row: Dict[str, object] = {
            "graph": graph_name,
            "T-OPT_missred": round(topt.miss_reduction_over(baseline), 3),
        }
        for bits in entry_bit_choices:
            result = simulate_prepared(
                prepared,
                "P-OPT",
                hierarchy,
                entry_bits=bits,
                account_capacity=False,
            )
            row[f"{bits}b_missred"] = round(
                result.miss_reduction_over(baseline), 3
            )
            row[f"{bits}b_tie_rate"] = round(
                result.popt_counters["tie_rate"], 3
            )
        rows.append(row)
    return rows


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
        fig16_spec(
            scale=scale,
            graphs=graphs,
            set_counts=set_counts,
            way_counts=way_counts,
            seed=seed,
        ),
        jobs=jobs,
    )


# Hand-rolled on purpose: wall-clock measurement, not a policy sweep.
# simlint: allow[spec-coverage]
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
        start = time.perf_counter()  # simlint: allow[determinism-time]
        build_rereference_matrix(
            graph, elems_per_line=elems_per_line, entry_bits=entry_bits
        )
        rm_seconds = time.perf_counter() - start  # simlint: allow[determinism-time]
        start = time.perf_counter()  # simlint: allow[determinism-time]
        pagerank_reference(graph)
        pr_seconds = time.perf_counter() - start  # simlint: allow[determinism-time]
        rows.append(
            {
                "graph": graph_name,
                "popt_preprocessing_s": round(rm_seconds, 5),
                "pagerank_execution_s": round(pr_seconds, 5),
                "ratio": round(rm_seconds / max(pr_seconds, 1e-12), 3),
            }
        )
    return rows
