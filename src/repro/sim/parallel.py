"""Parallel sweep execution: fan (graph, app, policy-chunk) work items
over a process pool.

A policy sweep is embarrassingly parallel *between* work items — each
(graph, app, policy) simulation is independent — but naively pickling
work to workers would ship multi-megabyte prepared traces per task.
Instead, tasks are small descriptors (:class:`SweepTask`: names,
scale, seed, policy names) and every worker **rebuilds** the prepared
run locally on first use, memoizing it in a per-process cache keyed by
``(app, graph, scale, seed)``. Graph generation and app execution are
seed-deterministic, so every worker reconstructs byte-identical traces;
the private-level filter and the products the replay kernels memoize
on it then live on the worker's own
:class:`~repro.apps.base.PreparedRun` and are shared by all policies
chunked into the same task. Nothing large crosses the
process boundary in either direction — results come back as plain
per-policy stat dicts.

Determinism: simulations are replay-exact regardless of which process
runs them (policies draw from their own seeded RNGs), and the pool
(:func:`repro.sim.spec.run_spec`) collects rows in task-submission
order, so ``jobs=N`` output is bit-identical to ``jobs=1`` output
(``tests/sim/test_parallel.py`` locks this in).

Chunking: group a few policies per task (:func:`policy_chunks`) so the
per-worker prepare cost amortizes, but keep chunks small enough to
load-balance — one task per (graph, app, ~2-4 policies) is a good
default shape.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from .. import apps as apps_module
from ..cache.config import HierarchyConfig, scaled_hierarchy
from ..errors import ReservationError
from ..graph import datasets
from . import artifacts
from .driver import prepare_dbg_run, prepare_run, simulate_prepared

__all__ = [
    "APP_FACTORIES",
    "START_METHOD_ENV",
    "TECHNIQUES",
    "SweepTask",
    "policy_chunks",
    "pool_context",
    "task_hierarchy",
    "validate_technique",
]

#: App name -> zero-argument factory (shared with the CLI).
APP_FACTORIES = MappingProxyType({
    "PR": apps_module.PageRank,
    "CC": apps_module.ConnectedComponents,
    "PR-Delta": apps_module.PageRankDelta,
    "Radii": apps_module.Radii,
    "MIS": apps_module.MaximalIndependentSet,
    "BFS": apps_module.BFS,
    "SSSP": apps_module.SSSP,
    "kCore": apps_module.KCore,
})


#: Software locality techniques a task can apply before tracing.
#: Parameterized entries take a ``name:N`` suffix (``tiling:4``,
#: ``dbg:8``); ``pb``/``phi`` select propagation blocking without/with
#: the PHI hardware assist, ``hats`` traces under a BDFS traversal
#: order, and ``none`` runs the app as declared.
TECHNIQUES = ("none", "tiling", "pb", "phi", "dbg", "hats")


def validate_technique(technique: str) -> str:
    """Check a technique string; returns it, raises ValueError if bad."""
    base = technique.split(":", 1)[0]
    if base not in TECHNIQUES:
        raise ValueError(
            f"unknown software technique {technique!r}; "
            f"expected one of {TECHNIQUES}"
        )
    if ":" in technique:
        if base not in ("tiling", "dbg"):
            raise ValueError(f"technique {base!r} takes no parameter")
        suffix = technique.split(":", 1)[1]
        if not suffix.isdigit() or int(suffix) < 1:
            raise ValueError(
                f"technique {technique!r} needs a positive integer suffix"
            )
    return technique


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a few policies on one (app, graph) run.

    Carries only names and small scalars so pickling it to a worker is
    cheap; the worker materializes (and caches) the heavy state.

    ``technique`` applies a software locality scheme before tracing
    (see :data:`TECHNIQUES`); ``llc`` overrides the LLC geometry as
    ``(num_sets, num_ways)`` on top of the hierarchy implied by
    ``cache_scale or scale``, with ``llc_label`` naming the point for
    reporting. ``replay`` (when set) is an ``(entry_bits,
    account_capacity)`` pair passed to every replay of the task.
    """

    graph: str
    app: str = "PR"
    policies: Tuple[str, ...] = ("LRU",)
    scale: str = "small"
    seed: int = 42
    engine: str = "fast"
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    technique: str = "none"
    llc: Optional[Tuple[int, int]] = None
    llc_label: str = ""
    cache_scale: str = ""
    replay: Optional[Tuple[int, bool]] = None

    def prepare_key(self) -> Tuple[object, ...]:
        return (
            self.app, self.graph, self.scale, self.seed,
            self.technique, self.params,
        )

    def artifact_key(self) -> Dict[str, object]:
        """JSON-able provenance of the prepared run (store key).

        For ``file:`` graphs the key gains the file's content hash —
        the path alone is not provenance, the bytes are. Named graphs
        keep their original key shape, so existing store digests stay
        valid.
        """
        key: Dict[str, object] = {
            "app": self.app,
            "graph": self.graph,
            "scale": self.scale,
            "seed": self.seed,
            "technique": self.technique,
            "params": [[name, value] for name, value in self.params],
        }
        content = artifacts.graph_content_token(self.graph)
        if content is not None:
            key["graph_content"] = content
        return key

    def rows_key(self) -> Dict[str, object]:
        """Full unit identity: prepared-run provenance + replay config.

        ``llc_label`` and ``replay`` join the key only when set, so
        unlabeled default-replay tasks keep their original key shape.
        """
        key = self.artifact_key()
        key.update(
            {
                "policies": list(self.policies),
                "engine": self.engine,
                "llc": list(self.llc) if self.llc else None,
                "cache_scale": self.cache_scale,
            }
        )
        if self.llc_label:
            key["llc_label"] = self.llc_label
        if self.replay is not None:
            key["replay"] = list(self.replay)
        return key


def policy_chunks(
    policies: Sequence[str], chunk_size: int = 2
) -> List[Tuple[str, ...]]:
    """Split a policy list into consecutive chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        tuple(policies[i:i + chunk_size])
        for i in range(0, len(policies), chunk_size)
    ]


# Per-process prepared-run cache, LRU-bounded so long multi-geometry
# sweeps don't grow worker RSS without limit. In a worker this persists
# across all tasks the pool hands it; in the parent (serial path) it
# plays the same role. PreparedRun hosts the decoded trace, the filter
# and its memoized products, so reusing one across tasks is what makes
# chunked sweeps fast — the bound only matters once a sweep touches more
# (app, graph, technique) combinations than fit. Entries rebuild
# deterministically from task descriptors, so workers never diverge.
_PREPARED_CACHE: "OrderedDict[Tuple[object, ...], object]" = OrderedDict()

#: The per-process prepared-run cache bound (entries).
DEFAULT_PREPARED_CACHE_SIZE = 8


def _build_prepared(task: SweepTask):
    """Trace the task's app under its software technique."""
    validate_technique(task.technique)
    graph = datasets.load(task.graph, scale=task.scale, seed=task.seed)
    params = dict(task.params)
    technique, _, arg = task.technique.partition(":")
    if technique == "none":
        return prepare_run(APP_FACTORIES[task.app](), graph, **params)
    if technique == "tiling":
        tiles = int(arg or 4)
        # tiles=1 is the untiled baseline point of a tiling sweep.
        app = (
            apps_module.PageRank() if tiles == 1
            else apps_module.TiledPageRank(tiles)
        )
        return prepare_run(app, graph, **params)
    if technique in ("pb", "phi"):
        app = apps_module.PropagationBlockingBinning(
            phi=technique == "phi"
        )
        return prepare_run(app, graph, **params)
    if technique == "dbg":
        prepared, _layout = prepare_dbg_run(
            APP_FACTORIES[task.app](), graph,
            num_groups=int(arg or 8), **params,
        )
        return prepared
    # "hats": same kernel, BDFS traversal order, baseline replacement.
    order = apps_module.bdfs_order(graph.transpose())
    return prepare_run(
        APP_FACTORIES[task.app](), graph, order=order, **params
    )


def _prepared_for(task: SweepTask):
    return artifacts.get_or_build(
        artifacts.PREPARED, (task,), lambda: _build_prepared(task),
        _PREPARED_CACHE, task.prepare_key(), DEFAULT_PREPARED_CACHE_SIZE,
    )


def task_hierarchy(task: SweepTask) -> HierarchyConfig:
    """The hierarchy a task replays under.

    Private levels come from ``cache_scale or scale``; ``task.llc``
    (when set) swaps in an explicit LLC geometry, preserving the base
    LLC's line size and latency — the shape of an LLC sensitivity sweep.
    """
    base = scaled_hierarchy(task.cache_scale or task.scale)
    if task.llc is None:
        return base
    num_sets, num_ways = task.llc
    return replace(
        base, llc=replace(base.llc, num_sets=num_sets, num_ways=num_ways)
    )


#: Set to ``0`` to disable result-row caching (artifact store still
#: caches graphs/prepared runs/filters/matrices; replays re-run).
ROWS_ENV = "REPRO_ARTIFACTS_ROWS"


def _rows_cache_enabled() -> bool:
    return os.environ.get(ROWS_ENV, "1") != "0"


def stored_rows(task: SweepTask) -> Optional[List[Dict[str, object]]]:
    """The task's finished rows from the artifact store, or None (a
    miss, no store, or row caching off): the one rows lookup."""
    if not _rows_cache_enabled():
        return None
    return artifacts.lookup(artifacts.ROWS, (task,))


def simulate_task(task: SweepTask) -> List[Dict[str, object]]:
    """Simulate a task whose rows lookup missed and store its rows
    (with row caching on), without reading them again."""
    if not _rows_cache_enabled():
        return _simulate(task)
    return artifacts.build_and_store(
        artifacts.ROWS, (task,), lambda: _simulate(task)
    )


def simulate_task_in_worker(
    task: SweepTask,
) -> Tuple[List[Dict[str, object]], Dict[str, Dict[str, int]]]:
    """:func:`simulate_task` as a pool worker runs it: the rows, and
    what the task moved on the worker's store counters, which the
    parent adds to its own (:meth:`ArtifactStore.add_counts`) so a
    sweep's counters cover every lookup, wherever it ran."""
    store = artifacts.get_store()
    if store is None:
        return simulate_task(task), {}
    before = store.stats()["by_kind"]
    rows = simulate_task(task)
    return rows, store.counts_since(before)


def run_task(task: SweepTask) -> List[Dict[str, object]]:
    """Simulate every policy in one task; returns plain stat rows.

    Rows are primitives only (no SimResult / CacheStats objects), so the
    return trip through the process pool stays tiny. With an artifact
    store configured, finished rows are cached under the task's full
    identity — re-running an interrupted sweep replays only the tasks
    that never finished.

    A unit whose way reservation leaves no LLC way for data
    (:class:`~repro.errors.ReservationError`) becomes a row of its
    identity columns plus ``error``; any other exception propagates.
    Tasks with a ``replay`` point add ``entry_bits``/``account_capacity``
    to the identity columns and P-OPT's ``tie_rate`` to the stats.
    """
    rows = stored_rows(task)
    return rows if rows is not None else simulate_task(task)


def _simulate(task: SweepTask) -> List[Dict[str, object]]:
    prepared = _prepared_for(task)
    hierarchy = task_hierarchy(task)
    options: Dict[str, object] = {}
    if task.replay is not None:
        options["entry_bits"], options["account_capacity"] = task.replay
    rows: List[Dict[str, object]] = []
    for policy in task.policies:
        row: Dict[str, object] = {
            "graph": task.graph,
            "app": task.app,
            "policy": policy,
            "scale": task.scale,
            "seed": task.seed,
            "technique": task.technique,
            "llc_label": task.llc_label,
            "llc_sets": hierarchy.llc.num_sets,
            "llc_ways": hierarchy.llc.num_ways,
        }
        row.update(options)
        try:
            result = simulate_prepared(
                prepared, policy, hierarchy, engine=task.engine, **options
            )
        except ReservationError as error:
            row["error"] = str(error)
            rows.append(row)
            continue
        llc = result.llc
        row.update(
            {
                "llc_accesses": llc.accesses,
                "llc_hits": llc.hits,
                "llc_misses": llc.misses,
                "llc_evictions": llc.evictions,
                "llc_writebacks": llc.writebacks,
                "llc_miss_rate": result.llc_miss_rate,
                "llc_mpki": result.llc_mpki,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "reserved_ways": result.reserved_llc_ways,
            }
        )
        if options:
            counters = result.popt_counters or {}
            row["tie_rate"] = counters.get("tie_rate")
        rows.append(row)
    return rows


#: Select the multiprocessing start method for sweep pools ("fork",
#: "spawn", "forkserver"; empty = the platform default). Results are
#: identical under any method — the spawn-vs-fork CI leg locks that in.
START_METHOD_ENV = "REPRO_START_METHOD"


def pool_context():
    """The multiprocessing context sweeps pools run under, or None.

    ``None`` keeps :class:`ProcessPoolExecutor`'s platform default;
    anything else comes from :data:`START_METHOD_ENV` (an unknown
    method name raises ``ValueError`` — fail loud, not fork-by-
    accident).
    """
    method = os.environ.get(START_METHOD_ENV, "").strip()
    if not method:
        return None
    return multiprocessing.get_context(method)
