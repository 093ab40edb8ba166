"""Per-layer tracing for the pipeline benchmark, from outside the program.

:func:`traced_run_spec` is a serial mirror of ``run_spec`` →
``run_task`` built from public calls only (``datasets.load``,
``prepare_run`` and the app/technique entry points, ``task_hierarchy``,
``get_private_filter``, ``simulate_prepared``, ``artifacts.cached_*`` /
``store_*``). Each call is wrapped in a span; the rows it returns must be
byte-identical to the untraced rows, which the benchmark checks.

``simulate_prepared`` spans several layers, so its span is split with the
timers the program already returns: ``preprocessing_seconds`` (the
Rereference Matrix build), ``details["engine"]`` (filter and replay
phases) and the remainder (policy construction, next-use setup, timing
model). Those child spans are laid out in call order inside the parent;
their durations are measured, their start times are not.

Artifact-store I/O made inside the program (filters, matrices) is seen by
wrapping ``ArtifactStore.get``/``put`` in the traced process only.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro import apps as apps_module
from repro.graph import datasets
from repro.sim import artifacts, parallel
from repro.sim.artifacts import ArtifactStore
from repro.sim.driver import (
    POPT_POLICIES,
    prepare_dbg_run,
    prepare_run,
    simulate_prepared,
)
from repro.sim.engine import get_private_filter

ARTIFACT_KINDS = ("graph", "prepared", "filter", "rereference-matrix", "rows")

#: Spans that only group others; every other span is a layer.
GROUPING_SPANS = ("run", "task")


class Tracer:
    """In-memory span recorder: name, start, end, parent, task, unit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.task: Optional[int] = None

    def _record(self, name, start, end, parent, unit, attrs):
        record = {
            "id": len(self.spans), "name": name, "start": start,
            "end": end, "parent": parent, "task": self.task, "unit": unit,
        }
        record.update(attrs)
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None, **attrs) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        record = self._record(name, time.perf_counter(), None, parent, unit, attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def split_simulate(self, sim: dict, result, policy: str) -> None:
        """Replace ``sim``'s self time with its layer parts (see module doc)."""
        engine = result.details["engine"]
        popt = policy in POPT_POLICIES
        parts = [
            ("popt.rm_build", result.preprocessing_seconds),
            ("engine.filter", engine["decode_seconds"] + engine["filter_seconds"]),
            ("popt.replay" if popt else "kernels.replay", engine["replay_seconds"]),
        ]
        used = sum(seconds for _, seconds in parts)
        parts.append((
            "popt.policy_setup" if popt else "sim.policy_setup",
            max(0.0, sim["end"] - sim["start"] - used),
        ))
        io_children = [
            s for s in self.spans[sim["id"] + 1:] if s["parent"] == sim["id"]
        ]
        cursor = sim["start"]
        for name, seconds in parts:
            child = self._record(
                name, cursor, cursor + seconds, sim["id"], sim["unit"], {}
            )
            if name == "popt.rm_build":
                for io_span in io_children:  # store I/O of the RM build
                    io_span["parent"] = child["id"]
            cursor += seconds
        sim.update(
            policy=policy,
            kernel=engine["kernel"],
            accesses=result.num_accesses,
            llc_visible=engine["llc_visible_accesses"],
        )


@contextmanager
def instrument_store(tracer: Tracer) -> Iterator[None]:
    """Wrap ``ArtifactStore.get``/``put`` in spans for the duration."""
    original_get, original_put = ArtifactStore.get, ArtifactStore.put

    def get(self, kind, key):
        with tracer.span("artifacts.get", kind=kind) as record:
            entry = original_get(self, kind, key)
            record["hit"] = entry is not None
        return entry

    def put(self, kind, key, arrays=None, meta=None):
        with tracer.span("artifacts.put", kind=kind):
            return original_put(self, kind, key, arrays=arrays, meta=meta)

    ArtifactStore.get, ArtifactStore.put = get, put
    try:
        yield
    finally:
        ArtifactStore.get, ArtifactStore.put = original_get, original_put


def _prepare_technique(task, graph):
    """The app run under the task's technique (``parallel._build_prepared``)."""
    params = dict(task.params)
    technique, _, arg = task.technique.partition(":")
    factory = parallel.APP_FACTORIES[task.app]
    if technique == "none":
        return prepare_run(factory(), graph, **params)
    if technique == "tiling":
        tiles = int(arg or 4)
        app = (
            apps_module.PageRank() if tiles == 1
            else apps_module.TiledPageRank(tiles)
        )
        return prepare_run(app, graph, **params)
    if technique in ("pb", "phi"):
        app = apps_module.PropagationBlockingBinning(phi=technique == "phi")
        return prepare_run(app, graph, **params)
    if technique == "dbg":
        prepared, _ = prepare_dbg_run(
            factory(), graph, num_groups=int(arg or 8), **params
        )
        return prepared
    order = apps_module.bdfs_order(graph.transpose())
    return prepare_run(factory(), graph, order=order, **params)


def _traced_prepared(task, store, cache: OrderedDict, tracer: Tracer):
    key = task.prepare_key()
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    prepared = None
    if store is not None:
        with tracer.span("artifacts.get"):
            prepared = artifacts.cached_prepared(store, task.artifact_key())
    if prepared is None:
        parallel.validate_technique(task.technique)
        graph = None
        if store is not None:
            with tracer.span("artifacts.get"):
                graph = artifacts.cached_graph(
                    store, task.graph, task.scale, task.seed
                )
        if graph is None:
            with tracer.span("graph.load") as record:
                graph = datasets.load(task.graph, scale=task.scale, seed=task.seed)
                record["edges"] = graph.num_edges
            if store is not None:
                with tracer.span("artifacts.put"):
                    artifacts.store_graph(
                        store, task.graph, task.scale, task.seed, graph
                    )
        with tracer.span("apps.prepare") as record:
            prepared = _prepare_technique(task, graph)
            record["accesses"] = len(prepared.trace)
        if store is not None:
            with tracer.span("artifacts.put"):
                artifacts.store_prepared(store, task.artifact_key(), prepared)
    cache[key] = prepared
    while len(cache) > parallel.DEFAULT_PREPARED_CACHE_SIZE:
        cache.popitem(last=False)
    return prepared


def _traced_task(task, unit_ids, cache, tracer: Tracer) -> List[Dict[str, object]]:
    with tracer.span("artifacts.get"):
        store = artifacts.get_store()
    use_rows = (
        store is not None and os.environ.get(parallel.ROWS_ENV, "1") != "0"
    )
    if use_rows:
        with tracer.span("artifacts.get"):
            cached = artifacts.cached_rows(store, task.rows_key())
        if cached is not None:
            return cached
    prepared = _traced_prepared(task, store, cache, tracer)
    with tracer.span("spec.plan"):
        hierarchy = parallel.task_hierarchy(task)
    with tracer.span("engine.filter") as record:
        built = prepared.filter_counters["built"]
        get_private_filter(prepared, hierarchy)
        record["built"] = prepared.filter_counters["built"] > built
    rows: List[Dict[str, object]] = []
    for policy, unit in zip(task.policies, unit_ids):
        with tracer.span("sim.simulate", unit=unit) as sim:
            result = simulate_prepared(
                prepared, policy, hierarchy, engine=task.engine
            )
        tracer.split_simulate(sim, result, policy)
        if policy in POPT_POLICIES and policy != "T-OPT":
            sim["matrices"] = len(prepared.irregular_streams)
        llc = result.llc
        rows.append(
            {
                "graph": task.graph,
                "app": task.app,
                "policy": policy,
                "scale": task.scale,
                "seed": task.seed,
                "technique": task.technique,
                "llc_label": task.llc_label,
                "llc_sets": hierarchy.llc.num_sets,
                "llc_ways": hierarchy.llc.num_ways,
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
    if use_rows:
        with tracer.span("artifacts.put"):
            artifacts.store_rows(store, task.rows_key(), rows)
    return rows


def traced_run_spec(spec, tracer: Tracer) -> List[Dict[str, object]]:
    """Serial, traced equivalent of ``run_spec(spec, jobs=1)``."""
    rows: List[Dict[str, object]] = []
    cache: OrderedDict = OrderedDict()
    with instrument_store(tracer), tracer.span("run"):
        with tracer.span("spec.plan") as plan:
            units = [unit.content_hash() for unit in spec.expand()]
            tasks = spec.tasks()
        plan.update(units=len(units), tasks=len(tasks))
        for index, task in enumerate(tasks):
            tracer.task = index
            unit_ids = units[len(rows):len(rows) + len(task.policies)]
            with tracer.span("task"):
                rows.extend(_traced_task(task, unit_ids, cache, tracer))
        tracer.task = None
    return rows


def _self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced run (before the parent adds the
    cross-run ones: ``parallel.efficiency`` and ``trace.overhead_s``)."""
    spans = tracer.spans
    own = _self_times(spans)
    by_name: Dict[str, float] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
    root = next(s for s in spans if s["name"] == "run")
    plan = next(s for s in spans if s["name"] == "spec.plan" and "units" in s)
    sims = [s for s in spans if s["name"] == "sim.simulate"]
    popt_sims = [s for s in sims if s["policy"] in POPT_POLICIES]
    other_sims = [s for s in sims if s["policy"] not in POPT_POLICIES]
    filters = [s for s in spans if s["name"] == "engine.filter" and "built" in s]
    store_io = [s for s in spans if "kind" in s]
    wall = root["end"] - root["start"]

    def total(name: str) -> float:
        return by_name.get(name, 0.0)

    def attr_sum(name: str, attr: str) -> int:
        return sum(s.get(attr, 0) for s in spans if s["name"] == name)

    rm_hits = sum(
        1 for s in store_io
        if s["name"] == "artifacts.get" and s["kind"] == "rereference-matrix"
        and s["hit"]
    )
    metrics: Dict[str, float] = {
        "graph.load_s": total("graph.load"),
        "graph.edges_per_s": _rate(attr_sum("graph.load", "edges"), total("graph.load")),
        "apps.prepare_s": total("apps.prepare"),
        "apps.accesses": attr_sum("apps.prepare", "accesses"),
        "apps.accesses_per_s": _rate(
            attr_sum("apps.prepare", "accesses"), total("apps.prepare")
        ),
        "engine.filter_s": total("engine.filter"),
        "engine.filters_built": sum(1 for s in filters if s["built"]),
        "engine.filters_reused": sum(1 for s in filters if not s["built"]),
        "engine.llc_visible_fraction": _rate(
            sum(s["llc_visible"] for s in sims), sum(s["accesses"] for s in sims)
        ),
        "kernels.replay_s": total("kernels.replay"),
        "kernels.llc_accesses_per_s": _rate(
            sum(s["llc_visible"] for s in other_sims), total("kernels.replay")
        ),
        "kernels.replays": len(other_sims),
        "kernels.generic_fallbacks": sum(1 for s in sims if s["kernel"] is None),
        "popt.rm_build_s": total("popt.rm_build"),
        "popt.rm_builds": attr_sum("sim.simulate", "matrices") - rm_hits,
        "popt.policy_setup_s": total("popt.policy_setup"),
        "popt.replay_s": total("popt.replay"),
        "popt.llc_accesses_per_s": _rate(
            sum(s["llc_visible"] for s in popt_sims), total("popt.replay")
        ),
        "sim.policy_setup_s": total("sim.policy_setup"),
        "artifacts.get_s": total("artifacts.get"),
        "artifacts.put_s": total("artifacts.put"),
    }
    hits = misses = 0
    for kind in ARTIFACT_KINDS:
        gets = [s for s in store_io if s["kind"] == kind and s["name"] == "artifacts.get"]
        kind_hits = sum(1 for s in gets if s["hit"])
        hits += kind_hits
        misses += len(gets) - kind_hits
        metrics[f"artifacts.hits.{kind}"] = kind_hits
        metrics[f"artifacts.misses.{kind}"] = len(gets) - kind_hits
        metrics[f"artifacts.writes.{kind}"] = sum(
            1 for s in store_io if s["kind"] == kind and s["name"] == "artifacts.put"
        )
    metrics["artifacts.hit_ratio"] = _rate(hits, hits + misses)
    metrics["spec.plan_s"] = total("spec.plan")
    metrics["spec.units"] = plan["units"]
    metrics["spec.tasks"] = plan["tasks"]
    layered = sum(
        own[s["id"]] for s in spans if s["name"] not in GROUPING_SPANS
    )
    metrics["trace.coverage"] = _rate(layered, wall)
    return metrics


def task_seconds(tracer: Tracer) -> float:
    return sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "task")
