"""Declarative experiment specs: declare axes, expand a plan, run it.

Every figure harness used to hand-roll its own ``graphs × apps ×
policies × hierarchies`` loops; only some reached the parallel sweep
machinery, and the "software-vs-hardware locality shootout" the paper
frames could not be expressed without writing yet another bespoke
function. This module replaces the loops with data:

1. **Spec** — an :class:`ExperimentSpec` names the axes (graphs, apps,
   software techniques, LLC geometries, policies) plus fixed options
   (scale, seed, engine) and filters (``exclude``).
2. **Plan** — :meth:`ExperimentSpec.expand` flattens the axes into an
   ordered list of :class:`SpecUnit` — one (graph, app, technique, llc,
   policy) point each, with a stable content hash — and
   :meth:`ExperimentSpec.tasks` groups consecutive units sharing a
   prepared run into :class:`~repro.sim.parallel.SweepTask` chunks.
3. **Execute** — :func:`run_spec` fans the tasks over a process pool
   (``jobs=N`` output is bit-identical to serial) and can stream rows
   as they finish. With an artifact store configured
   (:mod:`repro.sim.artifacts`), graphs,
   prepared runs, private filters, Rereference Matrices, and finished
   rows are all reused across invocations, making interrupted sweeps
   resumable.
4. **Report** — a spec optionally names a reporter (:data:`REPORTERS`)
   that derives the figure's presentation rows (pivots, baselines,
   normalizations) from the flat stat rows. Reporters are pure functions
   of the row list, so the replay work stays policy-chunked and
   parallel regardless of the figure's final shape.

Expansion is deterministic by construction: axis order is declared data
(``order``, policy always innermost), unit hashes are sha256 of
canonical JSON, and nothing consults dict iteration order or process
state — the same spec yields the same unit order and hashes in any
process (``tests/sim/test_spec.py`` locks this in).

Every figure harness in :mod:`repro.sim.experiments` is a thin wrapper
over a spec factory registered in :data:`SPEC_HARNESSES`.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.config import scaled_hierarchy
from ..graph import datasets
from . import artifacts, parallel
from .artifacts import canonical_json
from .parallel import (
    APP_FACTORIES,
    SweepTask,
    policy_chunks,
    pool_context,
    run_task,
    validate_technique,
)

__all__ = [
    "AXES",
    "ExperimentSpec",
    "SpecUnit",
    "REPORTERS",
    "SPEC_HARNESSES",
    "spec_harness",
    "run_spec",
    "report_rows",
    "fig02_spec",
    "fig04_spec",
    "fig07_spec",
    "fig10_spec",
    "fig11_spec",
    "fig12a_spec",
    "fig12b_spec",
    "fig13_spec",
    "fig14_spec",
    "fig15_spec",
    "fig16_spec",
    "scenario_matrix",
]

#: Axis names a spec's ``order`` may permute (policy is always the
#: innermost loop so consecutive units share a prepared run).
AXES = ("graph", "app", "technique", "llc", "replay")

#: LLC geometry point: (label, num_sets, num_ways). ``None`` means the
#: scale's default geometry.
LLCPoint = Optional[Tuple[str, int, int]]

#: Replay options point: (entry_bits, account_capacity). ``None`` means
#: the defaults of :func:`~repro.sim.driver.simulate_prepared`.
ReplayPoint = Optional[Tuple[int, bool]]


@dataclass(frozen=True)
class SpecUnit:
    """One fully-bound simulation point of an expanded spec."""

    spec: str
    graph: str
    app: str
    technique: str
    llc: LLCPoint
    policy: str
    scale: str
    seed: int
    engine: str
    cache_scale: str
    params: Tuple[Tuple[str, object], ...]
    replay: ReplayPoint = None

    def key(self) -> Dict[str, object]:
        """JSON-able identity (what the content hash covers).

        ``replay`` joins the key only when set, so default-replay units
        keep their original hashes.
        """
        key: Dict[str, object] = {
            "spec": self.spec,
            "graph": self.graph,
            "app": self.app,
            "technique": self.technique,
            "llc": list(self.llc) if self.llc else None,
            "policy": self.policy,
            "scale": self.scale,
            "seed": self.seed,
            "engine": self.engine,
            "cache_scale": self.cache_scale,
            "params": [[name, value] for name, value in self.params],
        }
        if self.replay is not None:
            key["replay"] = list(self.replay)
        return key

    def content_hash(self) -> str:
        return hashlib.sha256(
            canonical_json(self.key()).encode("utf-8")
        ).hexdigest()

    def task_identity(self) -> Tuple[object, ...]:
        """Everything but the policy — units sharing this share a task."""
        return (
            self.graph, self.app, self.technique, self.llc,
            self.scale, self.seed, self.engine, self.cache_scale,
            self.params, self.replay,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Axes and options of one experiment, ready to expand and run.

    ``exclude`` filters the cross product: each entry is a tuple of
    ``(axis, value)`` pairs over :data:`AXES` or ``policy``, and any
    unit matching *all* pairs of an entry is dropped (e.g. Fig. 10
    excludes ``(app=Radii, graph=HBUBL)`` like the paper); a value
    matches when it equals ``str()`` of the unit's axis value. ``llc``
    entries are ``(label, sets, ways)`` points layered on the
    ``cache_scale or scale`` hierarchy; ``None`` keeps the default
    geometry. ``replay`` entries are ``(entry_bits, account_capacity)``
    replay options; ``None`` keeps the defaults. ``report`` names a
    :data:`REPORTERS` entry that derives the figure's presentation rows.
    """

    name: str
    graphs: Tuple[str, ...]
    policies: Tuple[str, ...]
    apps: Tuple[str, ...] = ("PR",)
    techniques: Tuple[str, ...] = ("none",)
    llc: Tuple[LLCPoint, ...] = (None,)
    replay: Tuple[ReplayPoint, ...] = (None,)
    scale: str = "small"
    seed: int = 42
    engine: str = "fast"
    cache_scale: str = ""
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    order: Tuple[str, ...] = AXES
    chunk_size: int = 2
    exclude: Tuple[Tuple[Tuple[str, str], ...], ...] = ()
    report: str = ""

    def __post_init__(self) -> None:
        if not self.graphs or not self.policies:
            raise ValueError(
                f"spec {self.name!r} needs at least one graph and policy"
            )
        if sorted(self.order) != sorted(AXES):
            raise ValueError(
                f"order must permute {AXES}, got {self.order}"
            )
        for axis, values in self._axis_values().items():
            if len(set(values)) != len(values):
                raise ValueError(
                    f"spec {self.name!r} repeats a value on the {axis} "
                    f"axis: {values}"
                )
        for entry in self.exclude:
            for axis, _ in entry:
                if axis not in AXES + ("policy",):
                    raise ValueError(
                        f"spec {self.name!r} excludes on unknown axis "
                        f"{axis!r}; expected one of {AXES + ('policy',)}"
                    )
        for app in self.apps:
            if app not in APP_FACTORIES:
                raise ValueError(
                    f"unknown app {app!r}; expected one of "
                    f"{sorted(APP_FACTORIES)}"
                )
        for technique in self.techniques:
            validate_technique(technique)
        if self.report and self.report not in REPORTERS:
            raise ValueError(
                f"unknown reporter {self.report!r}; expected one of "
                f"{sorted(REPORTERS)}"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def _axis_values(self) -> Dict[str, Sequence[object]]:
        return {
            "graph": self.graphs,
            "app": self.apps,
            "technique": self.techniques,
            "llc": self.llc,
            "replay": self.replay,
            "policy": self.policies,
        }

    def _excluded(self, bound: Dict[str, object]) -> bool:
        for entry in self.exclude:
            if all(str(bound[axis]) == value for axis, value in entry):
                return True
        return False

    def expand(self) -> List[SpecUnit]:
        """Flatten the axes into ordered units (policy innermost)."""
        axis_values = self._axis_values()
        units: List[SpecUnit] = []

        def descend(depth: int, bound: Dict[str, object]) -> None:
            if depth == len(self.order):
                for policy in self.policies:
                    bound["policy"] = policy
                    if self._excluded(bound):
                        continue
                    units.append(
                        SpecUnit(
                            spec=self.name,
                            graph=bound["graph"],
                            app=bound["app"],
                            technique=bound["technique"],
                            llc=bound["llc"],
                            policy=policy,
                            scale=self.scale,
                            seed=self.seed,
                            engine=self.engine,
                            cache_scale=self.cache_scale,
                            params=self.params,
                            replay=bound["replay"],
                        )
                    )
                del bound["policy"]
                return
            axis = self.order[depth]
            for value in axis_values[axis]:
                bound[axis] = value
                descend(depth + 1, bound)
            del bound[axis]

        descend(0, {})
        return units

    def plan_digest(self) -> str:
        """One hash over the whole ordered plan (determinism witness)."""
        h = hashlib.sha256()
        for unit in self.expand():
            h.update(unit.content_hash().encode("ascii"))
        return h.hexdigest()

    def tasks(self) -> List[SweepTask]:
        """Group consecutive same-prepare units into chunked SweepTasks."""
        tasks: List[SweepTask] = []
        pending: List[str] = []
        current: Optional[SpecUnit] = None

        def flush() -> None:
            if current is None:
                return
            llc_label = current.llc[0] if current.llc else ""
            geometry = (
                (current.llc[1], current.llc[2]) if current.llc else None
            )
            for chunk in policy_chunks(pending, self.chunk_size):
                tasks.append(
                    SweepTask(
                        graph=current.graph,
                        app=current.app,
                        policies=chunk,
                        scale=current.scale,
                        seed=current.seed,
                        engine=current.engine,
                        params=current.params,
                        technique=current.technique,
                        llc=geometry,
                        llc_label=llc_label,
                        cache_scale=current.cache_scale,
                        replay=current.replay,
                    )
                )

        for unit in self.expand():
            if current is None or unit.task_identity() != \
                    current.task_identity():
                flush()
                current = unit
                pending = []
            pending.append(unit.policy)
        flush()
        return tasks


def run_spec(
    spec: ExperimentSpec,
    jobs: int = 1,
    stream: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Execute a spec's plan; returns flat stat rows in plan order.

    ``stream`` (when given) receives each row as soon as its task
    completes — tasks are consumed in submission order, so streaming
    output is deterministic too, and with an artifact store configured
    a re-run streams previously-finished rows immediately.
    """
    tasks = spec.tasks()
    rows: List[Dict[str, object]] = []

    def emit(task_rows: List[Dict[str, object]]) -> None:
        for row in task_rows:
            rows.append(row)
            if stream is not None:
                stream(row)

    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            emit(run_task(task))
        return rows

    # Resolve already-finished tasks from the artifact store in the
    # parent before spinning up workers: a warm rerun costs zero pool
    # round-trips, and the parent's cache counters (what the matrix CLI
    # reports) see the row hits instead of attributing them to workers.
    done: Dict[int, List[Dict[str, object]]] = {}
    store = artifacts.get_store()
    if store is not None and parallel._rows_cache_enabled():
        for index, task in enumerate(tasks):
            cached = artifacts.cached_rows(store, task.rows_key())
            if cached is not None:
                done[index] = cached
    pending = [
        (index, task)
        for index, task in enumerate(tasks)
        if index not in done
    ]
    if len(pending) <= 1:
        for index, task in pending:
            done[index] = run_task(task)
        for index in range(len(tasks)):
            emit(done[index])
        return rows
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=pool_context()
    ) as pool:
        # Executor.map yields per-task results in submission order;
        # interleave cached tasks back at their plan positions.
        results = pool.map(
            run_task, [task for _, task in pending], chunksize=1
        )
        for index in range(len(tasks)):
            emit(done[index] if index in done else next(results))
    return rows


def report_rows(
    spec: ExperimentSpec, rows: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Apply the spec's reporter (identity when none declared)."""
    if not spec.report:
        return rows
    return REPORTERS[spec.report](spec, rows)


# ----------------------------------------------------------------------
# Reporters: flat stat rows -> the figure's presentation rows.
# Each reproduces its legacy harness's derived columns bit-for-bit
# (tests/sim/test_spec.py checks against pre-refactor golden rows).
# ----------------------------------------------------------------------


def _speedup(cycles: float, baseline_cycles: float) -> float:
    return baseline_cycles / cycles if cycles else float("inf")


def _missred(misses: int, baseline_misses: int) -> float:
    if baseline_misses == 0:
        return 0.0
    return 1.0 - misses / baseline_misses


def _group_in_order(
    rows: List[Dict[str, object]], axes: Sequence[str]
) -> List[Tuple[Tuple[object, ...], List[Dict[str, object]]]]:
    """Group rows by axis values, preserving first-seen order."""
    groups: Dict[Tuple[object, ...], List[Dict[str, object]]] = {}
    ordered: List[Tuple[object, ...]] = []
    for row in rows:
        key = tuple(row[axis] for axis in axes)
        if key not in groups:
            groups[key] = []
            ordered.append(key)
        groups[key].append(row)
    return [(key, groups[key]) for key in ordered]


def _report_mpki_pivot(spec, rows):
    """Per-graph pivot: ``policy`` / ``policy_missrate`` columns."""
    by_graph: Dict[str, Dict[str, object]] = {}
    out: List[Dict[str, object]] = []
    for graph_name in spec.graphs:
        row: Dict[str, object] = {"graph": graph_name}
        by_graph[graph_name] = row
        out.append(row)
    for item in rows:
        row = by_graph[item["graph"]]
        policy = item["policy"]
        row[policy] = round(float(item["llc_mpki"]), 2)
        row[f"{policy}_missrate"] = round(float(item["llc_miss_rate"]), 3)
    return out


def _report_main_result(spec, rows):
    """Fig. 10 shape: speedups/miss reductions vs LRU and DRRIP."""
    out: List[Dict[str, object]] = []
    for (app, graph_name), group in _group_in_order(rows, ("app", "graph")):
        stats = {item["policy"]: item for item in group}
        lru, drrip = stats["LRU"], stats["DRRIP"]
        if lru["instructions"] == 0:  # empty trace (e.g. converged app)
            continue
        row: Dict[str, object] = {
            "app": app,
            "graph": graph_name,
            "DRRIP_speedup_vs_LRU": round(
                _speedup(drrip["cycles"], lru["cycles"]), 3
            ),
        }
        for policy in ("P-OPT", "T-OPT"):
            item = stats[policy]
            row[f"{policy}_speedup_vs_LRU"] = round(
                _speedup(item["cycles"], lru["cycles"]), 3
            )
            row[f"{policy}_speedup_vs_DRRIP"] = round(
                _speedup(item["cycles"], drrip["cycles"]), 3
            )
            row[f"{policy}_missred_vs_DRRIP"] = round(
                _missred(item["llc_misses"], drrip["llc_misses"]), 3
            )
            row[f"{policy}_missred_vs_LRU"] = round(
                _missred(item["llc_misses"], lru["llc_misses"]), 3
            )
        out.append(row)
    return out


def _report_tiling_norm(spec, rows):
    """Fig. 13 shape: misses normalized to the untiled DRRIP point."""
    out: List[Dict[str, object]] = []
    for (graph_name,), group in _group_in_order(rows, ("graph",)):
        reference = next(
            item["llc_misses"]
            for item in group
            if item["technique"] == "tiling:1" and item["policy"] == "DRRIP"
        )
        for (technique,), points in _group_in_order(group, ("technique",)):
            row: Dict[str, object] = {
                "graph": graph_name,
                "tiles": int(technique.split(":", 1)[1]),
            }
            for item in points:
                row[f"{item['policy']}_norm_misses"] = round(
                    item["llc_misses"] / max(reference, 1), 3
                )
            out.append(row)
    return out


#: Technique -> Fig. 14 column prefix.
_PB_LABELS = {"pb": "PB", "phi": "PHI"}


def _report_pb_phi_norm(spec, rows):
    """Fig. 14 shape: DRAM traffic normalized to PB+DRRIP per graph."""
    out: List[Dict[str, object]] = []
    for (graph_name,), group in _group_in_order(rows, ("graph",)):
        reference = next(
            item["llc_misses"]
            for item in group
            if item["technique"] == "pb" and item["policy"] == "DRRIP"
        )
        row: Dict[str, object] = {"graph": graph_name}
        for item in group:
            label = _PB_LABELS[item["technique"]]
            row[f"{label}+{item['policy']}"] = round(
                item["llc_misses"] / max(reference, 1), 3
            )
        out.append(row)
    return out


def _report_llc_sensitivity(spec, rows):
    """Fig. 16 shape: P-OPT miss reduction vs DRRIP per LLC point."""
    out: List[Dict[str, object]] = []
    group_axes = ("graph", "llc_label", "llc_sets", "llc_ways")
    for key, group in _group_in_order(rows, group_axes):
        graph_name, label, num_sets, num_ways = key
        stats = {item["policy"]: item for item in group}
        out.append(
            {
                "graph": graph_name,
                "sweep": label,
                "llc_kib": num_sets * num_ways * 64 // 1024,
                "ways": num_ways,
                "P-OPT_missred": round(
                    _missred(
                        stats["P-OPT"]["llc_misses"],
                        stats["DRRIP"]["llc_misses"],
                    ),
                    3,
                ),
            }
        )
    return out


#: Techniques whose units report under their own label: their DRRIP
#: unit is a comparator (Fig. 12b's HATS-BDFS), never the baseline.
_TECHNIQUE_LABELS = {"hats": "HATS-BDFS"}


def _vs_drrip(head, columns):
    """A reporter with one row per graph: ``head(graph)``, then
    ``columns(item, baseline)`` for each other unit, against the graph's
    DRRIP unit (Figs. 7, 11, 12a, 12b and 15)."""

    def report(spec, rows):
        out: List[Dict[str, object]] = []
        for (graph_name,), group in _group_in_order(rows, ("graph",)):
            baseline = next(
                item for item in group
                if item["policy"] == "DRRIP"
                and item["technique"] not in _TECHNIQUE_LABELS
            )
            row = head(graph_name)
            for item in group:
                if item is not baseline:
                    row.update(columns(item, baseline))
            out.append(row)
        return out

    return report


def _missred_vs(item, baseline) -> float:
    return round(_missred(item["llc_misses"], baseline["llc_misses"]), 3)


def _graph_head(graph_name):
    return {"graph": graph_name}


def _missred_columns(item, baseline):
    """``<label>_missred`` (and ``<label>_tie_rate`` on replay points);
    the label is the technique's, ``<entry_bits>b`` or the policy."""
    if item["technique"] in _TECHNIQUE_LABELS:
        label = _TECHNIQUE_LABELS[item["technique"]]
    elif "entry_bits" in item:
        label = f"{item['entry_bits']}b"
    else:
        label = item["policy"]
    columns: Dict[str, object] = {
        f"{label}_missred": _missred_vs(item, baseline)
    }
    if item.get("tie_rate") is not None:
        columns[f"{label}_tie_rate"] = round(float(item["tie_rate"]), 3)
    return columns


#: Fig. 7 column per Rereference Matrix design.
_RM_DESIGN_LABELS = {
    "P-OPT-Inter": "P-OPT-INTER-ONLY",
    "P-OPT": "P-OPT-INTER+INTRA",
    "T-OPT": "T-OPT",
}


def _reservation_columns(item, baseline):
    """Fig. 11: miss reduction and reserved ways, or the overflow."""
    policy = item["policy"]
    if "error" in item:  # the reservation left no LLC way for data
        return {
            f"{policy}_missred": None,
            f"{policy}_ways": item["error"][:40],
        }
    return {
        f"{policy}_missred": _missred_vs(item, baseline),
        f"{policy}_ways": item["reserved_ways"],
    }


REPORTERS: Mapping[str, Callable[..., List[Dict[str, object]]]]
REPORTERS = MappingProxyType({
    "mpki_pivot": _report_mpki_pivot,
    "main_result": _report_main_result,
    "tiling_norm": _report_tiling_norm,
    "pb_phi_norm": _report_pb_phi_norm,
    "llc_sensitivity": _report_llc_sensitivity,
    "missred_vs_drrip": _vs_drrip(_graph_head, _missred_columns),
    "rm_designs": _vs_drrip(
        _graph_head,
        lambda item, baseline: {
            _RM_DESIGN_LABELS[item["policy"]]: _missred_vs(item, baseline)
        },
    ),
    "reservation_knee": _vs_drrip(
        lambda graph_name: {"vertices": int(graph_name.rpartition("@")[2])},
        _reservation_columns,
    ),
})


# ----------------------------------------------------------------------
# Spec factories for the figure harnesses. SPEC_HARNESSES maps the
# harness function name in sim/experiments.py to its factory.
# ----------------------------------------------------------------------

# Filled by import-time decorators only; SPEC_HARNESSES is its
# read-only view.
_SPEC_HARNESSES: Dict[str, Callable[..., ExperimentSpec]] = {}
SPEC_HARNESSES: Mapping[str, Callable[..., ExperimentSpec]] = (
    MappingProxyType(_SPEC_HARNESSES)
)


def spec_harness(harness_name: str):
    """Register a spec factory as the declarative form of a harness.

    Duplicate names are rejected, as
    :func:`~repro.policies.registry.register_policy` does.
    """

    def decorate(fn):
        if harness_name in _SPEC_HARNESSES:
            raise ValueError(
                f"spec harness {harness_name!r} is already registered"
            )
        _SPEC_HARNESSES[harness_name] = fn
        return fn

    return decorate


FIG2_POLICIES = ("LRU", "DRRIP", "SHiP-PC", "SHiP-Mem", "Hawkeye")


@spec_harness("fig02_sota_mpki")
def fig02_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig02",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=FIG2_POLICIES,
        scale=scale,
        seed=seed,
        report="mpki_pivot",
    )


@spec_harness("fig04_topt_mpki")
def fig04_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return replace(
        fig02_spec(scale=scale, graphs=graphs, seed=seed),
        name="fig04",
        policies=FIG2_POLICIES + ("T-OPT",),
    )


@spec_harness("fig07_rereference_designs")
def fig07_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig07",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=("DRRIP", "P-OPT-Inter", "P-OPT", "T-OPT"),
        scale=scale,
        seed=seed,
        report="rm_designs",
    )


@spec_harness("fig10_main_result")
def fig10_spec(
    scale="small", graphs=None, seed=42, apps=None
) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig10",
        graphs=tuple(graphs or datasets.graph_names()),
        apps=tuple(apps or ("PR", "CC", "PR-Delta", "Radii", "MIS")),
        policies=("LRU", "DRRIP", "P-OPT", "T-OPT"),
        scale=scale,
        seed=seed,
        order=("app", "graph", "technique", "llc", "replay"),
        exclude=((("app", "Radii"), ("graph", "HBUBL")),),
        report="main_result",
    )


@spec_harness("fig11_popt_se_scaling")
def fig11_spec(
    vertex_counts=(4096, 16384, 65536, 131072), scale="small", seed=42
) -> ExperimentSpec:
    """URAND at each vertex count (``URAND@N``), the LLC fixed by ``scale``."""
    return ExperimentSpec(
        name="fig11",
        graphs=tuple(f"URAND@{n}" for n in vertex_counts),
        policies=("DRRIP", "P-OPT", "P-OPT-SE"),
        scale=scale,
        seed=seed,
        report="reservation_knee",
    )


@spec_harness("fig12a_grasp")
def fig12a_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    """Every policy on the DBG-ordered graph; GRASP derives its ranges."""
    return ExperimentSpec(
        name="fig12a",
        graphs=tuple(graphs or datasets.graph_names() + ["GPL"]),
        techniques=("dbg",),
        policies=("DRRIP", "GRASP", "P-OPT"),
        scale=scale,
        seed=seed,
        report="missred_vs_drrip",
    )


@spec_harness("fig12b_hats")
def fig12b_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    """DRRIP under BDFS order (HATS) and P-OPT, vs DRRIP as declared."""
    return ExperimentSpec(
        name="fig12b",
        graphs=tuple(graphs or datasets.graph_names() + ["ARAB"]),
        techniques=("hats", "none"),
        policies=("DRRIP", "P-OPT"),
        scale=scale,
        seed=seed,
        exclude=((("technique", "hats"), ("policy", "P-OPT")),),
        report="missred_vs_drrip",
    )


@spec_harness("fig13_tiling")
def fig13_spec(
    scale="small",
    graphs=("URAND64", "KRON"),
    tile_counts=(1, 2, 4, 8),
    seed=42,
) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig13",
        graphs=tuple(graphs),
        techniques=tuple(f"tiling:{tiles}" for tiles in tile_counts),
        policies=("DRRIP", "P-OPT"),
        scale=scale,
        seed=seed,
        report="tiling_norm",
    )


#: Fig. 14 pairs each graph scale with the cache profile that keeps the
#: PHI accumulators comparable to the LLC (see fig14_pb_phi's docstring).
PHI_CACHE_SCALE = {
    "tiny": "small",
    "small": "medium",
    "medium": "large",
    "large": "large",
}


@spec_harness("fig14_pb_phi")
def fig14_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig14",
        graphs=tuple(graphs or datasets.graph_names()),
        techniques=("pb", "phi"),
        policies=("DRRIP", "P-OPT"),
        scale=scale,
        seed=seed,
        cache_scale=PHI_CACHE_SCALE.get(scale, scale),
        report="pb_phi_norm",
    )


@spec_harness("fig15_quantization")
def fig15_spec(
    scale="small", graphs=None, entry_bit_choices=(4, 8, 16), seed=42
) -> ExperimentSpec:
    """DRRIP and T-OPT at default replay options; P-OPT at each entry
    width with no way reservation (the limit study)."""
    points = tuple((bits, False) for bits in entry_bit_choices)
    exclude = ((("replay", "None"), ("policy", "P-OPT")),) + tuple(
        (("replay", str(point)), ("policy", policy))
        for point in points
        for policy in ("DRRIP", "T-OPT")
    )
    return ExperimentSpec(
        name="fig15",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=("DRRIP", "T-OPT", "P-OPT"),
        replay=(None,) + points,
        scale=scale,
        seed=seed,
        exclude=exclude,
        report="missred_vs_drrip",
    )


@spec_harness("fig16_llc_sensitivity")
def fig16_spec(
    scale="small",
    graphs=None,
    set_counts=(8, 16, 32, 64),
    way_counts=(8, 16, 32),
    seed=42,
) -> ExperimentSpec:
    base = scaled_hierarchy(scale)
    llc_points: List[LLCPoint] = [
        ("capacity", num_sets, base.llc.num_ways)
        for num_sets in set_counts
    ]
    llc_points += [
        ("associativity", base.llc.num_sets, num_ways)
        for num_ways in way_counts
    ]
    return ExperimentSpec(
        name="fig16",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=("DRRIP", "P-OPT"),
        llc=tuple(llc_points),
        scale=scale,
        seed=seed,
        report="llc_sensitivity",
    )


@spec_harness("scenario_matrix")
def scenario_matrix(
    scale: str = "small",
    graphs: Optional[Sequence[str]] = None,
    policies: Sequence[str] = ("LRU", "DRRIP", "T-OPT", "P-OPT"),
    techniques: Sequence[str] = ("none", "tiling:4", "pb", "phi", "hats"),
    llc_factors: Sequence[int] = (1, 2, 4),
    seed: int = 42,
) -> ExperimentSpec:
    """The software-vs-hardware locality shootout the ROADMAP asks for.

    Crosses {software technique} × {policy incl. T-OPT/P-OPT} × {graph
    class} × {LLC size}: every software locality scheme against every
    replacement policy at several LLC capacities, so the "does software
    blocking reach P-OPT's gains, and do they compose?" question is one
    spec run instead of five bespoke harnesses. LLC points scale the
    base set count by ``llc_factors`` (ways fixed).
    """
    base = scaled_hierarchy(scale)
    llc_points = tuple(
        (
            f"{factor * base.llc.num_sets * base.llc.num_ways * 64 // 1024}"
            f"KiB",
            factor * base.llc.num_sets,
            base.llc.num_ways,
        )
        for factor in llc_factors
    )
    return ExperimentSpec(
        name="scenario_matrix",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=tuple(policies),
        techniques=tuple(techniques),
        llc=llc_points,
        scale=scale,
        seed=seed,
        order=("graph", "technique", "app", "llc", "replay"),
    )
