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
4. **Report** — each paper figure is one :class:`Figure` in
   :data:`FIGURES`: its spec factory, a reporter that derives the
   figure's presentation rows (pivots, baselines, normalizations) from
   the flat stat rows, and the paper's claims checked on those rows.
   Reporters are pure functions of the row list, so the replay work
   stays policy-chunked and parallel regardless of the figure's final
   shape.

Expansion is deterministic by construction: axis order is declared data
(``order``, policy always innermost), unit hashes are sha256 of
canonical JSON, and nothing consults dict iteration order or process
state — the same spec yields the same unit order and hashes in any
process (``tests/sim/test_spec.py`` locks this in).
"""

from __future__ import annotations

import hashlib
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.config import scaled_hierarchy
from ..graph import datasets
from .artifacts import canonical_json, get_store
from .parallel import (
    APP_FACTORIES,
    SweepTask,
    policy_chunks,
    pool_context,
    simulate_task,
    simulate_task_in_worker,
    stored_rows,
    validate_technique,
)

__all__ = [
    "AXES",
    "Claim",
    "ExperimentSpec",
    "FIGURES",
    "Figure",
    "SpecUnit",
    "geomean",
    "run_spec",
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

#: Flat stat rows (from :func:`run_spec`) or a figure's reported rows.
Rows = List[Dict[str, object]]


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
    replay options; ``None`` keeps the defaults.
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
    # The one rows lookup per task, made here before any worker starts:
    # a warm rerun costs zero pool round-trips, and the parent's cache
    # counters (what the matrix CLI reports) see the row hits. A task
    # that missed goes straight to simulation, never to a second lookup.
    found = [stored_rows(task) for task in tasks]
    pending = [task for task, rows in zip(tasks, found) if rows is None]

    def collect(simulated) -> List[Dict[str, object]]:
        # ``simulated`` yields the pending tasks' rows in submission
        # order; cached tasks keep their plan positions.
        rows: List[Dict[str, object]] = []
        for task_rows in found:
            for row in next(simulated) if task_rows is None else task_rows:
                rows.append(row)
                if stream is not None:
                    stream(row)
        return rows

    if jobs <= 1 or len(pending) <= 1:
        return collect(map(simulate_task, pending))

    def counted(results):
        # A worker's store lookups count in the parent's counters.
        store = get_store()
        for rows, counts in results:
            if store is not None:
                store.add_counts(counts)
            yield rows

    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=pool_context()
    ) as pool:
        return collect(counted(pool.map(
            simulate_task_in_worker, pending, chunksize=1
        )))


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


_report_missred_vs_drrip = _vs_drrip(_graph_head, _missred_columns)
_report_rm_designs = _vs_drrip(
    _graph_head,
    lambda item, baseline: {
        _RM_DESIGN_LABELS[item["policy"]]: _missred_vs(item, baseline)
    },
)
_report_reservation_knee = _vs_drrip(
    lambda graph_name: {"vertices": int(graph_name.rpartition("@")[2])},
    _reservation_columns,
)


# ----------------------------------------------------------------------
# Spec factories: one per figure, plus the scenario matrix.
# ----------------------------------------------------------------------

FIG2_POLICIES = ("LRU", "DRRIP", "SHiP-PC", "SHiP-Mem", "Hawkeye")


def fig02_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig02",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=FIG2_POLICIES,
        scale=scale,
        seed=seed,
    )


def fig04_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return replace(
        fig02_spec(scale=scale, graphs=graphs, seed=seed),
        name="fig04",
        policies=FIG2_POLICIES + ("T-OPT",),
    )


def fig07_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig07",
        graphs=tuple(graphs or datasets.graph_names()),
        policies=("DRRIP", "P-OPT-Inter", "P-OPT", "T-OPT"),
        scale=scale,
        seed=seed,
    )


def fig10_spec(
    scale="small", graphs=None, seed=42, apps=None
) -> ExperimentSpec:
    """Radii skips HBUBL like the paper (its diameter keeps Radii
    push-only there)."""
    return ExperimentSpec(
        name="fig10",
        graphs=tuple(graphs or datasets.graph_names()),
        apps=tuple(apps or ("PR", "CC", "PR-Delta", "Radii", "MIS")),
        policies=("LRU", "DRRIP", "P-OPT", "T-OPT"),
        scale=scale,
        seed=seed,
        order=("app", "graph", "technique", "llc", "replay"),
        exclude=((("app", "Radii"), ("graph", "HBUBL")),),
    )


#: Fig. 11's URAND sizes per scale: from well below the scale's LLC
#: capacity knee to past it.
FIG11_VERTEX_COUNTS = {
    "tiny": (1024, 2048, 4096),
    "small": (4096, 16384, 65536, 131072),
    "medium": (16384, 65536, 262144, 524288),
    "large": (65536, 262144, 1048576),
}


def fig11_spec(vertex_counts=None, scale="small", seed=42) -> ExperimentSpec:
    """URAND at each vertex count (``URAND@N``), the LLC fixed by ``scale``;
    the counts default to :data:`FIG11_VERTEX_COUNTS` of the scale."""
    return ExperimentSpec(
        name="fig11",
        graphs=tuple(
            f"URAND@{n}"
            for n in vertex_counts or FIG11_VERTEX_COUNTS[scale]
        ),
        policies=("DRRIP", "P-OPT", "P-OPT-SE"),
        scale=scale,
        seed=seed,
    )


def fig12a_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    """Every policy on the DBG-ordered graph; GRASP derives its ranges."""
    return ExperimentSpec(
        name="fig12a",
        graphs=tuple(graphs or datasets.graph_names() + ["GPL"]),
        techniques=("dbg",),
        policies=("DRRIP", "GRASP", "P-OPT"),
        scale=scale,
        seed=seed,
    )


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
    )


def fig13_spec(
    scale="small",
    graphs=("URAND64", "KRON"),
    tile_counts=(1, 2, 4, 8),
    seed=42,
) -> ExperimentSpec:
    """CSR-segmenting as the ``tiling:N`` technique; the untiled DRRIP
    point is the reporter's normalization baseline."""
    return ExperimentSpec(
        name="fig13",
        graphs=tuple(graphs),
        techniques=tuple(f"tiling:{tiles}" for tiles in tile_counts),
        policies=("DRRIP", "P-OPT"),
        scale=scale,
        seed=seed,
    )


#: Fig. 14 pairs each graph scale with the cache profile that keeps the
#: PHI accumulators comparable to the LLC (see fig14_spec's docstring).
PHI_CACHE_SCALE = {
    "tiny": "small",
    "small": "medium",
    "medium": "large",
    "large": "large",
}


def fig14_spec(scale="small", graphs=None, seed=42) -> ExperimentSpec:
    """PHI's regime requires the destination accumulators to be
    comparable to the LLC (the paper holds ~8 MB of accumulators against
    a 24 MiB LLC), so the graphs run on the cache profile that restores
    that ratio (:data:`PHI_CACHE_SCALE`): in-cache aggregation is
    meaningless when the accumulator dwarfs the cache."""
    return ExperimentSpec(
        name="fig14",
        graphs=tuple(graphs or datasets.graph_names()),
        techniques=("pb", "phi"),
        policies=("DRRIP", "P-OPT"),
        scale=scale,
        seed=seed,
        cache_scale=PHI_CACHE_SCALE.get(scale, scale),
    )


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
    )


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
    )


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


# ----------------------------------------------------------------------
# Figures: spec factory, reporter and the paper's claims in one place.
# Each claim's threshold is the one its figure's shape check has always
# used. A measure reads only the graphs, tile counts and bit widths
# present in the rows and returns None when what it compares is absent.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One of the paper's claims about a figure: ``measure(rows)`` reads
    the reported rows, ``holds(value)`` is the pass condition and
    ``paper`` the paper's value."""

    label: str
    paper: str
    measure: Callable[[Rows], object]
    holds: Callable[[object], bool]


@dataclass(frozen=True)
class Figure:
    """One paper figure: how to run it, report it and check it."""

    id: str
    title: str
    paper: str  # the paper's result, in one sentence
    spec: Callable[..., ExperimentSpec]
    report: Callable[[ExperimentSpec, Rows], Rows]
    claims: Tuple[Claim, ...]

    def run(self, jobs: int = 1, **kwargs) -> Rows:
        """Build the spec from ``kwargs``, run it and report its rows."""
        spec = self.spec(**kwargs)
        return self.report(spec, run_spec(spec, jobs=jobs))

    def check(self, rows: Rows) -> Rows:
        """One ``{claim, paper, measured, holds}`` row per claim, with
        ``measured`` and ``holds`` None where the claim does not apply."""
        values = [claim.measure(rows) for claim in self.claims]
        return [
            {"claim": claim.label, "paper": claim.paper,
             "measured": _shown(value),
             "holds": None if value is None else claim.holds(value)}
            for claim, value in zip(self.claims, values)
        ]


def _shown(value: object) -> object:
    if isinstance(value, float):
        return round(value, 3)
    if isinstance(value, tuple):
        return tuple(_shown(item) for item in value)
    return value


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregation for speedups/ratios)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def _mean(rows: Rows, column: str) -> float:
    return statistics.mean(row[column] for row in rows)


def _mean_gap(high: str, low: str) -> Callable[[Rows], float]:
    return lambda rows: _mean(rows, high) - _mean(rows, low)


def _geomean_of(rows: Rows, column: str) -> float:
    return geomean([row[column] for row in rows])


def _ratio(num: float, den: float) -> float:
    """``num / den``; a zero ``den`` reads as ``num <= c * den`` does."""
    if den:
        return num / den
    return float("inf") if num else 0.0


def _over_rows(pick, value, where=lambda row: True, items=lambda rows: rows):
    """Measure: ``pick`` (min or max) of ``value`` over the rows (or
    ``items(rows)``) that ``where`` selects; None when it selects none."""
    return lambda rows: pick(
        (value(item) for item in items(rows) if where(item)), default=None
    )


def _fig02_spread(rows: Rows) -> float:
    """Mean, over graphs, of the policies' miss-rate spread."""
    return statistics.mean(
        max(row[f"{p}_missrate"] for p in FIG2_POLICIES)
        - min(row[f"{p}_missrate"] for p in FIG2_POLICIES)
        for row in rows
    )


def _fits(row) -> bool:
    """Fig. 11: P-OPT's reservation left LLC ways for data."""
    return isinstance(row["P-OPT_ways"], int)


def _fig11_gap_growth(rows: Rows) -> Optional[float]:
    """P-OPT's lead over P-OPT-SE at the largest fitting graph minus its
    lead at the smallest."""
    gaps = [
        row["P-OPT_missred"] - row["P-OPT-SE_missred"]
        for row in rows if _fits(row)
    ]
    return gaps[-1] - gaps[0] if gaps else None


def _fig13_graphs(rows: Rows) -> List[Dict[int, Dict[str, object]]]:
    """``{tiles: row}`` per graph holding its untiled point and a 2-, 4-
    or 8-tile point."""
    by_graph: Dict[object, Dict[int, Dict[str, object]]] = {}
    for row in rows:
        by_graph.setdefault(row["graph"], {})[row["tiles"]] = row
    return [
        tiles for tiles in by_graph.values()
        if 1 in tiles and not tiles.keys().isdisjoint((2, 4, 8))
    ]


def _best_tiled(tiles, column: str) -> float:
    return min(tiles[t][column] for t in (2, 4, 8) if t in tiles)


def _fig13_gain(column: str):
    """Best tiled minus untiled ``column``, worst graph."""
    return _over_rows(
        max, lambda tiles: _best_tiled(tiles, column) - tiles[1][column],
        items=_fig13_graphs,
    )


def _fig14_phi_gain_dbp_vs_hbubl(rows: Rows) -> Optional[float]:
    """PHI's traffic cut from PB on DBP minus its cut on HBUBL."""
    gain = {row["graph"]: row["PB+DRRIP"] - row["PHI+DRRIP"] for row in rows}
    if "DBP" in gain and "HBUBL" in gain:
        return gain["DBP"] - gain["HBUBL"]
    return None


def _fig15_means(rows: Rows, suffix: str) -> Tuple[float, ...]:
    """Mean ``<bits>b_<suffix>`` per entry width (4, 8, 16) in the rows."""
    return tuple(
        _mean(rows, f"{bits}b_{suffix}")
        for bits in (4, 8, 16)
        if rows and f"{bits}b_{suffix}" in rows[0]
    )


def _fig15_gap(low: int, high: int):
    """Mean miss reduction at ``high`` bits minus at ``low`` bits."""
    columns = (f"{low}b_missred", f"{high}b_missred")
    return lambda rows: (
        _mean(rows, columns[1]) - _mean(rows, columns[0])
        if rows and all(column in rows[0] for column in columns) else None
    )


def _fig15_tie_rates(rows: Rows) -> Optional[Tuple[float, ...]]:
    ties = _fig15_means(rows, "tie_rate")
    return ties if len(ties) > 1 else None


def _fig16_growth(sweep: str, key: str):
    """Mean P-OPT miss reduction at the sweep's largest point minus at
    its smallest."""

    def measure(rows: Rows) -> Optional[float]:
        by_point: Dict[object, List[float]] = {}
        for row in rows:
            if row["sweep"] == sweep:
                by_point.setdefault(row[key], []).append(row["P-OPT_missred"])
        if not by_point:
            return None
        low, high = min(by_point), max(by_point)
        return statistics.mean(by_point[high]) - statistics.mean(by_point[low])

    return measure


def _figure_table(*figures: Figure) -> Mapping[str, Figure]:
    """The figures keyed by id, read-only; an id given twice is refused."""
    table: Dict[str, Figure] = {}
    for figure in figures:
        if figure.id in table:
            raise ValueError(f"figure {figure.id!r} is defined twice")
        table[figure.id] = figure
    return MappingProxyType(table)


FIGURES = _figure_table(
    Figure(
        "fig02", "PageRank LLC MPKI under state-of-the-art policies",
        "LRU, DRRIP, SHiP-PC, SHiP-Mem and Hawkeye all sit in a 60-70% "
        "miss-rate band on PageRank; none substantially beats LRU.",
        fig02_spec, _report_mpki_pivot, (
            Claim("best policy / LRU MPKI, lowest graph", "~1",
                  _over_rows(min, lambda row: min(
                      row[p] for p in FIG2_POLICIES) / row["LRU"],
                      where=lambda row: row["LRU"] > 0),
                  lambda v: v > 0.4),
            Claim("mean miss-rate spread across policies", "~0.10",
                  _fig02_spread, lambda v: v < 0.30),
        ),
    ),
    Figure(
        "fig04", "T-OPT vs state-of-the-art policies (PageRank LLC MPKI)",
        "T-OPT reduces LLC misses 1.67x on average vs LRU (41% vs 60-70% "
        "miss rates).",
        fig04_spec, _report_mpki_pivot, (
            Claim("geomean LRU / T-OPT MPKI", "1.67",
                  lambda rows: geomean([
                      row["LRU"] / row["T-OPT"]
                      for row in rows if row["T-OPT"] > 0
                  ]),
                  lambda v: v > 1.15),
            Claim("T-OPT / min(LRU, DRRIP) MPKI, highest graph", "< 1",
                  _over_rows(max, lambda row: _ratio(
                      row["T-OPT"], min(row["LRU"], row["DRRIP"]))),
                  lambda v: v <= 1.02),
        ),
    ),
    Figure(
        "fig07", "Rereference Matrix designs: miss reduction vs DRRIP",
        "P-OPT-INTER+INTRA approaches idealized T-OPT and INTER-ONLY is "
        "clearly worse; both beat DRRIP despite their reserved ways.",
        fig07_spec, _report_rm_designs, (
            Claim("mean INTER+INTRA - INTER-ONLY", "> 0",
                  _mean_gap("P-OPT-INTER+INTRA", "P-OPT-INTER-ONLY"),
                  lambda v: v > 0),
            Claim("mean T-OPT - INTER+INTRA", "~0",
                  _mean_gap("T-OPT", "P-OPT-INTER+INTRA"),
                  lambda v: v >= -0.02),
            Claim("mean INTER+INTRA - half of T-OPT", "> 0",
                  lambda rows: _mean(rows, "P-OPT-INTER+INTRA")
                  - 0.5 * _mean(rows, "T-OPT"),
                  lambda v: v > 0),
        ),
    ),
    Figure(
        "fig10", "Main result: speedups and LLC miss reductions",
        "P-OPT speeds graph apps up by 22% and cuts LLC misses by 24% on "
        "average vs DRRIP (33% and 35% vs LRU), within ~12% of T-OPT, "
        "with the smallest gain on KRON.",
        fig10_spec, _report_main_result, (
            Claim("geomean P-OPT speedup vs DRRIP", "~1.22",
                  lambda rows: _geomean_of(rows, "P-OPT_speedup_vs_DRRIP"),
                  lambda v: v > 1.05),
            Claim("geomean P-OPT speedup vs LRU / vs DRRIP", "~1.09",
                  lambda rows: _ratio(
                      _geomean_of(rows, "P-OPT_speedup_vs_LRU"),
                      _geomean_of(rows, "P-OPT_speedup_vs_DRRIP")),
                  lambda v: v > 0.9),
            Claim("mean P-OPT miss reduction vs DRRIP", "~0.24",
                  lambda rows: sum(
                      row["P-OPT_missred_vs_DRRIP"] for row in rows
                  ) / len(rows),
                  lambda v: v > 0.10),
            Claim("geomean speedup vs DRRIP, P-OPT / T-OPT", "~0.89",
                  lambda rows: _ratio(
                      _geomean_of(rows, "P-OPT_speedup_vs_DRRIP"),
                      _geomean_of(rows, "T-OPT_speedup_vs_DRRIP")),
                  lambda v: v > 0.80),
            Claim("lowest P-OPT speedup vs DRRIP", "> 1",
                  _over_rows(min, lambda row: row["P-OPT_speedup_vs_DRRIP"]),
                  lambda v: v > 0.85),
        ),
    ),
    Figure(
        "fig11", "P-OPT vs P-OPT-SE across graph sizes (fixed LLC)",
        "P-OPT (two resident RM columns) wins on smaller graphs; past the "
        "capacity knee its reserved ways eat the LLC and P-OPT-SE wins. "
        "Reserved way counts grow with graph size.",
        fig11_spec, _report_reservation_knee, (
            Claim("P-OPT reserved ways by graph size", "growing",
                  lambda rows: [
                      row["P-OPT_ways"] for row in rows if _fits(row)
                  ] or None,
                  lambda v: v == sorted(v)),
            Claim("P-OPT-SE - P-OPT reserved ways, most", "< 0",
                  _over_rows(
                      max,
                      lambda row: row["P-OPT-SE_ways"] - row["P-OPT_ways"],
                      where=lambda row: _fits(row)
                      and isinstance(row["P-OPT-SE_ways"], int)),
                  lambda v: v <= 0),
            Claim("P-OPT lead over SE, largest - smallest graph", "< 0",
                  _fig11_gap_growth, lambda v: v <= 0.05),
        ),
    ),
    Figure(
        "fig12a",
        "GRASP vs P-OPT on DBG-ordered graphs (miss reduction vs DRRIP)",
        "GRASP helps only graphs with skewed degree distributions; P-OPT "
        "beats it on every input.",
        fig12a_spec, _report_missred_vs_drrip, (
            Claim("mean P-OPT - GRASP", "> 0",
                  _mean_gap("P-OPT_missred", "GRASP_missred"),
                  lambda v: v > 0),
            Claim("P-OPT - GRASP, lowest graph", "> 0",
                  _over_rows(min, lambda row: row["P-OPT_missred"]
                             - row["GRASP_missred"]),
                  lambda v: v >= -0.05),
        ),
    ),
    Figure(
        "fig12b", "HATS-BDFS vs P-OPT (miss reduction vs DRRIP)",
        "BDFS helps community-structured graphs (UK-02, ARAB) but adds "
        "misses on DBP, KRON and URAND; P-OPT improves every input.",
        fig12b_spec, _report_missred_vs_drrip, (
            Claim("mean P-OPT - HATS-BDFS", "> 0",
                  _mean_gap("P-OPT_missred", "HATS-BDFS_missred"),
                  lambda v: v > 0),
            Claim("HATS-BDFS on DBP/KRON/URAND, lowest", "< 0",
                  _over_rows(min, lambda row: row["HATS-BDFS_missred"],
                             where=lambda row: row["graph"]
                             in ("URAND", "KRON", "DBP")),
                  lambda v: v < 0),
            Claim("HATS-BDFS on ARAB", "> 0",
                  _over_rows(min, lambda row: row["HATS-BDFS_missred"],
                             where=lambda row: row["graph"] == "ARAB"),
                  lambda v: v > 0),
            Claim("lowest P-OPT miss reduction", "> 0",
                  _over_rows(min, lambda row: row["P-OPT_missred"]),
                  lambda v: v > -0.05),
        ),
    ),
    Figure(
        "fig13",
        "CSR-segmenting x replacement policy (misses vs untiled DRRIP)",
        "Tiling improves both policies, and P-OPT needs ~5x fewer tiles "
        "for the same miss level (P-OPT at 2 tiles ~ DRRIP at 10 on "
        "URAND).",
        fig13_spec, _report_tiling_norm, (
            Claim("DRRIP best tiled - untiled, worst graph", "< 0",
                  _fig13_gain("DRRIP_norm_misses"), lambda v: v < 0),
            Claim("P-OPT best tiled - untiled, worst graph", "< 0",
                  _fig13_gain("P-OPT_norm_misses"), lambda v: v < 0),
            Claim("P-OPT@2 tiles / DRRIP best tiling, worst graph", "~1",
                  _over_rows(max, lambda tiles: _ratio(
                      tiles[2]["P-OPT_norm_misses"],
                      _best_tiled(tiles, "DRRIP_norm_misses"),
                  ), where=lambda tiles: 2 in tiles, items=_fig13_graphs),
                  lambda v: v <= 1.05),
        ),
    ),
    Figure(
        "fig14", "PB / PHI binning-phase traffic (normalized to PB+DRRIP)",
        "PHI beats software PB and improves further with better "
        "replacement; on non-power-law graphs (URAND, HBUBL) PHI finds "
        "little to coalesce while P-OPT still helps.",
        fig14_spec, _report_pb_phi_norm, (
            Claim("|PB+P-OPT - PB+DRRIP|, largest", "~0",
                  _over_rows(max, lambda row: abs(
                      row["PB+P-OPT"] - row["PB+DRRIP"])),
                  lambda v: v < 0.25),
            Claim("PHI+DRRIP - PB+DRRIP, highest graph", "< 0",
                  _over_rows(max, lambda row: row["PHI+DRRIP"]
                             - row["PB+DRRIP"]),
                  lambda v: v < 0),
            Claim("PHI+P-OPT / PHI+DRRIP, highest graph", "< 1",
                  _over_rows(max, lambda row: _ratio(
                      row["PHI+P-OPT"], row["PHI+DRRIP"])),
                  lambda v: v <= 1.05),
            Claim("PHI gain over PB, DBP - HBUBL", "> 0",
                  _fig14_phi_gain_dbp_vs_hbubl, lambda v: v >= -0.10),
        ),
    ),
    Figure(
        "fig15", "Quantization sensitivity (limit study, no capacity cost)",
        "8-bit entries ~ 16-bit ~ T-OPT and 4-bit is clearly worse; "
        "41%, 12% and 0% of replacements tie at 4, 8 and 16 bits.",
        fig15_spec, _report_missred_vs_drrip, (
            Claim("mean 8b - 4b miss reduction", "> 0",
                  _fig15_gap(4, 8), lambda v: v > 0),
            Claim("mean 16b - 8b miss reduction", "~0",
                  _fig15_gap(8, 16), lambda v: abs(v) < 0.08),
            Claim("mean tie rate at 4/8/16 bits", "(0.41, 0.12, 0.0)",
                  _fig15_tie_rates,
                  lambda v: all(a > b for a, b in zip(v, v[1:]))),
        ),
    ),
    Figure(
        "fig16", "Sensitivity to LLC capacity and associativity",
        "P-OPT's advantage over DRRIP grows with LLC capacity (the RM "
        "reservation amortizes) and with associativity (more candidates "
        "per eviction).",
        fig16_spec, _report_llc_sensitivity, (
            Claim("P-OPT miss reduction, largest - smallest LLC", "> 0",
                  _fig16_growth("capacity", "llc_kib"),
                  lambda v: v > -0.03),
            Claim("P-OPT miss reduction, most - fewest ways", "> 0",
                  _fig16_growth("associativity", "ways"),
                  lambda v: v > -0.03),
        ),
    ),
)
