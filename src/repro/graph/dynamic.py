"""Dynamic graphs: batched edge deltas applied between simulation epochs.

P-OPT's preprocessing tax (Table IV of the paper) is the transpose /
Rereference-Matrix build. On a static graph that cost amortizes over
the whole run; on a *mutating* graph it recurs every time the topology
changes. This module supplies the mutation driver: an
:class:`EdgeDelta` (a batch of insertions and deletions), a vectorized
:func:`apply_delta` that produces the post-delta :class:`CSRGraph`, and
:func:`random_delta` for seeded batches. A delta's
:meth:`~EdgeDelta.touched_sources` and
:meth:`~EdgeDelta.touched_destinations` name exactly the rows an
incremental Rereference-Matrix update
(:func:`repro.popt.rereference.update_rereference_matrix`) needs to
avoid the full rebuild; ``benchmarks/bench_dynamic.py`` measures the
batch size where incremental stops winning.

Deltas are *multiset-undirected-agnostic*: the graph is directed, an
edge is a ``(src, dst)`` pair, and deleting a pair removes **all**
parallel copies of it. Insertions may introduce parallel edges and
self loops — real update streams contain both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphFormatError
from .builders import from_edges
from .csr import CSRGraph

__all__ = ["EdgeDelta", "apply_delta", "random_delta"]


def _delta_edges(edges, what: str) -> np.ndarray:
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphFormatError(
            f"{what} must be a (K, 2) array of (src, dst) pairs"
        )
    if int(array.min()) < 0:
        raise GraphFormatError(f"negative vertex ID in {what}")
    return array


@dataclass(frozen=True)
class EdgeDelta:
    """One batch of topology mutations: edges to insert and to delete."""

    insertions: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    deletions: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "insertions", _delta_edges(self.insertions, "insertions")
        )
        object.__setattr__(
            self, "deletions", _delta_edges(self.deletions, "deletions")
        )

    @property
    def size(self) -> int:
        """Total number of mutation entries in the batch."""
        return len(self.insertions) + len(self.deletions)

    def touched_sources(self) -> np.ndarray:
        """Sorted unique source vertices any mutation touches."""
        return np.unique(
            np.concatenate([self.insertions[:, 0], self.deletions[:, 0]])
        )

    def touched_destinations(self) -> np.ndarray:
        """Sorted unique destination vertices any mutation touches."""
        return np.unique(
            np.concatenate([self.insertions[:, 1], self.deletions[:, 1]])
        )


def apply_delta(
    graph: CSRGraph, delta: EdgeDelta, strict: bool = True
) -> CSRGraph:
    """Apply one delta to ``graph``, returning the new graph.

    Deletions are matched as ``(src, dst)`` pairs and remove **every**
    parallel occurrence; under ``strict`` a deletion that matches no
    edge raises :class:`GraphFormatError` (silently dropped otherwise).
    Deletions apply before insertions, so a delta may delete an edge
    and re-insert it. The vertex set is fixed: inserting an edge whose
    endpoint is outside the graph raises.
    """
    num_vertices = graph.num_vertices
    for edges, what in (
        (delta.insertions, "insertion"),
        (delta.deletions, "deletion"),
    ):
        if len(edges) and int(edges.max()) >= num_vertices:
            raise GraphFormatError(
                f"{what} endpoint {int(edges.max())} outside graph with "
                f"{num_vertices} vertices"
            )
    edges = graph.edge_array().astype(np.int64)
    keys = edges[:, 0] * num_vertices + edges[:, 1]
    if len(delta.deletions):
        del_keys = (
            delta.deletions[:, 0] * num_vertices + delta.deletions[:, 1]
        )
        if strict:
            present = np.isin(del_keys, keys)
            if not bool(present.all()):
                missing = delta.deletions[~present][0]
                raise GraphFormatError(
                    f"cannot delete edge ({int(missing[0])}, "
                    f"{int(missing[1])}): not in graph"
                )
        survivors = edges[~np.isin(keys, del_keys)]
    else:
        survivors = edges
    if len(delta.insertions):
        survivors = np.vstack([survivors, delta.insertions])
    return from_edges(survivors, num_vertices=num_vertices)


def random_delta(
    graph: CSRGraph,
    num_insertions: int,
    num_deletions: int,
    seed: int,
    allow_self_loops: bool = False,
) -> EdgeDelta:
    """A seed-deterministic random delta over ``graph``.

    Deletions sample distinct existing edges without replacement (so
    strict application always succeeds); insertions are uniform random
    pairs, avoiding self loops unless allowed. Edge case: a graph with
    fewer distinct edges than ``num_deletions`` gets them all deleted.
    """
    if graph.num_vertices < 2 and num_insertions and not allow_self_loops:
        raise GraphFormatError(
            "cannot insert non-self-loop edges into a <2-vertex graph"
        )
    rng = np.random.default_rng(seed)
    # Distinct edges in (src, dst) order, deduplicated on the packed key.
    n = graph.num_vertices
    edges = graph.edge_array().astype(np.int64)
    distinct = np.column_stack(
        np.divmod(np.unique(edges[:, 0] * n + edges[:, 1]), n)
    )
    take = min(num_deletions, len(distinct))
    chosen = rng.choice(len(distinct), size=take, replace=False)
    deletions = distinct[chosen]
    insertions = rng.integers(
        0, graph.num_vertices, size=(num_insertions, 2), dtype=np.int64
    )
    if not allow_self_loops and len(insertions):
        loops = insertions[:, 0] == insertions[:, 1]
        while bool(loops.any()):
            insertions[loops] = rng.integers(
                0, graph.num_vertices,
                size=(int(loops.sum()), 2), dtype=np.int64,
            )
            loops = insertions[:, 0] == insertions[:, 1]
    return EdgeDelta(insertions=insertions, deletions=deletions)
