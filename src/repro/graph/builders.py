"""Construct :class:`~repro.graph.csr.CSRGraph` instances from edge data.

Every build goes through :func:`from_edges`: it sorts one packed int64
key per edge, so memory is O(E). The text loaders in
:mod:`repro.graph.io` tokenize their file once and hand the whole edge
array here; a ``payload`` (the ``.wel`` weights) follows its edge
through the sort, and ``where`` (the loader's path) names the input in
every range error.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, overload

import numpy as np

from ..errors import GraphFormatError
from ..sim.constants import narrow
from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_adjacency",
    "empty_graph",
    "symmetrize",
    "remove_self_loops",
    "deduplicate_edges",
]


def _as_edge_array(edges) -> np.ndarray:
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphFormatError("edges must be an (E, 2) array of (src, dst)")
    return array


def _check_packable(num_vertices: int, where: str) -> None:
    """Refuse a vertex count whose IDs overflow ``csr.neighbors``.

    The builders sort edges on the packed key ``src * num_vertices +
    dst``; with every ID inside the 31-bit contract the key stays below
    ``2**62`` and never wraps int64. Checked before anything is sized
    by ``num_vertices``.
    """
    narrow(np.int64(num_vertices - 1), "csr.neighbors", where)


@overload
def from_edges(
    edges,
    num_vertices: Optional[int] = ...,
    *,
    dedup: bool = ...,
    drop_self_loops: bool = ...,
    payload: None = ...,
    where: str = ...,
) -> CSRGraph: ...


@overload
def from_edges(
    edges,
    num_vertices: Optional[int] = ...,
    *,
    dedup: bool = ...,
    drop_self_loops: bool = ...,
    payload: np.ndarray,
    where: str = ...,
) -> Tuple[CSRGraph, np.ndarray]: ...


def from_edges(
    edges,
    num_vertices: Optional[int] = None,
    *,
    dedup: bool = False,
    drop_self_loops: bool = False,
    payload: Optional[np.ndarray] = None,
    where: str = "from_edges",
):
    """Build a directed graph from ``(src, dst)`` pairs.

    Neighbor lists in the result are sorted, as the rest of the library
    (notably T-OPT's binary-searched transpose walks) requires.

    ``payload`` holds one value per input edge. When given, the result
    is ``(graph, payload)`` with the payload permuted into the graph's
    edge order: parallel edges keep their input order, and each value
    stays with its edge (``dedup`` keeps the first). ``where`` names the
    input (a loader passes its file path) in range and width errors.
    """
    array = _as_edge_array(edges)
    if payload is not None:
        payload = np.asarray(payload)
        if len(payload) != len(array):
            raise GraphFormatError(
                f"{where}: payload has {len(payload)} entries for "
                f"{len(array)} edges"
            )
    if drop_self_loops and len(array):
        keep = array[:, 0] != array[:, 1]
        array = array[keep]
        if payload is not None:
            payload = payload[keep]
    if num_vertices is None:
        num_vertices = int(array.max()) + 1 if len(array) else 0
    if len(array):
        if array.min() < 0:
            raise GraphFormatError(f"{where}: negative vertex ID in edge list")
        if array.max() >= num_vertices:
            raise GraphFormatError(
                f"{where}: vertex ID {int(array.max())} exceeds "
                f"num_vertices={num_vertices}"
            )
    _check_packable(num_vertices, where)
    # One int64 key per edge, ordered by (src, dst): sorting it sorts the
    # edges and puts repeats side by side. (Sort plus a mask dedups
    # ~20x faster than np.unique, which hashes first on numpy 2.4.) A
    # payload needs the stable argsort, so parallel edges keep their
    # order and each value its edge.
    key = array[:, 0] * num_vertices + array[:, 1]
    if payload is None:
        key = np.sort(key)
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        payload = payload[order]
    if dedup and len(key):
        first = np.concatenate(([True], key[1:] != key[:-1]))
        key = key[first]
        if payload is not None:
            payload = payload[first]
    sources = key // num_vertices
    counts = np.bincount(sources, minlength=num_vertices).astype(
        np.int64, copy=False
    )
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    neighbors = narrow(key - sources * num_vertices, "csr.neighbors", where)
    graph = CSRGraph(offsets=offsets, neighbors=neighbors)
    return graph if payload is None else (graph, payload)


def from_adjacency(adjacency: Sequence[Iterable[int]]) -> CSRGraph:
    """Build a graph from a per-vertex adjacency list (list of iterables)."""
    edges = [
        (src, dst) for src, neighbors in enumerate(adjacency) for dst in neighbors
    ]
    return from_edges(edges, num_vertices=len(adjacency))


def empty_graph(num_vertices: int) -> CSRGraph:
    """A graph with ``num_vertices`` vertices and no edges."""
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    return CSRGraph(
        offsets=np.zeros(num_vertices + 1, dtype=np.int64),
        neighbors=np.empty(0, dtype=np.int32),
    )


def symmetrize(graph: CSRGraph) -> CSRGraph:
    """Return the undirected closure: every edge gains its reverse."""
    edges = graph.edge_array()
    both = np.vstack([edges, edges[:, ::-1]])
    return from_edges(both, num_vertices=graph.num_vertices, dedup=True)


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` without self-loop edges."""
    edges = graph.edge_array()
    return from_edges(
        edges, num_vertices=graph.num_vertices, drop_self_loops=True
    )


def deduplicate_edges(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` with duplicate edges removed."""
    return from_edges(
        graph.edge_array(), num_vertices=graph.num_vertices, dedup=True
    )
