"""Construct :class:`~repro.graph.csr.CSRGraph` instances from edge data.

Two build paths exist:

- :func:`from_edges` materializes the whole ``(E, 2)`` edge array and
  sorts it once — the right call for in-memory edges.
- :func:`from_edges_chunked` is a two-pass streamed build over an
  *iterable of edge chunks*: pass 1 accumulates per-source degree
  counts, pass 2 scatters each chunk's neighbors directly into its
  final CSR segment. Peak memory is one chunk plus the output arrays,
  never the full ``(E, 2)`` int64 edge list — which is what lets the
  chunked text/binary loaders in :mod:`repro.graph.io` ingest edge
  files ~10x larger than the resident trace working set.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from ..sim.constants import narrow
from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_edges_chunked",
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


def from_edges(
    edges,
    num_vertices: Optional[int] = None,
    *,
    dedup: bool = False,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a directed graph from ``(src, dst)`` pairs.

    Neighbor lists in the result are sorted, as the rest of the library
    (notably T-OPT's binary-searched transpose walks) requires.
    """
    array = _as_edge_array(edges)
    if drop_self_loops and len(array):
        array = array[array[:, 0] != array[:, 1]]
    if num_vertices is None:
        num_vertices = int(array.max()) + 1 if len(array) else 0
    if len(array):
        if array.min() < 0:
            raise GraphFormatError("negative vertex ID in edge list")
        if array.max() >= num_vertices:
            raise GraphFormatError(
                f"vertex ID {int(array.max())} exceeds num_vertices={num_vertices}"
            )
    _check_packable(num_vertices, "from_edges")
    # One int64 key per edge, ordered by (src, dst): sorting it sorts the
    # edges and puts repeats side by side. (Sort plus a mask dedups
    # ~20x faster than np.unique, which hashes first on numpy 2.4.)
    key = np.sort(array[:, 0] * num_vertices + array[:, 1])
    if dedup and len(key):
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    sources = key // num_vertices
    counts = np.bincount(sources, minlength=num_vertices).astype(
        np.int64, copy=False
    )
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    neighbors = narrow(
        key - sources * num_vertices, "csr.neighbors", "from_edges"
    )
    return CSRGraph(offsets=offsets, neighbors=neighbors)


#: A chunk source is a zero-argument callable returning a fresh iterator
#: of ``(E_i, 2)`` int64 edge arrays — or ``(edges, payload)`` pairs when
#: ``with_payload`` is set. It is called twice (counting pass + placement
#: pass), so generators must be wrapped in a factory, not passed raw.
ChunkSource = Callable[[], Iterable[Any]]


def _chunk_parts(
    item: Any, with_payload: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    if with_payload:
        edges, payload = item
        edges = np.asarray(edges, dtype=np.int64)
        payload = np.asarray(payload, dtype=np.int64)
        if len(payload) != len(edges):
            raise GraphFormatError(
                f"payload chunk has {len(payload)} entries for "
                f"{len(edges)} edges"
            )
    else:
        edges = np.asarray(item, dtype=np.int64)
        payload = None
    if edges.size == 0:
        return edges.reshape(0, 2), payload
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError("edges must be an (E, 2) array of (src, dst)")
    return edges, payload


def from_edges_chunked(
    chunks: ChunkSource,
    num_vertices: Optional[int] = None,
    *,
    resolve_num_vertices: Optional[Callable[[], Optional[int]]] = None,
    with_payload: bool = False,
    where: str = "from_edges_chunked",
) -> Union[CSRGraph, Tuple[CSRGraph, np.ndarray]]:
    """Two-pass streamed CSR build from an iterable of edge chunks.

    ``chunks()`` is invoked twice and must yield the same edge stream
    both times (loaders re-read the file). Pass 1 accumulates degree
    counts; pass 2 scatters each chunk's destinations straight into the
    output neighbor array, so only one chunk is resident at a time.
    The result is bit-identical to ``from_edges`` over the concatenated
    stream: neighbor lists come out sorted, and parallel edges keep
    their input order (which is what preserves weight attachment).

    ``resolve_num_vertices`` is consulted after the counting pass when
    ``num_vertices`` is ``None`` — the hook that lets a text loader
    honor a ``# vertices N`` directive discovered mid-stream. With
    ``with_payload=True`` each chunk is an ``(edges, payload)`` pair and
    the return value is ``(graph, payload)`` with the payload permuted
    into the graph's final edge order. ``where`` (a loader passes its
    file path) tags a neighbor ID that does not fit the int32
    ``csr.neighbors`` contract.
    """
    # Pass 1: count edges per source, growing the histogram as larger
    # vertex IDs stream past.
    counts = np.zeros(0, dtype=np.int64)
    max_id = -1
    total = 0
    for item in chunks():
        edges, _ = _chunk_parts(item, with_payload)
        if not len(edges):
            continue
        if int(edges.min()) < 0:
            raise GraphFormatError("negative vertex ID in edge list")
        max_id = max(max_id, int(edges.max()))
        sources = edges[:, 0]
        top = int(sources.max())
        if top >= len(counts):
            grown = np.zeros(max(top + 1, 2 * len(counts)), dtype=np.int64)
            grown[: len(counts)] = counts
            counts = grown
        counts += np.bincount(sources, minlength=len(counts)).astype(
            np.int64, copy=False
        )
        total += len(edges)

    if num_vertices is None and resolve_num_vertices is not None:
        num_vertices = resolve_num_vertices()
    if num_vertices is None:
        num_vertices = max_id + 1 if max_id >= 0 else 0
    if max_id >= num_vertices:
        raise GraphFormatError(
            f"vertex ID {max_id} exceeds num_vertices={num_vertices}"
        )
    _check_packable(num_vertices, where)

    full_counts = np.zeros(num_vertices, dtype=np.int64)
    full_counts[: min(len(counts), num_vertices)] = counts[:num_vertices]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(full_counts, out=offsets[1:])

    # Pass 2: stable scatter. Within a chunk, edges are stably grouped
    # by source so same-source edges land in consecutive slots; across
    # chunks the per-source cursor preserves stream order.
    neighbors = np.empty(total, dtype=np.int32)
    payload_out = np.empty(total, dtype=np.int64) if with_payload else None
    next_free = offsets[:-1].copy()
    placed = 0
    for item in chunks():
        edges, payload = _chunk_parts(item, with_payload)
        if not len(edges):
            continue
        placed += len(edges)
        if placed > total or int(edges.max()) >= num_vertices:
            raise GraphFormatError(
                "edge stream changed between the counting and placement "
                "passes"
            )
        # Stable grouping by source: the key source * count + position
        # is unique, so a plain sort orders by source, then stream
        # position (several times faster than a stable argsort).
        count = len(edges)
        sources, order = np.divmod(
            np.sort(edges[:, 0] * count + np.arange(count)), count
        )
        group_start = np.flatnonzero(
            np.concatenate(([True], sources[1:] != sources[:-1]))
        )
        group_count = np.diff(group_start, append=len(sources))
        uniq = sources[group_start]
        ranks = np.arange(len(sources), dtype=np.int64) - np.repeat(
            group_start, group_count
        )
        positions = next_free[sources] + ranks
        neighbors[positions] = narrow(edges[order, 1], "csr.neighbors", where)
        if payload_out is not None and payload is not None:
            payload_out[positions] = payload[order]
        next_free[uniq] += group_count
    if placed != total or not np.array_equal(next_free, offsets[1:]):
        raise GraphFormatError(
            "edge stream changed between the counting and placement passes"
        )

    # Final in-segment sort on the packed (source, neighbor) key. Sources
    # are already non-decreasing, so sorting the key only reorders within
    # each neighbor list. A payload needs a stable argsort, so parallel
    # edges keep stream order (and each weight its edge), matching
    # ``from_edges`` exactly.
    if total:
        row_base = np.repeat(
            np.arange(num_vertices, dtype=np.int64) * num_vertices,
            full_counts,
        )
        key = row_base + neighbors
        if payload_out is None:
            key.sort()
        else:
            order_all = np.argsort(key, kind="stable")
            key = key[order_all]
            payload_out = payload_out[order_all]
        neighbors = narrow(key - row_base, "csr.neighbors", where)
    graph = CSRGraph(offsets=offsets, neighbors=neighbors)
    if with_payload:
        assert payload_out is not None
        return graph, payload_out
    return graph


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
