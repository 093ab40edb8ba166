"""Compressed sparse graph representation (CSR/CSC).

The paper's framing (Section II-A): a directed graph is an adjacency matrix;
the *Compressed Sparse Row* (CSR) stores each source vertex's outgoing
neighbors and the *Compressed Sparse Column* (CSC) stores each destination
vertex's incoming neighbors. Both use an Offsets Array (``offsets``, the
paper's OA) and a Neighbor Array (``neighbors``, the paper's NA).

A single :class:`CSRGraph` instance stores one direction. ``transpose()``
produces the other direction; graph frameworks (and P-OPT) keep both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphFormatError, WidthContractError
from ..sim.constants import TOPT_NEVER, narrow

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in compressed sparse (CSR-style) form.

    ``offsets`` has ``num_vertices + 1`` entries; vertex ``v``'s neighbors
    occupy ``neighbors[offsets[v]:offsets[v + 1]]``. Neighbor lists are kept
    sorted in ascending order, which the transpose-walk oracle (T-OPT)
    relies on for binary-searching the next reference.

    Whether the instance represents out-neighbors (a CSR proper) or
    in-neighbors (a CSC) is up to the caller; ``transpose()`` flips between
    the two views.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    _transpose_cache: list = field(
        default=None, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        offsets = narrow(self.offsets, "csr.offsets", "CSRGraph")
        neighbors = narrow(self.neighbors, "csr.neighbors", "CSRGraph")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "neighbors", neighbors)
        if self._transpose_cache is None:
            object.__setattr__(self, "_transpose_cache", [])
        self._validate()

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.neighbors.ndim != 1:
            raise GraphFormatError("offsets and neighbors must be 1-D arrays")
        if len(self.offsets) == 0:
            raise GraphFormatError("offsets must have at least one entry")
        if self.num_vertices >= TOPT_NEVER:
            raise WidthContractError(
                "trace.vertex", self.num_vertices, "CSRGraph",
                f"the vertex count below TOPT_NEVER ({TOPT_NEVER})",
            )
        if self.offsets[0] != 0:
            raise GraphFormatError("offsets must start at 0")
        if self.offsets[-1] != len(self.neighbors):
            raise GraphFormatError(
                "offsets must end at len(neighbors) "
                f"({self.offsets[-1]} != {len(self.neighbors)})"
            )
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if len(self.neighbors) > 0:
            if self.neighbors.min() < 0 or self.neighbors.max() >= self.num_vertices:
                raise GraphFormatError("neighbor IDs out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (both endpoint spaces share one ID range)."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.neighbors)

    def degrees(self) -> np.ndarray:
        """Vector of per-vertex degrees in this direction."""
        return np.diff(self.offsets)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Neighbor list of vertex ``v`` (a read-only view, sorted)."""
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    # Alias matching CSC terminology used by pull kernels.
    in_neighbors = out_neighbors

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(num_edges, 2)`` array of (vertex, neighbor)."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int32),
                            self.degrees())
        return np.column_stack([sources, self.neighbors])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def transpose(self) -> "CSRGraph":
        """Return the reversed-edge graph (CSR <-> CSC).

        The result is cached: graph frameworks store both directions once
        (Section II-A), and P-OPT's Rereference Matrix construction and
        T-OPT's oracle both walk the transpose repeatedly.
        """
        if not self._transpose_cache:
            self._transpose_cache.append(self._build_transpose())
        return self._transpose_cache[0]

    def _build_transpose(self) -> "CSRGraph":
        n = self.num_vertices
        counts = np.bincount(self.neighbors, minlength=n).astype(
            np.int64, copy=False
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Sorting the packed key neighbor * n + source groups reversed
        # edges in offset order with each group's sources ascending, so
        # the transpose's neighbor lists come out sorted. (A plain sort of
        # the key runs several times faster than a stable argsort.)
        sources = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        key = np.sort(self.neighbors.astype(np.int64) * n + sources)
        neighbors = narrow(key % n, "csr.neighbors", "CSRGraph.transpose")
        transposed = CSRGraph(offsets=offsets, neighbors=neighbors)
        transposed._transpose_cache.append(self)
        if not self.neighbors.flags.writeable:
            transposed.freeze()
        return transposed

    def freeze(self) -> "CSRGraph":
        """Mark the arrays of both directions read-only; returns self.

        A shared graph (see :func:`repro.graph.datasets.load`) is read
        by every later caller in the process, so an in-place write
        raises ``ValueError`` instead of corrupting them. A transpose
        built later inherits the flag.
        """
        for graph in (self, *self._transpose_cache):
            graph.offsets.setflags(write=False)
            graph.neighbors.setflags(write=False)
        return self

    def relabel(self, new_ids: np.ndarray) -> "CSRGraph":
        """Renumber vertices: old vertex ``v`` becomes ``new_ids[v]``.

        ``new_ids`` must be a permutation of ``0..num_vertices-1``. Used by
        vertex-reordering optimizations such as DBG (Section VII-C1).
        """
        new_ids = np.asarray(new_ids, dtype=np.int32)
        if len(new_ids) != self.num_vertices:
            raise GraphFormatError("relabel permutation has wrong length")
        check = np.zeros(self.num_vertices, dtype=bool)
        check[new_ids] = True
        if not check.all():
            raise GraphFormatError("relabel mapping is not a permutation")
        edges = self.edge_array()
        new_src = new_ids[edges[:, 0]]
        new_dst = new_ids[edges[:, 1]]
        from .builders import from_edges  # local import to avoid a cycle

        return from_edges(
            np.column_stack([new_src, new_dst]), num_vertices=self.num_vertices
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
