"""Single-Source Shortest Paths via frontier-based Bellman-Ford.

GAP's delta-stepping reduces to Bellman-Ford rounds over an active-vertex
frontier; this kernel implements that round structure with synthetic
positive integer edge weights. A push round relaxes each active source's
outgoing edges, so the irregular stream is the ``dist`` word indexed by
*destination* (next references from the CSC) — CC's access shape plus a
sparse frontier. Sparse rounds enumerate only active vertices (GAP's
SlidingQueue), which the trace builder supports via partial outer orders.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind, concat_traces
from ..popt.topt import IrregularStream
from .base import (
    AppInfo,
    GraphApp,
    PerEdgeAccess,
    PreparedRun,
    known_result,
    traversal_trace,
)

__all__ = ["SSSP", "sssp_reference", "synthetic_weights"]

INF = np.iinfo(np.int64).max // 4


def synthetic_weights(graph: CSRGraph, seed: int = 5,
                      max_weight: int = 8) -> np.ndarray:
    """Deterministic positive integer weights, one per CSR edge."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, max_weight + 1, size=graph.num_edges)


def sssp_reference(
    graph: CSRGraph,
    source: int = 0,
    weights: Optional[np.ndarray] = None,
    max_rounds: int = 1024,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """(distance vector, per-round active masks) for Bellman-Ford.

    Unreachable vertices keep the ``INF`` sentinel.
    """
    n = graph.num_vertices
    if weights is None:
        weights = synthetic_weights(graph)
    weights = np.asarray(weights, dtype=np.int64)
    edge_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    edge_dst = graph.neighbors.astype(np.int64)
    dist = np.full(n, INF, dtype=np.int64)
    dist[source] = 0
    active = np.zeros(n, dtype=bool)
    active[source] = True
    rounds: List[np.ndarray] = []
    for _ in range(max_rounds):
        if not active.any():
            break
        rounds.append(active.copy())
        relax = active[edge_src]
        candidates = dist[edge_src[relax]] + weights[relax]
        targets = edge_dst[relax]
        proposed = np.full(n, INF, dtype=np.int64)
        np.minimum.at(proposed, targets, candidates)
        improved = proposed < dist
        dist = np.minimum(dist, proposed)
        active = improved
    return dist, rounds


class SSSP(GraphApp):
    """Frontier-based Bellman-Ford with push-round traces."""

    info = AppInfo(
        name="SSSP",
        execution_style="push",
        irreg_elem_bits=32,
        uses_frontier=True,
        transpose_kind="CSC",
    )

    def __init__(self, source: int = 0, max_trace_rounds: int = 2) -> None:
        self.source = source
        self.max_trace_rounds = max_trace_rounds

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        dist, rounds = sssp_reference(graph, source=self.source)

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csr_offsets", n + 1, 64)
        na = layout.alloc("csr_neighbors", graph.num_edges, 32)
        layout.alloc("weights", graph.num_edges, 32)
        dist_span = layout.alloc("dist", n, 32, irregular=True)
        frontier_bits = layout.alloc("active", n, 1, irregular=True)

        # Trace the densest relaxation rounds (iteration sampling). A
        # sparse round's outer loop enumerates only the active vertices.
        by_density = sorted(
            range(len(rounds)),
            key=lambda i: rounds[i].mean(),
            reverse=True,
        )
        chosen = sorted(by_density[: self.max_trace_rounds])
        iterations = []
        for round_index in chosen:
            active_vertices = np.flatnonzero(rounds[round_index])
            iterations.append(
                traversal_trace(
                    topology=graph,
                    oa_span=oa,
                    na_span=na,
                    per_edge=[
                        PerEdgeAccess(
                            span=dist_span,
                            pc=AccessKind.IRREG_DATA,
                            write=True,
                        ),
                    ],
                    dense_span=frontier_bits,
                    dense_pc=AccessKind.FRONTIER,
                    dense_write=True,
                    order=active_vertices.astype(np.int64),
                )
            )
        trace = concat_traces(iterations)
        streams = [
            IrregularStream(
                span=dist_span, reference_graph=graph.transpose()
            ),
            IrregularStream(
                span=frontier_bits, reference_graph=graph.transpose()
            ),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(dist),
            details={
                "rounds": len(rounds),
                "rounds_traced": chosen,
            },
        )
