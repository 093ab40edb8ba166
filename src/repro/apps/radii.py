"""Radii estimation via concurrent BFS (Ligra's Radii, pull-mostly).

Runs ``num_samples`` BFS traversals at once, one bit per sample in an 8-byte
``visited`` word per vertex. A pull iteration ORs, per incoming edge from a
frontier source, the source's visited word into the destination's — so both
the frontier bit-vector and the 8 B visited words are irregular streams
(Table II).

The radius estimate is the number of rounds until no visited word changes.
The paper skips HBUBL (its diameter is so high the frontier never gets
dense enough to pull); the harness reproduces that exclusion.
"""

from __future__ import annotations

from typing import List, Tuple

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

__all__ = ["Radii", "radii_reference"]


def radii_reference(
    graph: CSRGraph,
    num_samples: int = 64,
    seed: int = 7,
    max_rounds: int = 64,
) -> Tuple[int, List[np.ndarray]]:
    """(radius estimate, per-round frontier masks) for concurrent BFS."""
    n = graph.num_vertices
    csc = graph.transpose()
    rng = np.random.default_rng(seed)
    num_samples = min(num_samples, n)
    sources = rng.choice(n, size=num_samples, replace=False)
    visited = np.zeros(n, dtype=np.uint64)
    visited[sources] |= np.uint64(1) << np.arange(
        num_samples, dtype=np.uint64
    )
    frontier = np.zeros(n, dtype=bool)
    frontier[sources] = True
    edge_src = csc.neighbors.astype(np.int64)
    edge_dst = np.repeat(np.arange(n, dtype=np.int64), csc.degrees())

    frontier_history = []
    radius = 0
    for round_index in range(max_rounds):
        if not frontier.any():
            break
        frontier_history.append(frontier.copy())
        active = frontier[edge_src]
        gathered = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(
            gathered, edge_dst[active], visited[edge_src[active]]
        )
        updated = (visited | gathered) != visited
        visited |= gathered
        frontier = updated
        if updated.any():
            radius = round_index + 1
    return radius, frontier_history


class Radii(GraphApp):
    """Concurrent-BFS radii estimation with pull-iteration traces."""

    info = AppInfo(
        name="Radii",
        execution_style="pull-mostly",
        irreg_elem_bits=64,
        uses_frontier=True,
        transpose_kind="CSR",
    )

    def __init__(
        self, num_samples: int = 64, max_trace_rounds: int = 2
    ) -> None:
        self.num_samples = num_samples
        #: Trace the densest pull rounds (iteration sampling).
        self.max_trace_rounds = max_trace_rounds

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        csc = graph.transpose()
        radius, frontier_history = radii_reference(
            graph, num_samples=self.num_samples
        )

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csc_offsets", n + 1, 64)
        na = layout.alloc("csc_neighbors", csc.num_edges, 32)
        visited = layout.alloc("visited", n, 64, irregular=True)
        frontier_bits = layout.alloc("frontier", n, 1, irregular=True)
        next_visited = layout.alloc("nextVisited", n, 64)

        # Trace the densest rounds — those are the pull iterations the
        # direction switch selects.
        by_density = sorted(
            range(len(frontier_history)),
            key=lambda i: frontier_history[i].mean(),
            reverse=True,
        )
        chosen = sorted(by_density[: self.max_trace_rounds])
        iterations = []
        for round_index in chosen:
            mask = frontier_history[round_index]
            iterations.append(
                traversal_trace(
                    topology=csc,
                    oa_span=oa,
                    na_span=na,
                    per_edge=[
                        PerEdgeAccess(
                            span=frontier_bits, pc=AccessKind.FRONTIER
                        ),
                        PerEdgeAccess(
                            span=visited,
                            pc=AccessKind.IRREG_DATA,
                            mask=mask,
                        ),
                    ],
                    dense_span=next_visited,
                )
            )
        trace = concat_traces(iterations)
        streams = [
            IrregularStream(span=visited, reference_graph=graph),
            IrregularStream(span=frontier_bits, reference_graph=graph),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(radius),
            details={
                "rounds_traced": chosen,
                "num_rounds": len(frontier_history),
            },
        )
