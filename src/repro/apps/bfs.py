"""Direction-optimizing Breadth-First Search (Beamer et al. [11]).

Not part of the paper's Table II, but the canonical graph kernel its
framework references throughout: direction switching originated here, and
GAP/Ligra both ship it. Included so the library covers the standard suite
a downstream user expects.

Pull ("bottom-up") iterations scan each unvisited destination's incoming
neighbors for a frontier member: the irregular streams are the ``parent``
word per source probe and the frontier bit-vector — the same shape P-OPT
handles for PR-Delta/Radii/MIS. Push iterations are traced from the CSR
with ``parent`` indexed by destination.
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

__all__ = ["BFS", "bfs_reference"]

#: Direction-switching threshold: pull when the frontier covers at least
#: this fraction of vertices (Beamer et al. use edge-based heuristics; a
#: density cut-off reproduces the same pull/push phases on our inputs).
PULL_DENSITY_THRESHOLD = 0.05


def bfs_reference(
    graph: CSRGraph, source: int = 0, max_rounds: int = 1024
) -> Tuple[np.ndarray, List[Tuple[str, np.ndarray]]]:
    """(parent vector, per-round (direction, frontier mask)) for
    direction-optimizing BFS over the out-edge graph."""
    n = graph.num_vertices
    csc = graph.transpose()
    parent = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    edge_dst_of_push = graph.neighbors.astype(np.int64)
    edge_src_of_push = np.repeat(
        np.arange(n, dtype=np.int64), graph.degrees()
    )
    edge_src_of_pull = csc.neighbors.astype(np.int64)
    edge_dst_of_pull = np.repeat(
        np.arange(n, dtype=np.int64), csc.degrees()
    )
    rounds: List[Tuple[str, np.ndarray]] = []
    for _ in range(max_rounds):
        if not frontier.any():
            break
        density = frontier.mean()
        direction = "pull" if density >= PULL_DENSITY_THRESHOLD else "push"
        rounds.append((direction, frontier.copy()))
        next_frontier = np.zeros(n, dtype=bool)
        if direction == "push":
            active = frontier[edge_src_of_push]
            targets = edge_dst_of_push[active]
            sources = edge_src_of_push[active]
            fresh = parent[targets] < 0
            # First writer wins (order irrelevant for BFS correctness).
            np.maximum.at(parent, targets[fresh], sources[fresh])
            next_frontier[targets[fresh]] = True
        else:
            unvisited_dst = parent[edge_dst_of_pull] < 0
            from_frontier = frontier[edge_src_of_pull]
            hit = unvisited_dst & from_frontier
            np.maximum.at(
                parent, edge_dst_of_pull[hit], edge_src_of_pull[hit]
            )
            next_frontier[edge_dst_of_pull[hit]] = True
        next_frontier &= parent >= 0
        next_frontier[frontier] = False
        frontier = next_frontier & (parent >= 0)
    return parent, rounds


class BFS(GraphApp):
    """Direction-optimizing BFS; traces its pull (bottom-up) rounds."""

    info = AppInfo(
        name="BFS",
        execution_style="pull-mostly",
        irreg_elem_bits=32,
        uses_frontier=True,
        transpose_kind="CSR",
    )

    def __init__(self, source: int = 0, max_trace_rounds: int = 2) -> None:
        self.source = source
        self.max_trace_rounds = max_trace_rounds

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        csc = graph.transpose()
        parent, rounds = bfs_reference(graph, source=self.source)

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csc_offsets", n + 1, 64)
        na = layout.alloc("csc_neighbors", csc.num_edges, 32)
        parent_span = layout.alloc("parent", n, 32, irregular=True)
        frontier_bits = layout.alloc("frontier", n, 1, irregular=True)
        next_bits = layout.alloc("nextFrontier", n, 1)

        pull_rounds = [
            (i, mask) for i, (direction, mask) in enumerate(rounds)
            if direction == "pull"
        ]
        iterations = []
        for __, mask in pull_rounds[: self.max_trace_rounds]:
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
                            span=parent_span,
                            pc=AccessKind.IRREG_DATA,
                            mask=mask,
                        ),
                    ],
                    dense_span=next_bits,
                )
            )
        trace = concat_traces(iterations)
        streams = [
            IrregularStream(span=parent_span, reference_graph=graph),
            IrregularStream(span=frontier_bits, reference_graph=graph),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(parent),
            details={
                "rounds": len(rounds),
                "pull_rounds": [i for i, __ in pull_rounds],
            },
        )
