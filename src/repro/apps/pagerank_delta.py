"""PageRank-Delta (pull-mostly, frontier-based) — Ligra's PR-Delta.

Only vertices whose rank is still changing stay in the frontier; a pull
iteration reads, per incoming edge, the frontier bit of the source and —
when active — the source's delta contribution. Table II: 8 B irregData
plus a 1-bit frontier, next-refs from the CSR.

Two irregular streams means P-OPT pins two Rereference Matrices
(Section V-F), which is why the paper sees slightly lower speedups here
than on PR/CC.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind
from ..popt.topt import IrregularStream
from .base import (
    AppInfo,
    GraphApp,
    PerEdgeAccess,
    PreparedRun,
    Traversal,
    build_trace,
    known_result,
)

__all__ = ["PageRankDelta", "pagerank_delta_reference"]


def pagerank_delta_reference(
    graph: CSRGraph,
    damping: float = 0.85,
    epsilon: float = 1e-4,
    max_iterations: int = 20,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """PR-Delta; returns (final ranks, per-iteration frontier masks)."""
    n = graph.num_vertices
    csc = graph.transpose()
    out_degree = np.maximum(graph.degrees(), 1)
    sources = csc.neighbors.astype(np.int64)
    destinations = np.repeat(np.arange(n, dtype=np.int64), csc.degrees())

    # r = (1-d)/n * sum_k (d A)^k 1: seed both ranks and delta with the
    # series' first term so the accumulation converges to plain PageRank.
    ranks = np.full(n, (1.0 - damping) / n)
    delta = np.full(n, (1.0 - damping) / n)
    frontier = np.ones(n, dtype=bool)
    frontier_history = []
    for _ in range(max_iterations):
        if not frontier.any():
            break
        frontier_history.append(frontier.copy())
        contribution = np.where(frontier, delta / out_degree, 0.0)
        incoming = np.bincount(
            destinations, weights=contribution[sources], minlength=n
        )
        new_delta = damping * incoming
        ranks = ranks + new_delta
        frontier = np.abs(new_delta) > epsilon * np.maximum(ranks, 1e-30)
        delta = new_delta
    return ranks, frontier_history


class PageRankDelta(GraphApp):
    """PR-Delta with frontier-gated pull traces."""

    info = AppInfo(
        name="PR-Delta",
        execution_style="pull-mostly",
        irreg_elem_bits=64,
        uses_frontier=True,
        transpose_kind="CSR",
    )

    def __init__(self, trace_iterations: Tuple[int, ...] = (1, 2)) -> None:
        #: Which PR-Delta iterations to trace (iteration sampling; 0 is the
        #: all-active iteration, later ones have sparser frontiers).
        self.trace_iterations = trace_iterations

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        csc = graph.transpose()
        ranks, frontier_history = pagerank_delta_reference(graph)

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csc_offsets", n + 1, 64)
        na = layout.alloc("csc_neighbors", csc.num_edges, 32)
        delta = layout.alloc("delta", n, 64, irregular=True)
        frontier_bits = layout.alloc("frontier", n, 1, irregular=True)
        rank_data = layout.alloc("ranks", n, 64)

        iterations = []
        for iteration in self.trace_iterations:
            if iteration >= len(frontier_history):
                continue
            mask = frontier_history[iteration]
            iterations.append(
                Traversal(
                    topology=csc,
                    oa_span=oa,
                    na_span=na,
                    per_edge=[
                        PerEdgeAccess(
                            span=frontier_bits, pc=AccessKind.FRONTIER
                        ),
                        PerEdgeAccess(
                            span=delta,
                            pc=AccessKind.IRREG_DATA,
                            mask=mask,
                        ),
                    ],
                    dense_span=rank_data,
                )
            )
        trace = build_trace(iterations)
        streams = [
            IrregularStream(span=delta, reference_graph=graph),
            IrregularStream(span=frontier_bits, reference_graph=graph),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(ranks),
            details={
                "frontier_densities": [
                    float(m.mean()) for m in frontier_history
                ],
                "iterations_traced": [
                    i
                    for i in self.trace_iterations
                    if i < len(frontier_history)
                ],
            },
        )
