"""Maximal Independent Set (Ligra's MIS, pull-mostly).

Luby-style rounds over random priorities: an undecided vertex joins the
set when its priority beats every undecided neighbor's; its neighbors
drop out. Each round's pull scan reads, per incoming edge from an
undecided source, the source's status/priority word — the 4 B irregular
stream — gated by the undecided-frontier bit-vector (Table II: 4 B &
1 bit).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graph.builders import symmetrize
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

__all__ = ["MaximalIndependentSet", "mis_reference"]

UNDECIDED, IN_SET, OUT_OF_SET = 0, 1, 2


def mis_reference(
    graph: CSRGraph,
    seed: int = 11,
    max_rounds: int = 64,
    *,
    undirected: Optional[CSRGraph] = None,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """(status vector, per-round undecided masks) for Luby's algorithm.

    Independence is evaluated on the undirected closure, as MIS requires;
    a caller that already holds ``symmetrize(graph)`` passes it as
    ``undirected``.
    """
    if undirected is None:
        undirected = symmetrize(graph)
    n = undirected.num_vertices
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    status = np.full(n, UNDECIDED, dtype=np.int8)
    edge_src = undirected.neighbors.astype(np.int64)
    edge_dst = np.repeat(
        np.arange(n, dtype=np.int64), undirected.degrees()
    )
    round_masks = []
    for _ in range(max_rounds):
        undecided = status == UNDECIDED
        if not undecided.any():
            break
        round_masks.append(undecided.copy())
        # A vertex wins when no undecided neighbor has higher priority.
        relevant = undecided[edge_src] & undecided[edge_dst]
        best_neighbor = np.zeros(n, dtype=np.int64) - 1
        np.maximum.at(
            best_neighbor, edge_dst[relevant], priority[edge_src[relevant]]
        )
        winners = undecided & (priority > best_neighbor)
        status[winners] = IN_SET
        # Neighbors of winners drop out.
        loser_edges = winners[edge_src] & (status[edge_dst] == UNDECIDED)
        status[edge_dst[loser_edges]] = OUT_OF_SET
    status[status == UNDECIDED] = IN_SET  # isolated leftovers join
    return status, round_masks


class MaximalIndependentSet(GraphApp):
    """MIS with undecided-frontier pull traces."""

    info = AppInfo(
        name="MIS",
        execution_style="pull-mostly",
        irreg_elem_bits=32,
        uses_frontier=True,
        transpose_kind="CSR",
    )

    def __init__(self, max_trace_rounds: int = 2) -> None:
        self.max_trace_rounds = max_trace_rounds

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        undirected = symmetrize(graph)
        status, round_masks = mis_reference(graph, undirected=undirected)
        n = undirected.num_vertices
        csc = undirected.transpose()  # symmetric: same shape either way

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csc_offsets", n + 1, 64)
        na = layout.alloc("csc_neighbors", csc.num_edges, 32)
        status_span = layout.alloc("status", n, 32, irregular=True)
        frontier_bits = layout.alloc("undecided", n, 1, irregular=True)
        decision = layout.alloc("decision", n, 32)

        iterations = []
        for mask in round_masks[: self.max_trace_rounds]:
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
                            span=status_span,
                            pc=AccessKind.IRREG_DATA,
                            mask=mask,
                        ),
                    ],
                    dense_span=decision,
                )
            )
        trace = build_trace(iterations)
        streams = [
            IrregularStream(span=status_span, reference_graph=undirected),
            IrregularStream(span=frontier_bits, reference_graph=undirected),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(status),
            details={"rounds": len(round_masks)},
        )
