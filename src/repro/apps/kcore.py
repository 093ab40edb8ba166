"""k-core decomposition by iterative peeling (Ligra-style).

Computes every vertex's coreness: the largest k such that the vertex
survives in the subgraph where all vertices have degree >= k. Each peel
round removes the current frontier of sub-k vertices and decrements their
neighbors' induced degrees — a push-style scatter over the undirected
closure, so the irregular stream is the per-neighbor ``degree`` word and
the frontier of vertices being peeled.
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

__all__ = ["KCore", "kcore_reference"]


def kcore_reference(
    graph: CSRGraph, *, undirected: Optional[CSRGraph] = None
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """(coreness vector, per-round peel masks) over the undirected
    closure; a caller that already holds ``symmetrize(graph)`` passes it
    as ``undirected``."""
    if undirected is None:
        undirected = symmetrize(graph)
    n = undirected.num_vertices
    degree = undirected.degrees().astype(np.int64).copy()
    edge_src = np.repeat(
        np.arange(n, dtype=np.int64), undirected.degrees()
    )
    edge_dst = undirected.neighbors.astype(np.int64)
    coreness = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    peel_masks: List[np.ndarray] = []
    k = 0
    while alive.any():
        k += 1
        while True:
            peel = alive & (degree < k)
            if not peel.any():
                break
            peel_masks.append(peel.copy())
            coreness[peel] = k - 1
            alive &= ~peel
            affected = peel[edge_src] & alive[edge_dst]
            decrements = np.bincount(
                edge_dst[affected], minlength=n
            ).astype(np.int64, copy=False)
            degree -= decrements
    return coreness, peel_masks


class KCore(GraphApp):
    """k-core peeling with scatter-round traces."""

    info = AppInfo(
        name="kCore",
        execution_style="push",
        irreg_elem_bits=32,
        uses_frontier=True,
        transpose_kind="CSC",
    )

    def __init__(self, max_trace_rounds: int = 3) -> None:
        self.max_trace_rounds = max_trace_rounds

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        undirected = symmetrize(graph)
        coreness, peel_masks = kcore_reference(graph, undirected=undirected)
        n = undirected.num_vertices

        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csr_offsets", n + 1, 64)
        na = layout.alloc("csr_neighbors", undirected.num_edges, 32)
        degree_span = layout.alloc("degree", n, 32, irregular=True)
        peel_bits = layout.alloc("peel", n, 1, irregular=True)

        # Trace the largest peel rounds (they dominate runtime).
        by_size = sorted(
            range(len(peel_masks)),
            key=lambda i: int(peel_masks[i].sum()),
            reverse=True,
        )
        chosen = sorted(by_size[: self.max_trace_rounds])
        iterations = []
        for round_index in chosen:
            peeled = np.flatnonzero(peel_masks[round_index])
            if len(peeled) == 0:
                continue
            iterations.append(
                Traversal(
                    topology=undirected,
                    oa_span=oa,
                    na_span=na,
                    per_edge=[
                        PerEdgeAccess(
                            span=degree_span,
                            pc=AccessKind.IRREG_DATA,
                            write=True,
                        ),
                    ],
                    dense_span=peel_bits,
                    dense_pc=AccessKind.FRONTIER,
                    dense_write=True,
                    order=peeled.astype(np.int64),
                )
            )
        trace = build_trace(iterations)
        # Push over the symmetric graph: its own transpose = itself.
        streams = [
            IrregularStream(span=degree_span, reference_graph=undirected),
            IrregularStream(span=peel_bits, reference_graph=undirected),
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=known_result(coreness),
            details={
                "peel_rounds": len(peel_masks),
                "rounds_traced": chosen,
                "max_coreness": int(coreness.max()) if n else 0,
            },
        )
