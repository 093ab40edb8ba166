"""PageRank (pull): the paper's flagship workload (GAP's PR).

Algorithm 1 of the paper: a pull execution scans each destination's
incoming neighbors in the CSC and accumulates ``srcData[src]``
contributions — the irregular access stream that dominates misses.
``srcData`` holds 4-byte contributions (Table II: PR is pull-only, 4 B
irregData, no frontier; next references come from the CSR).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind, concat_traces
from ..popt.topt import IrregularStream
from .base import AppInfo, GraphApp, PerEdgeAccess, PreparedRun, traversal_trace

__all__ = ["PageRank", "pagerank_reference"]


def pagerank_reference(
    graph: CSRGraph,
    damping: float = 0.85,
    num_iterations: int = 20,
    tolerance: float = 1e-7,
) -> np.ndarray:
    """Pure PageRank over the out-edge graph; returns the score vector."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0)
    csc = graph.transpose()  # incoming neighbors
    out_degree = np.maximum(graph.degrees(), 1)
    scores = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(num_iterations):
        contrib = scores / out_degree
        # Sum contributions of each destination's in-neighbors.
        sources = csc.neighbors
        destinations = np.repeat(
            np.arange(n, dtype=np.int64), csc.degrees()
        )
        incoming = np.bincount(
            destinations, weights=contrib[sources], minlength=n
        )
        new_scores = base + damping * incoming
        if np.abs(new_scores - scores).sum() < tolerance:
            scores = new_scores
            break
        scores = new_scores
    return scores


class PageRank(GraphApp):
    """Pull PageRank with a materialized access trace."""

    info = AppInfo(
        name="PR",
        execution_style="pull",
        irreg_elem_bits=32,
        uses_frontier=False,
        transpose_kind="CSR",
    )

    def __init__(self, num_trace_iterations: int = 1) -> None:
        # The paper simulates one PR iteration ("it shows no performance
        # variation across iterations", Section VI).
        self.num_trace_iterations = num_trace_iterations

    def prepare(
        self,
        graph: CSRGraph,
        line_size: int = 64,
        order: Optional[np.ndarray] = None,
        **params,
    ) -> PreparedRun:
        n = graph.num_vertices
        csc = graph.transpose()
        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csc_offsets", n + 1, 64)
        na = layout.alloc("csc_neighbors", csc.num_edges, 32)
        src_data = layout.alloc("srcData", n, 32, irregular=True)
        dst_data = layout.alloc("dstData", n, 32)

        iteration = traversal_trace(
            topology=csc,
            oa_span=oa,
            na_span=na,
            per_edge=[
                PerEdgeAccess(span=src_data, pc=AccessKind.IRREG_DATA)
            ],
            dense_span=dst_data,
            order=order,
        )
        trace = concat_traces([iteration] * self.num_trace_iterations)

        # The reference graph for srcData next-refs is the CSR: element v
        # is touched while processing v's *out*-neighbors (Section III-A).
        streams = [IrregularStream(span=src_data, reference_graph=graph)]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=functools.partial(pagerank_reference, graph),
            details={"iterations_traced": self.num_trace_iterations},
        )
