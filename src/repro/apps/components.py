"""Connected Components via Shiloach-Vishkin (push execution).

Table II: CC is the paper's push-only workload. The hook phase scans each
*source* vertex's outgoing neighbors (CSR) and updates component labels
indexed by the *destination* — so ``comp`` is the irregular array, next
references come from the CSC, and ``currVertex`` is the source.

The kernel computes real components (hook + pointer-jumping compression
until a fixed point); the trace covers a configurable number of hook
phases (iteration sampling, Section VI).
"""

from __future__ import annotations

import functools

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind, concat_traces
from ..popt.topt import IrregularStream
from .base import AppInfo, GraphApp, PerEdgeAccess, PreparedRun, traversal_trace

__all__ = ["ConnectedComponents", "shiloach_vishkin_reference"]


def shiloach_vishkin_reference(
    graph: CSRGraph, max_rounds: int = 64
) -> np.ndarray:
    """Component labels via Shiloach-Vishkin hook + compress."""
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    destinations = graph.neighbors.astype(np.int64)
    for _ in range(max_rounds):
        previous = comp.copy()
        # Hook (parallel form): every root adopts the smallest label
        # reachable over one edge in either direction.
        comp_u = comp[sources]
        comp_v = comp[destinations]
        low = np.minimum(comp_u, comp_v)
        high = np.maximum(comp_u, comp_v)
        np.minimum.at(comp, high, low)
        # Compress: pointer jumping to the root.
        while True:
            parent = comp[comp]
            if np.array_equal(parent, comp):
                break
            comp = parent
        if np.array_equal(comp, previous):
            break
    return comp


class ConnectedComponents(GraphApp):
    """Shiloach-Vishkin CC with a push-phase access trace."""

    info = AppInfo(
        name="CC",
        execution_style="push",
        irreg_elem_bits=32,
        uses_frontier=False,
        transpose_kind="CSC",
    )

    def __init__(self, num_trace_iterations: int = 1) -> None:
        self.num_trace_iterations = num_trace_iterations

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csr_offsets", n + 1, 64)
        na = layout.alloc("csr_neighbors", graph.num_edges, 32)
        comp = layout.alloc("comp", n, 32, irregular=True)
        # The hook phase also reads comp[src] once per source (streaming
        # in vertex order) — modeled as the dense access.
        iteration = traversal_trace(
            topology=graph,  # push: scan outgoing neighbors
            oa_span=oa,
            na_span=na,
            per_edge=[
                PerEdgeAccess(
                    span=comp, pc=AccessKind.IRREG_DATA, write=True
                )
            ],
            dense_span=comp,
            dense_pc=AccessKind.DENSE_DATA,
            dense_write=False,
        )
        trace = concat_traces([iteration] * self.num_trace_iterations)
        # Push execution: dstData next-refs come from the CSC (the
        # transpose of the traversal direction).
        streams = [
            IrregularStream(span=comp, reference_graph=graph.transpose())
        ]
        return PreparedRun(
            app_name=self.info.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=functools.partial(shiloach_vishkin_reference, graph),
            details={"iterations_traced": self.num_trace_iterations},
        )
