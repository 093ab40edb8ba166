"""Propagation Blocking and PHI (Fig. 14's complementary optimizations).

**Propagation Blocking** (Beamer et al. [10]) replaces PageRank's
irregular scatter with two phases: *binning* appends (destination,
contribution) pairs into per-range bins with streaming writes, and
*accumulate* replays each bin with locality bounded by the bin's vertex
range. The paper evaluates the dominant binning phase.

**PHI** (Mukkara et al. [41]) adds in-cache update aggregation: instead of
writing every update out to its bin, commutative updates are accumulated
into a per-destination-line coalescing entry in the cache, and only
spilled when the line is evicted. Its DRAM-traffic savings depend on how
often back-to-back updates hit the same cached destination line — high on
power-law graphs (hub destinations repeat), low on uniform graphs — which
is exactly Fig. 14's finding, and why PHI benefits from better LLC
replacement (the coalescing lines live or die by the policy).

The model: the binning-phase trace under PB writes streaming bin cursors
(policy-insensitive by design); under PHI it accesses the destination
accumulator line per edge (policy-sensitive, commutative). Both also read
the source contribution and neighbor arrays as streams.
"""

from __future__ import annotations

import functools

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind, MemoryTrace
from ..popt.topt import IrregularStream
from .base import AppInfo, GraphApp, PerEdgeAccess, PreparedRun, traversal_trace

__all__ = ["PropagationBlockingBinning", "binning_reference"]


def binning_reference(
    graph: CSRGraph, num_bins: int
) -> np.ndarray:
    """Bin occupancies for one binning pass (validates bin routing)."""
    n = graph.num_vertices
    bin_size = max(1, -(-n // num_bins))
    destinations = graph.neighbors.astype(np.int64)
    return np.bincount(
        destinations // bin_size, minlength=num_bins
    ).astype(np.int64, copy=False)


class PropagationBlockingBinning(GraphApp):
    """The PB binning phase, with or without PHI update aggregation."""

    info = AppInfo(
        name="PB-Binning",
        execution_style="push",
        irreg_elem_bits=32,
        uses_frontier=False,
        transpose_kind="CSC",
    )

    def __init__(self, phi: bool = False, num_bins: int = 16) -> None:
        self.phi = phi
        self.num_bins = num_bins

    @property
    def name(self) -> str:
        return "PHI-Binning" if self.phi else "PB-Binning"

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        layout = AddressSpace(line_size=line_size)
        oa = layout.alloc("csr_offsets", n + 1, 64)
        na = layout.alloc("csr_neighbors", graph.num_edges, 32)
        contrib = layout.alloc("contrib", n, 32)
        streams: list = []
        if self.phi:
            # PHI: per-edge commutative update coalesces into the
            # destination accumulator line (irregular, replacement-managed).
            accum = layout.alloc("accum", n, 32, irregular=True)
            trace = traversal_trace(
                topology=graph,
                oa_span=oa,
                na_span=na,
                per_edge=[
                    PerEdgeAccess(
                        span=accum, pc=AccessKind.IRREG_DATA, write=True
                    )
                ],
                dense_span=contrib,
                dense_write=False,
            )
            streams.append(
                IrregularStream(span=accum, reference_graph=graph.transpose())
            )
        else:
            # Plain PB: per-edge append to the destination's bin at the
            # bin's current cursor — sequential within each bin.
            bin_capacity = graph.num_edges  # worst case, per bin
            bins = layout.alloc(
                "bins", self.num_bins * bin_capacity, 64
            )
            trace = self._binning_trace(
                graph, layout, oa, na, contrib, bins
            )
            # PB has no irregular stream; give P-OPT the accumulator-free
            # view (an empty-reference span so P-OPT still instantiates).
            dummy = layout.alloc("pb_dummy", n, 32, irregular=True)
            streams.append(
                IrregularStream(span=dummy, reference_graph=graph.transpose())
            )
        return PreparedRun(
            app_name=self.name,
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=functools.partial(
                binning_reference, graph, self.num_bins
            ),
            details={"phi": self.phi, "num_bins": self.num_bins},
        )

    def _binning_trace(
        self, graph: CSRGraph, layout, oa, na, contrib, bins
    ) -> MemoryTrace:
        """Vectorized PB binning-phase trace (append-only bin writes)."""
        n = graph.num_vertices
        degrees = graph.degrees()
        destinations = graph.neighbors.astype(np.int64)
        sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
        bin_size = max(1, -(-n // self.num_bins))
        bin_of_edge = destinations // bin_size
        # Cursor position of each append within its bin: running count of
        # prior appends to the same bin.
        order = np.argsort(bin_of_edge, kind="stable")
        counts = np.zeros(len(destinations), dtype=np.int64)
        sorted_bins = bin_of_edge[order]
        within = np.arange(len(order), dtype=np.int64) - np.searchsorted(
            sorted_bins, sorted_bins, side="left"
        )
        counts[order] = within
        bin_capacity = graph.num_edges
        slot = bin_of_edge * bin_capacity + counts

        # Program order per source vertex: OA, then per edge NA + bin
        # append; plus one contrib read per source.
        block_len = 2 + 2 * degrees
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(block_len[:-1], out=starts[1:])
        total = int(starts[-1] + block_len[-1]) if n else 0
        addresses = np.empty(total, dtype=np.int64)
        pcs = np.empty(total, dtype=np.uint8)
        writes = np.zeros(total, dtype=bool)
        vertices = np.repeat(np.arange(n, dtype=np.int32), block_len)
        addresses[starts] = oa.addr_of(np.arange(n, dtype=np.int64))
        pcs[starts] = AccessKind.OFFSETS
        addresses[starts + 1] = contrib.addr_of(
            np.arange(n, dtype=np.int64)
        )
        pcs[starts + 1] = AccessKind.DENSE_DATA
        if graph.num_edges:
            within_vertex = np.arange(
                graph.num_edges, dtype=np.int64
            ) - np.repeat(
                graph.offsets[:-1], degrees
            )
            base = np.repeat(starts, degrees) + 2 + 2 * within_vertex
            addresses[base] = na.addr_of(
                np.arange(graph.num_edges, dtype=np.int64)
            )
            pcs[base] = AccessKind.NEIGHBORS
            addresses[base + 1] = bins.addr_of(slot)
            pcs[base + 1] = AccessKind.BIN_BUFFER
            writes[base + 1] = True
        return MemoryTrace(
            addresses=addresses, pcs=pcs, writes=writes, vertices=vertices
        )
