"""CSR-segmented (tiled) PageRank — the Fig. 13 workload.

CSR-segmenting [57] splits the source-vertex range into tiles and runs the
pull kernel once per tile, bounding the irregular ``srcData`` range per
pass. Two P-OPT-specific consequences the paper highlights:

- *Tiling helps P-OPT*: only the active tile's slice of a Rereference
  Matrix column needs to be LLC-resident (modeled with
  ``resident_fraction = 1/num_tiles``).
- *P-OPT helps tiling*: P-OPT reaches a target miss rate with far fewer
  tiles, and preprocessing cost scales with tile count.

Next references must account for the multi-pass structure: during pass
``t`` the outer loop runs destinations 0..n-1 *again*, so the outer-loop
coordinate handed to the LLC (the ``update_index`` value) is the global
iteration index ``t * n + dst``, and the reference graph is rebuilt in
that index space.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import SimulationError
from ..graph.builders import from_edges
from ..graph.csr import CSRGraph
from ..graph.tiling import segment_csr
from ..memory.layout import AddressSpace
from ..memory.trace import AccessKind
from ..popt.topt import IrregularStream
from .base import (
    AppInfo, GraphApp, PerEdgeAccess, PreparedRun, Traversal, build_trace,
)
from .pagerank import pagerank_reference

__all__ = ["TiledPageRank"]


class TiledPageRank(GraphApp):
    """PageRank with 1-D CSR-segmenting over the source range."""

    info = AppInfo(
        name="PR-Tiled",
        execution_style="pull",
        irreg_elem_bits=32,
        uses_frontier=False,
        transpose_kind="CSR",
    )

    def __init__(self, num_tiles: int = 4) -> None:
        if num_tiles <= 0:
            raise SimulationError("num_tiles must be positive")
        self.num_tiles = num_tiles

    def prepare(
        self, graph: CSRGraph, line_size: int = 64, **params
    ) -> PreparedRun:
        n = graph.num_vertices
        csc = graph.transpose()
        tiles = segment_csr(csc, self.num_tiles)

        layout = AddressSpace(line_size=line_size)
        src_data = layout.alloc("srcData", n, 32, irregular=True)
        dst_data = layout.alloc("dstData", n, 32)
        tile_spans = []
        for index, tile in enumerate(tiles):
            # Each tile materializes its own sub-CSC (this duplication is
            # the preprocessing cost that "scales with tile count").
            oa = layout.alloc(f"tile{index}_offsets", n + 1, 64)
            na = layout.alloc(
                f"tile{index}_neighbors", max(tile.graph.num_edges, 1), 32
            )
            tile_spans.append((oa, na))

        # Each tile's outer-loop coordinate becomes the global
        # iteration index.
        trace = build_trace([
            Traversal(
                topology=tile.graph,
                oa_span=oa,
                na_span=na,
                per_edge=[
                    PerEdgeAccess(span=src_data, pc=AccessKind.IRREG_DATA)
                ],
                dense_span=dst_data,
                vertex_offset=index * n,
            )
            for index, (tile, (oa, na)) in enumerate(zip(tiles, tile_spans))
        ])

        # Reference graph in global-iteration space: srcData[v] (v inside
        # tile t) is touched at iteration t*n + dst for each out-neighbor
        # dst of v.
        sources = np.repeat(
            np.arange(n, dtype=np.int64), graph.degrees()
        )
        destinations = graph.neighbors.astype(np.int64)
        begins = np.array([tile.src_begin for tile in tiles], dtype=np.int64)
        tile_of_source = (
            np.searchsorted(begins, sources, side="right") - 1
        )
        global_refs = tile_of_source * n + destinations
        reference_graph = from_edges(
            np.column_stack([sources, global_refs]),
            num_vertices=self.num_tiles * n,
        )
        streams = [
            IrregularStream(span=src_data, reference_graph=reference_graph)
        ]
        return PreparedRun(
            app_name=f"PR-Tiled({self.num_tiles})",
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            reference=functools.partial(pagerank_reference, graph),
            details={
                "num_tiles": self.num_tiles,
                # Only the active tile's RM slice must stay resident.
                "resident_fraction": 1.0 / self.num_tiles,
                "preprocessing_csr_builds": self.num_tiles,
            },
        )
