"""Graph applications (Table II) and locality-optimization comparators."""

from .bfs import BFS, bfs_reference
from .base import (
    AppInfo,
    GraphApp,
    PerEdgeAccess,
    PreparedRun,
    Traversal,
    build_trace,
    traversal_trace,
)
from .components import ConnectedComponents, shiloach_vishkin_reference
from .hats import bdfs_order
from .mis import MaximalIndependentSet, mis_reference
from .pagerank import PageRank, pagerank_reference
from .parallel import epoch_serial_parallel_order, main_thread_vertex_channel
from .pagerank_delta import PageRankDelta, pagerank_delta_reference
from .pb import PropagationBlockingBinning, binning_reference
from .kcore import KCore, kcore_reference
from .radii import Radii, radii_reference
from .sssp import SSSP, sssp_reference, synthetic_weights
from .tiled_pagerank import TiledPageRank

__all__ = [
    "AppInfo",
    "GraphApp",
    "PerEdgeAccess",
    "PreparedRun",
    "Traversal",
    "build_trace",
    "traversal_trace",
    "PageRank",
    "pagerank_reference",
    "ConnectedComponents",
    "shiloach_vishkin_reference",
    "PageRankDelta",
    "pagerank_delta_reference",
    "Radii",
    "radii_reference",
    "MaximalIndependentSet",
    "mis_reference",
    "PropagationBlockingBinning",
    "binning_reference",
    "bdfs_order",
    "epoch_serial_parallel_order",
    "main_thread_vertex_channel",
    "TiledPageRank",
    "BFS",
    "bfs_reference",
    "SSSP",
    "sssp_reference",
    "synthetic_weights",
    "KCore",
    "kcore_reference",
]

#: The paper's five applications (Table II), in paper order.
PAPER_APPS = (
    PageRank,
    ConnectedComponents,
    PageRankDelta,
    Radii,
    MaximalIndependentSet,
)
