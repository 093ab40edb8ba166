"""Graph substrate: CSR/CSC graphs, generators, reordering, tiling, I/O."""

from .builders import from_edges, symmetrize
from .csr import CSRGraph
from .datasets import (
    EXTENDED_GRAPHS,
    FILE_PREFIX,
    PAPER_GRAPHS,
    SCALES,
    GraphSpec,
    file_spec_path,
    graph_names,
    is_file_spec,
    load,
)
from .dynamic import EdgeDelta, apply_delta, random_delta
from .generators import (
    bounded_degree_mesh,
    community,
    kronecker,
    power_law,
    rmat,
    uniform_random,
)
from .io import (
    load_csr,
    load_edge_list,
    load_gap_binary,
    load_graph,
    load_matrix_market,
    load_weighted_edge_list,
    save_csr,
    save_edge_list,
    save_gap_binary,
    save_matrix_market,
    save_weighted_edge_list,
)
from .properties import DegreeStats, degree_skew, degree_stats
from .reorder import DbgLayout, apply_order, dbg_order
from .tiling import GraphTile, segment_csr

__all__ = [
    "CSRGraph",
    "from_edges",
    "symmetrize",
    "uniform_random",
    "rmat",
    "kronecker",
    "power_law",
    "community",
    "bounded_degree_mesh",
    "GraphSpec",
    "PAPER_GRAPHS",
    "EXTENDED_GRAPHS",
    "SCALES",
    "graph_names",
    "load",
    "DegreeStats",
    "degree_stats",
    "degree_skew",
    "DbgLayout",
    "dbg_order",
    "apply_order",
    "GraphTile",
    "segment_csr",
    "load_edge_list",
    "save_weighted_edge_list",
    "load_weighted_edge_list",
    "save_edge_list",
    "load_csr",
    "save_csr",
    "load_matrix_market",
    "save_matrix_market",
    "load_gap_binary",
    "save_gap_binary",
    "load_graph",
    "FILE_PREFIX",
    "is_file_spec",
    "file_spec_path",
    "EdgeDelta",
    "apply_delta",
    "random_delta",
]
