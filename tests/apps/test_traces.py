"""Trace-structure tests: the emitted access streams must mirror the
kernels' loop nests (Algorithm 1's access pattern)."""

import numpy as np
import pytest

from repro.graph import from_edges, uniform_random
from repro.memory.trace import AccessKind
from repro.apps import (
    ConnectedComponents,
    MaximalIndependentSet,
    PageRank,
    PageRankDelta,
    PropagationBlockingBinning,
    Radii,
)
from repro.apps.tiled_pagerank import TiledPageRank


@pytest.fixture
def graph():
    return uniform_random(400, avg_degree=6.0, seed=21)


ALL_APPS = [
    PageRank,
    ConnectedComponents,
    PageRankDelta,
    Radii,
    MaximalIndependentSet,
]


class TestCommonInvariants:
    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_addresses_inside_layout(self, graph, app_cls):
        run = app_cls().prepare(graph)
        spans = run.layout.spans
        low = min(s.base for s in spans)
        high = max(s.bound for s in spans)
        assert (run.trace.addresses >= low).all()
        assert (run.trace.addresses < high + 64).all()

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_irregular_accesses_inside_irregular_spans(self, graph, app_cls):
        run = app_cls().prepare(graph)
        trace = run.trace
        irregular_pcs = (AccessKind.IRREG_DATA, AccessKind.FRONTIER)
        mask = np.isin(trace.pcs, irregular_pcs)
        addrs = trace.addresses[mask]
        inside = np.zeros(len(addrs), dtype=bool)
        for span in run.layout.irregular_spans:
            inside |= (addrs >= span.base) & (addrs < span.bound)
        assert inside.all()

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_streams_declared_for_all_irregular_spans(self, graph, app_cls):
        run = app_cls().prepare(graph)
        declared = {s.span.name for s in run.irregular_streams}
        allocated = {s.name for s in run.layout.irregular_spans}
        assert declared == allocated

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_vertex_channel_valid(self, graph, app_cls):
        run = app_cls().prepare(graph)
        vertices = run.trace.vertices
        assert (vertices >= 0).all()
        assert (vertices < graph.num_vertices).all()


class TestPageRankTrace:
    def test_access_counts(self, graph):
        run = PageRank().prepare(graph)
        csc = graph.transpose()
        stats = run.trace.stats()
        n, m = graph.num_vertices, graph.num_edges
        assert stats[AccessKind.OFFSETS] == n
        assert stats[AccessKind.NEIGHBORS] == m
        assert stats[AccessKind.IRREG_DATA] == m
        assert stats[AccessKind.DENSE_DATA] == n

    def test_program_order_block(self):
        # For a 3-vertex graph, check the exact block layout of vertex 0.
        g = from_edges([(1, 0), (2, 0), (0, 1)], num_vertices=3)
        run = PageRank().prepare(g)
        trace = run.trace
        # Block for dst 0: OA, then (NA, srcData) per in-edge, then dense.
        pcs = trace.pcs[trace.vertices == 0].tolist()
        assert pcs == [
            AccessKind.OFFSETS,
            AccessKind.NEIGHBORS,
            AccessKind.IRREG_DATA,
            AccessKind.NEIGHBORS,
            AccessKind.IRREG_DATA,
            AccessKind.DENSE_DATA,
        ]

    def test_src_data_addresses_match_sources(self):
        g = from_edges([(1, 0), (2, 0)], num_vertices=3)
        run = PageRank().prepare(g)
        span = run.layout["srcData"]
        mask = run.trace.pcs == AccessKind.IRREG_DATA
        addrs = run.trace.addresses[mask]
        # dst 0's in-neighbors are 1 and 2.
        assert addrs.tolist() == [span.addr_of(1), span.addr_of(2)]

    def test_vertices_monotonic_for_pull(self, graph):
        run = PageRank().prepare(graph)
        assert (np.diff(run.trace.vertices) >= 0).all()

    def test_multiple_iterations(self, graph):
        one = PageRank(num_trace_iterations=1).prepare(graph)
        two = PageRank(num_trace_iterations=2).prepare(graph)
        assert len(two.trace) == 2 * len(one.trace)

    def test_outer_order_override(self, graph):
        order = np.arange(graph.num_vertices)[::-1].copy()
        run = PageRank().prepare(graph, order=order)
        vertices = run.trace.vertices
        assert vertices[0] == graph.num_vertices - 1
        assert (np.diff(vertices) <= 0).all()


class TestConnectedComponentsTrace:
    def test_push_irregular_indexed_by_destination(self):
        g = from_edges([(0, 2), (0, 3)], num_vertices=4)
        run = ConnectedComponents().prepare(g)
        span = run.layout["comp"]
        mask = run.trace.pcs == AccessKind.IRREG_DATA
        addrs = run.trace.addresses[mask]
        assert addrs.tolist() == [span.addr_of(2), span.addr_of(3)]

    def test_irregular_writes(self, graph):
        run = ConnectedComponents().prepare(graph)
        mask = run.trace.pcs == AccessKind.IRREG_DATA
        assert run.trace.writes[mask].all()

    def test_reference_graph_is_transpose(self, graph):
        run = ConnectedComponents().prepare(graph)
        ref = run.irregular_streams[0].reference_graph
        # comp[dst] is touched while processing dst's *in*-neighbors.
        assert ref.num_edges == graph.num_edges
        assert ref.out_neighbors(0).tolist() == (
            graph.transpose().out_neighbors(0).tolist()
        )


class TestFrontierApps:
    def test_frontier_gates_irregular_accesses(self, graph):
        run = PageRankDelta(trace_iterations=(1,)).prepare(graph)
        stats = run.trace.stats()
        # Frontier bits are read for every edge; delta only for active
        # sources, so frontier accesses strictly dominate.
        assert stats[AccessKind.FRONTIER] >= stats.get(
            AccessKind.IRREG_DATA, 0
        )

    def test_all_active_first_iteration(self, graph):
        run = PageRankDelta(trace_iterations=(0,)).prepare(graph)
        stats = run.trace.stats()
        assert stats[AccessKind.FRONTIER] == stats[AccessKind.IRREG_DATA]

    def test_two_irregular_streams(self, graph):
        run = PageRankDelta().prepare(graph)
        assert len(run.irregular_streams) == 2
        names = {s.span.name for s in run.irregular_streams}
        assert names == {"delta", "frontier"}

    def test_radii_traces_densest_rounds(self, graph):
        run = Radii(max_trace_rounds=2).prepare(graph)
        assert len(run.details["rounds_traced"]) <= 2
        assert len(run.trace) > 0

    def test_mis_rounds(self, graph):
        run = MaximalIndependentSet(max_trace_rounds=1).prepare(graph)
        assert len(run.trace) > 0
        assert run.details["rounds"] >= 1


class TestPBTraces:
    def test_pb_binning_all_streaming_writes(self, graph):
        run = PropagationBlockingBinning(phi=False).prepare(graph)
        stats = run.trace.stats()
        assert stats[AccessKind.BIN_BUFFER] == graph.num_edges
        assert AccessKind.IRREG_DATA not in stats

    def test_phi_irregular_accumulation(self, graph):
        run = PropagationBlockingBinning(phi=True).prepare(graph)
        stats = run.trace.stats()
        assert stats[AccessKind.IRREG_DATA] == graph.num_edges

    def test_pb_bin_appends_sequential_within_bin(self):
        g = from_edges([(0, 1), (1, 1), (2, 1)], num_vertices=3)
        run = PropagationBlockingBinning(phi=False, num_bins=1).prepare(g)
        span = run.layout["bins"]
        mask = run.trace.pcs == AccessKind.BIN_BUFFER
        addrs = run.trace.addresses[mask]
        assert addrs.tolist() == [
            span.addr_of(0),
            span.addr_of(1),
            span.addr_of(2),
        ]


class TestTiledPageRank:
    def test_trace_covers_all_edges(self, graph):
        run = TiledPageRank(num_tiles=4).prepare(graph)
        stats = run.trace.stats()
        assert stats[AccessKind.IRREG_DATA] == graph.num_edges
        assert stats[AccessKind.OFFSETS] == 4 * graph.num_vertices

    def test_global_iteration_index(self, graph):
        run = TiledPageRank(num_tiles=2).prepare(graph)
        vertices = run.trace.vertices
        n = graph.num_vertices
        assert vertices.max() >= n  # second pass offsets by n
        assert (np.diff(vertices) >= 0).all()

    def test_resident_fraction(self, graph):
        run = TiledPageRank(num_tiles=8).prepare(graph)
        assert run.details["resident_fraction"] == pytest.approx(1 / 8)

    def test_srcdata_restricted_per_pass(self, graph):
        run = TiledPageRank(num_tiles=2).prepare(graph)
        span = run.layout["srcData"]
        trace = run.trace
        n = graph.num_vertices
        mask = (trace.pcs == AccessKind.IRREG_DATA) & (trace.vertices < n)
        first_pass = trace.addresses[mask]
        # Pass 0 touches only the first tile's source range.
        boundary = span.addr_of((n + 1) // 2 + 1)
        assert (first_pass <= boundary).all()
