"""Tests for the extended kernel suite: BFS, SSSP, k-core."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edges, symmetrize, uniform_random
from repro.apps import (
    BFS,
    KCore,
    SSSP,
    bfs_reference,
    kcore_reference,
    sssp_reference,
    synthetic_weights,
)
from repro.apps.sssp import INF
from repro.cache import CacheConfig, HierarchyConfig
from repro.sim import prepare_run, simulate_prepared


@pytest.fixture
def graph():
    return uniform_random(400, avg_degree=6.0, seed=23)


def to_networkx(graph, weights=None):
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    edges = graph.edge_array()
    if weights is None:
        g.add_edges_from((int(s), int(d)) for s, d in edges)
    else:
        g.add_weighted_edges_from(
            (int(s), int(d), int(w)) for (s, d), w in zip(edges, weights)
        )
    return g


class TestBFSAlgorithm:
    def test_levels_match_networkx(self, graph):
        parent, __ = bfs_reference(graph, source=0)
        expected = nx.single_source_shortest_path_length(
            to_networkx(graph), 0
        )
        # Derive levels by walking parent pointers.
        def level(v):
            steps = 0
            while parent[v] != v:
                v = parent[v]
                steps += 1
                assert steps <= graph.num_vertices
            return steps

        for v in range(graph.num_vertices):
            if parent[v] >= 0:
                assert v in expected
                assert level(v) == expected[v], v
            else:
                assert v not in expected

    def test_parent_edges_exist(self, graph):
        parent, __ = bfs_reference(graph, source=0)
        edges = {(int(s), int(d)) for s, d in graph.edge_array()}
        for v in range(graph.num_vertices):
            p = int(parent[v])
            if p >= 0 and p != v:
                assert (p, v) in edges

    def test_direction_switches(self, graph):
        __, rounds = bfs_reference(graph, source=0)
        directions = {direction for direction, __ in rounds}
        assert "push" in directions  # the first sparse round pushes

    def test_disconnected_source(self):
        g = from_edges([(1, 2)], num_vertices=4)
        parent, rounds = bfs_reference(g, source=0)
        assert parent[0] == 0
        assert parent[1] == -1 and parent[3] == -1


class TestSSSPAlgorithm:
    def test_matches_networkx_dijkstra(self, graph):
        weights = synthetic_weights(graph)
        dist, __ = sssp_reference(graph, source=0, weights=weights)
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(graph, weights), 0
        )
        for v in range(graph.num_vertices):
            if v in expected:
                assert dist[v] == expected[v], v
            else:
                assert dist[v] == INF

    def test_unit_weights_equal_bfs_levels(self, graph):
        ones = np.ones(graph.num_edges, dtype=np.int64)
        dist, __ = sssp_reference(graph, source=0, weights=ones)
        expected = nx.single_source_shortest_path_length(
            to_networkx(graph), 0
        )
        for v, d in expected.items():
            assert dist[v] == d

    def test_rounds_start_with_source(self, graph):
        __, rounds = sssp_reference(graph, source=7)
        assert rounds[0].sum() == 1
        assert rounds[0][7]


class TestKCoreAlgorithm:
    def test_matches_networkx(self, graph):
        coreness, __ = kcore_reference(graph)
        undirected = symmetrize(graph)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(undirected.num_vertices))
        nxg.add_edges_from(
            (int(s), int(d)) for s, d in undirected.edge_array()
            if s != d
        )
        expected = nx.core_number(nxg)
        for v in range(graph.num_vertices):
            assert coreness[v] == expected[v], v

    def test_peel_masks_partition_vertices(self, graph):
        __, masks = kcore_reference(graph)
        total = np.zeros(graph.num_vertices, dtype=int)
        for mask in masks:
            total += mask
        assert (total == 1).all()  # every vertex peeled exactly once

    def test_star_graph(self):
        # A star: center coreness 1, leaves coreness 1.
        g = from_edges([(0, i) for i in range(1, 6)], num_vertices=6)
        coreness, __ = kcore_reference(g)
        assert (coreness == 1).all()


class TestKernelTraces:
    @pytest.mark.parametrize("app_cls", [BFS, SSSP, KCore])
    def test_trace_and_streams(self, graph, app_cls):
        run = app_cls().prepare(graph)
        assert len(run.trace) > 0
        assert len(run.irregular_streams) == 2
        declared = {s.span.name for s in run.irregular_streams}
        allocated = {s.name for s in run.layout.irregular_spans}
        assert declared == allocated

    def test_sssp_sparse_round_visits_only_active(self, graph):
        run = SSSP(max_trace_rounds=1).prepare(graph)
        traced_round = run.details["rounds_traced"][0]
        __, rounds = sssp_reference(graph)
        active = set(np.flatnonzero(rounds[traced_round]).tolist())
        visited = set(np.unique(run.trace.vertices).tolist())
        assert visited <= active

    @pytest.mark.parametrize("app_cls", [BFS, SSSP, KCore])
    def test_popt_simulation_end_to_end(self, app_cls):
        graph = uniform_random(2048, avg_degree=8.0, seed=24)
        hierarchy = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=2, num_ways=8),
            l2=CacheConfig("L2", num_sets=4, num_ways=8),
            llc=CacheConfig("LLC", num_sets=8, num_ways=16),
        )
        prepared = prepare_run(app_cls(), graph)
        drrip = simulate_prepared(prepared, "DRRIP", hierarchy)
        popt = simulate_prepared(prepared, "P-OPT", hierarchy)
        # P-OPT should never be much worse, usually better.
        assert popt.llc.misses <= drrip.llc.misses * 1.10
