"""Unit tests for the CSR graph core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edges


def edges_strategy(max_vertices=24, max_edges=80):
    return st.integers(2, max_vertices).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=max_edges,
            ),
        )
    )


def neighbor_lists_sorted(graph):
    return all(
        np.all(np.diff(graph.out_neighbors(v)) >= 0)
        for v in range(graph.num_vertices)
    )


class TestConstruction:
    def test_basic_counts(self, paper_example_graph):
        g = paper_example_graph
        assert g.num_vertices == 5
        assert g.num_edges == 10

    def test_neighbor_lists_sorted(self, paper_example_graph):
        assert neighbor_lists_sorted(paper_example_graph)

    def test_out_neighbors(self, paper_example_graph):
        assert paper_example_graph.out_neighbors(2).tolist() == [0, 1, 3]

    def test_degrees(self, paper_example_graph):
        assert paper_example_graph.degrees().tolist() == [1, 2, 3, 2, 2]

    def test_empty_graph(self):
        g = from_edges([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.out_neighbors(0).size == 0

    def test_edge_array_round_trip(self, paper_example_graph):
        edges = paper_example_graph.edge_array()
        rebuilt = from_edges(edges, num_vertices=5)
        assert np.array_equal(
            rebuilt.offsets, paper_example_graph.offsets
        )
        assert np.array_equal(
            rebuilt.neighbors, paper_example_graph.neighbors
        )

    def test_rejects_bad_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                offsets=np.array([1, 2]), neighbors=np.array([0, 0])
            )

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                offsets=np.array([0, 2, 1]),
                neighbors=np.array([0, 0], dtype=np.int32),
            )

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphFormatError):
            from_edges([(0, 7)], num_vertices=3)

    def test_rejects_negative_vertex(self):
        with pytest.raises(GraphFormatError):
            from_edges([(-1, 0)], num_vertices=3)

    def test_dedup_and_self_loops(self):
        g = from_edges(
            [(0, 1), (0, 1), (1, 1)],
            num_vertices=2,
            dedup=True,
            drop_self_loops=True,
        )
        assert g.num_edges == 1


class TestTranspose:
    def test_paper_example(self, paper_example_graph):
        t = paper_example_graph.transpose()
        # In-neighbors of vertex 0 are {1, 2, 4}.
        assert t.out_neighbors(0).tolist() == [1, 2, 4]

    def test_double_transpose_is_identity(self, paper_example_graph):
        g = paper_example_graph
        tt = g.transpose().transpose()
        assert np.array_equal(tt.offsets, g.offsets)
        assert np.array_equal(tt.neighbors, g.neighbors)

    def test_transpose_cached(self, paper_example_graph):
        g = paper_example_graph
        assert g.transpose() is g.transpose()
        assert g.transpose().transpose() is g

    def test_transpose_preserves_edge_multiset(self, small_random_graph):
        g = small_random_graph
        fwd = {(int(s), int(d)) for s, d in g.edge_array()}
        rev = {(int(d), int(s)) for s, d in g.transpose().edge_array()}
        assert fwd == rev

    def test_transpose_sorted(self, small_random_graph):
        assert neighbor_lists_sorted(small_random_graph.transpose())

    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution_property(self, data):
        n, edges = data
        g = from_edges(edges, num_vertices=n, dedup=True)
        tt = g.transpose().transpose()
        assert np.array_equal(tt.offsets, g.offsets)
        assert np.array_equal(tt.neighbors, g.neighbors)

    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_degree_conservation(self, data):
        n, edges = data
        g = from_edges(edges, num_vertices=n)
        t = g.transpose()
        assert g.num_edges == t.num_edges
        assert int(g.degrees().sum()) == int(t.degrees().sum())


class TestRelabel:
    def test_identity(self, small_random_graph):
        g = small_random_graph
        ident = np.arange(g.num_vertices)
        h = g.relabel(ident)
        assert np.array_equal(h.neighbors, g.neighbors)

    def test_permutation_preserves_structure(self, small_random_graph):
        g = small_random_graph
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.num_vertices)
        h = g.relabel(perm)
        assert h.num_edges == g.num_edges
        # degree multiset is preserved
        assert sorted(h.degrees().tolist()) == sorted(g.degrees().tolist())
        # spot-check: edge (s, d) maps to (perm[s], perm[d])
        edges_g = {(int(perm[s]), int(perm[d])) for s, d in g.edge_array()}
        edges_h = {(int(s), int(d)) for s, d in h.edge_array()}
        assert edges_g == edges_h

    def test_rejects_non_permutation(self, small_random_graph):
        g = small_random_graph
        bad = np.zeros(g.num_vertices, dtype=np.int32)
        with pytest.raises(GraphFormatError):
            g.relabel(bad)
