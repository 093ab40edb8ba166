"""Algorithm-correctness tests: the kernels must compute real results."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edges, symmetrize, uniform_random
from repro.apps import kcore as kcore_module
from repro.apps import mis as mis_module
from repro.apps import (
    KCore,
    MaximalIndependentSet,
    binning_reference,
    bdfs_order,
    mis_reference,
    pagerank_delta_reference,
    pagerank_reference,
    radii_reference,
    shiloach_vishkin_reference,
)


@pytest.fixture
def graph():
    return uniform_random(300, avg_degree=6.0, seed=17)


def to_networkx(graph):
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from((int(s), int(d)) for s, d in graph.edge_array())
    return g


class TestPageRank:
    def test_matches_networkx(self, graph):
        ours = pagerank_reference(graph, num_iterations=100)
        theirs = nx.pagerank(
            to_networkx(graph), alpha=0.85, max_iter=200, tol=1e-10,
            dangling=None,
        )
        # networkx redistributes dangling mass; compare rank *ordering*
        # of the top vertices and rough magnitudes instead of exact values.
        ours_top = np.argsort(ours)[-20:]
        theirs_arr = np.array(
            [theirs[v] for v in range(graph.num_vertices)]
        )
        theirs_top = np.argsort(theirs_arr)[-20:]
        overlap = len(set(ours_top.tolist()) & set(theirs_top.tolist()))
        assert overlap >= 12

    def test_scores_positive_and_bounded(self, graph):
        scores = pagerank_reference(graph)
        assert (scores > 0).all()
        # GAP-style PR without dangling redistribution sums to <= 1.
        assert 0.5 < scores.sum() <= 1.0 + 1e-9

    def test_uniform_on_cycle(self):
        cycle = from_edges(
            [(i, (i + 1) % 10) for i in range(10)], num_vertices=10
        )
        scores = pagerank_reference(cycle, num_iterations=200)
        assert np.allclose(scores, 0.1, atol=1e-6)

    def test_empty_graph(self):
        assert pagerank_reference(from_edges([], num_vertices=0)).size == 0


class TestConnectedComponents:
    def test_matches_networkx(self, graph):
        comp = shiloach_vishkin_reference(graph)
        expected = list(
            nx.weakly_connected_components(to_networkx(graph))
        )
        # Same partition: same number of components, consistent labels.
        label_sets = {}
        for v in range(graph.num_vertices):
            label_sets.setdefault(int(comp[v]), set()).add(v)
        assert len(label_sets) == len(expected)
        assert sorted(map(frozenset, label_sets.values())) == sorted(
            map(frozenset, expected)
        )

    def test_labels_are_roots(self, graph):
        comp = shiloach_vishkin_reference(graph)
        assert np.array_equal(comp[comp], comp)  # fully compressed

    def test_two_islands(self):
        g = from_edges([(0, 1), (2, 3)], num_vertices=4)
        comp = shiloach_vishkin_reference(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]


class TestPageRankDelta:
    def test_converges_to_pagerank(self, graph):
        ranks, history = pagerank_delta_reference(
            graph, epsilon=1e-9, max_iterations=100
        )
        plain = pagerank_reference(graph, num_iterations=100)
        assert np.allclose(ranks, plain, atol=1e-5)

    def test_frontier_shrinks(self, graph):
        __, history = pagerank_delta_reference(graph, epsilon=1e-3)
        densities = [m.mean() for m in history]
        assert densities[0] == 1.0
        assert densities[-1] < densities[0]


class TestRadii:
    def test_radius_positive_and_bounded(self, graph):
        radius, history = radii_reference(graph, num_samples=32)
        assert 1 <= radius <= 64
        assert len(history) >= radius

    def test_single_chain(self):
        chain = from_edges(
            [(i, i + 1) for i in range(20)], num_vertices=21
        )
        # One BFS from vertex 0 walks the whole chain.
        radius, __ = radii_reference(chain, num_samples=21, seed=1)
        assert radius >= 10

    def test_frontier_masks_boolean(self, graph):
        __, history = radii_reference(graph, num_samples=16)
        for mask in history:
            assert mask.dtype == bool


class TestMIS:
    def test_independence(self, graph):
        status, __ = mis_reference(graph)
        undirected = symmetrize(graph)
        in_set = status == 1
        for u, v in undirected.edge_array().tolist():
            if u != v:
                assert not (in_set[u] and in_set[v])

    def test_maximality(self, graph):
        status, __ = mis_reference(graph)
        undirected = symmetrize(graph)
        in_set = status == 1
        for v in range(undirected.num_vertices):
            if not in_set[v]:
                neighbors = undirected.out_neighbors(v)
                assert any(in_set[u] for u in neighbors), (
                    f"vertex {v} could join the set"
                )

    def test_all_vertices_decided(self, graph):
        status, __ = mis_reference(graph)
        assert set(np.unique(status)) <= {1, 2}

    def test_rounds_shrink(self, graph):
        __, masks = mis_reference(graph)
        sizes = [int(m.sum()) for m in masks]
        assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("module, app", [
    (mis_module, MaximalIndependentSet), (kcore_module, KCore),
], ids=["MIS", "kCore"])
def test_prepare_symmetrizes_once(graph, monkeypatch, module, app):
    """The reference rounds and the traced topology share one
    undirected closure."""
    calls = []

    def counting(target):
        calls.append(target)
        return symmetrize(target)

    monkeypatch.setattr(module, "symmetrize", counting)
    app().prepare(graph)
    assert len(calls) == 1


class TestBDFS:
    def test_is_permutation(self, graph):
        order = bdfs_order(graph)
        assert sorted(order.tolist()) == list(range(graph.num_vertices))

    def test_depth_zero_is_identity(self, graph):
        order = bdfs_order(graph, depth_bound=0)
        assert order.tolist() == list(range(graph.num_vertices))

    def test_community_locality(self):
        from repro.graph import community

        g = community(
            512, num_communities=8, internal_fraction=0.95, seed=3
        )
        order = bdfs_order(g)
        # Consecutive visits should frequently stay inside one community.
        size = 512 // 8
        same = sum(
            1
            for a, b in zip(order, order[1:])
            if a // size == b // size
        )
        assert same / len(order) > 0.5


class TestBinning:
    def test_bin_occupancy_sums_to_edges(self, graph):
        occupancy = binning_reference(graph, num_bins=8)
        assert occupancy.sum() == graph.num_edges

    def test_routing(self):
        g = from_edges([(0, 0), (0, 9), (1, 5)], num_vertices=10)
        occupancy = binning_reference(g, num_bins=2)
        # bin size 5: dst 0 -> bin 0; dsts 9 and 5 -> bin 1.
        assert occupancy.tolist() == [1, 2]
