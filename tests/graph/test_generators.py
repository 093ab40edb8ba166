"""Generators must land in their intended structural classes (Table III)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    bounded_degree_mesh,
    community,
    degree_skew,
    degree_stats,
    power_law,
    rmat,
    uniform_random,
)
from repro.graph.datasets import PAPER_GRAPHS, SCALES, graph_names, load


def num_weakly_connected(graph):
    """Weakly connected components, by union-find over the edge array."""
    parent = list(range(graph.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst in graph.edge_array().tolist():
        parent[find(src)] = find(dst)
    return len({find(v) for v in range(graph.num_vertices)})


class TestUniformRandom:
    def test_size(self):
        g = uniform_random(1000, avg_degree=8.0, seed=1)
        assert g.num_vertices == 1000
        # dedup/self-loop removal trims a little
        assert 0.85 * 8000 <= g.num_edges <= 8000

    def test_no_self_loops(self):
        g = uniform_random(300, avg_degree=8.0, seed=2)
        edges = g.edge_array()
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_low_skew(self):
        g = uniform_random(2000, avg_degree=8.0, seed=3)
        assert degree_skew(g) < 5.0

    def test_deterministic(self):
        a = uniform_random(200, seed=9)
        b = uniform_random(200, seed=9)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_rejects_bad_size(self):
        with pytest.raises(GraphFormatError):
            uniform_random(0)


class TestRmat:
    def test_size_power_of_two(self):
        g = rmat(9, avg_degree=8.0, seed=1)
        assert g.num_vertices == 512

    def test_high_skew(self):
        g = rmat(11, avg_degree=8.0, seed=1)
        assert degree_skew(g) > 10.0

    def test_more_skewed_than_uniform(self):
        k = rmat(11, avg_degree=8.0, seed=1)
        u = uniform_random(2048, avg_degree=8.0, seed=1)
        assert degree_skew(k) > 2 * degree_skew(u)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            rmat(8, a=0.6, b=0.3, c=0.2)


class TestPowerLaw:
    def test_heavy_tail(self):
        g = power_law(2048, avg_degree=8.0, seed=4)
        degrees = np.sort(g.transpose().degrees() + g.degrees())[::-1]
        # Top 1% of vertices should hold a disproportionate edge share.
        top = degrees[: len(degrees) // 100 or 1].sum()
        assert top > 0.1 * degrees.sum()

    def test_hubs_spread_over_id_space(self):
        g = power_law(2048, avg_degree=8.0, seed=4)
        hub = int(np.argmax(g.degrees()))
        assert 0 < hub < g.num_vertices - 1


class TestCommunity:
    def test_internal_edge_fraction(self):
        num_communities = 16
        n = 1600
        g = community(
            n,
            num_communities=num_communities,
            internal_fraction=0.9,
            seed=5,
        )
        size = n // num_communities
        edges = g.edge_array()
        internal = np.count_nonzero(edges[:, 0] // size == edges[:, 1] // size)
        assert internal / g.num_edges > 0.8

    def test_rejects_bad_fraction(self):
        with pytest.raises(GraphFormatError):
            community(100, internal_fraction=1.5)

    def test_rejects_too_many_communities(self):
        with pytest.raises(GraphFormatError):
            community(10, num_communities=20)


class TestBoundedDegreeMesh:
    def test_degree_bounded(self):
        g = bounded_degree_mesh(1000, degree=6, seed=6)
        assert degree_skew(g) < 3.0
        assert g.degrees().max() <= 12

    def test_connected_enough(self):
        g = bounded_degree_mesh(500, degree=6, seed=6)
        assert num_weakly_connected(g) <= 5

    def test_ids_scrambled(self):
        # Real bounded-degree inputs carry no vertex-ID locality: the
        # average |src - dst| gap must be large (not a band matrix).
        g = bounded_degree_mesh(2000, degree=6, seed=6)
        edges = g.edge_array()
        gaps = np.abs(edges[:, 0].astype(int) - edges[:, 1].astype(int))
        assert gaps.mean() > 2000 / 10


class TestDatasets:
    def test_names(self):
        assert graph_names() == ["DBP", "UK-02", "KRON", "URAND", "HBUBL"]

    @pytest.mark.parametrize("name", graph_names())
    def test_loadable_and_deterministic(self, name):
        a = load(name, scale="tiny")
        b = load(name, scale="tiny")
        assert a.num_vertices >= SCALES["tiny"]
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_unknown_name(self):
        with pytest.raises(GraphFormatError):
            load("NOPE")

    def test_unknown_scale(self):
        with pytest.raises(GraphFormatError):
            PAPER_GRAPHS[0].generate(scale="galactic")

    def test_sized_name_builds_exact_vertex_count(self):
        sized = load("URAND@4096", scale="tiny", seed=7)
        direct = PAPER_GRAPHS[3].build(4096, 7)  # URAND, scale ignored
        assert sized.num_vertices == 4096
        assert np.array_equal(sized.neighbors, direct.neighbors)

    @pytest.mark.parametrize(
        "name", ["URAND@", "URAND@0", "URAND@4k", "NOPE@4096"]
    )
    def test_bad_sized_name(self, name):
        with pytest.raises(GraphFormatError):
            load(name)

    def test_structural_classes(self):
        skewed = degree_skew(load("KRON", scale="tiny"))
        flat = degree_skew(load("HBUBL", scale="tiny"))
        assert skewed > 5 * flat

    def test_stats_rows(self):
        stats = degree_stats(load("URAND", scale="tiny"))
        row = stats.as_row()
        assert row["vertices"] == stats.num_vertices
        assert row["edges"] == stats.num_edges


class TestExtendedGraphs:
    def test_loadable(self):
        from repro.graph.datasets import EXTENDED_GRAPHS

        names = [spec.name for spec in EXTENDED_GRAPHS]
        assert names == ["GPL", "ARAB", "URAND64"]
        for name in names:
            g = load(name, scale="tiny")
            assert g.num_vertices >= SCALES["tiny"]

    def test_gpl_most_skewed(self):
        gpl = degree_skew(load("GPL", scale="tiny"))
        dbp = degree_skew(load("DBP", scale="tiny"))
        assert gpl > dbp

    def test_urand64_twice_the_vertices(self):
        small = load("URAND", scale="tiny")
        big = load("URAND64", scale="tiny")
        assert big.num_vertices == 2 * small.num_vertices

    def test_arab_communities_hidden_from_id_space(self):
        # ARAB has community topology but scrambled IDs: ID-blocked
        # internal-edge fraction collapses to ~random, while UK-02 (crawl
        # ordered) keeps its communities ID-contiguous.
        def internal_fraction(g, num_communities):
            size = g.num_vertices // num_communities
            edges = g.edge_array()
            internal = np.count_nonzero(
                edges[:, 0] // size == edges[:, 1] // size
            )
            return internal / g.num_edges

        arab = load("ARAB", scale="tiny")
        uk = load("UK-02", scale="tiny")
        groups = 1024 // 128
        assert internal_fraction(uk, 1024 // 256) > 0.8
        assert internal_fraction(arab, groups) < 0.5
