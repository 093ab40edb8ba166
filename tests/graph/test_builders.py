"""The packed-key CSR builder against a row-wise reference.

`from_edges` sorts and deduplicates edges on one int64 key
``src * num_vertices + dst``. These tests pin that the result equals the
row-wise ``np.unique(axis=0)`` + ``np.lexsort`` build it replaced, that
a payload keeps its edge attachment, and that a vertex count whose key
could wrap int64 is refused before anything is sized by it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError, WidthContractError
from repro.graph import from_edges
from repro.graph.builders import _check_packable


def reference_csr(edges, num_vertices, dedup, drop_self_loops):
    """Row-wise build: drop loops, ``np.unique(axis=0)``, lexsort."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if dedup:
        edges = np.unique(edges, axis=0)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=num_vertices),
              out=offsets[1:])
    return offsets, edges[:, 1].astype(np.int32)


@st.composite
def multigraphs(draw):
    num_vertices = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, num_vertices - 1),
                  st.integers(0, num_vertices - 1)),
        max_size=120,
    ))
    return num_vertices, pairs


class TestFromEdges:
    @settings(max_examples=150, deadline=None)
    @given(multigraphs(), st.booleans(), st.booleans())
    def test_matches_rowwise_reference(self, graph, dedup, drop_self_loops):
        num_vertices, pairs = graph
        built = from_edges(pairs, num_vertices=num_vertices, dedup=dedup,
                           drop_self_loops=drop_self_loops)
        offsets, neighbors = reference_csr(
            pairs, num_vertices, dedup, drop_self_loops
        )
        assert np.array_equal(built.offsets, offsets)
        assert np.array_equal(built.neighbors, neighbors)
        assert built.neighbors.dtype == np.int32

    def test_vertex_count_past_neighbor_width_refused(self):
        # 2**31 + 1 vertices: IDs up to 2**31 overflow int32 neighbors.
        # Refused before bincount would size anything by the count.
        with pytest.raises(WidthContractError, match="csr.neighbors"):
            from_edges([[0, 1]], num_vertices=(1 << 31) + 1)

    def test_width_check_boundary(self):
        # 2**31 vertices is the widest count whose IDs fit; its largest
        # key, (2**31 - 1) * 2**31 + 2**31 - 1, is below 2**62.
        _check_packable(1 << 31, "here")
        with pytest.raises(WidthContractError, match="here"):
            _check_packable((1 << 31) + 1, "here")


class TestFromEdgesPayload:
    def test_payload_keeps_parallel_edge_order(self):
        # Three parallel 0->1 edges with weights in input order; a 0->0
        # edge sorts before them.
        edges = np.array([[0, 1], [1, 0], [0, 1], [0, 0], [0, 1]])
        graph, weights = from_edges(
            edges, payload=np.array([10, 20, 30, 40, 50])
        )
        assert graph.edge_array().tolist() == [
            [0, 0], [0, 1], [0, 1], [0, 1], [1, 0],
        ]
        assert weights.tolist() == [40, 10, 30, 50, 20]

    @settings(max_examples=80, deadline=None)
    @given(multigraphs(), st.booleans(), st.booleans())
    def test_matches_from_edges(self, graph, dedup, drop_self_loops):
        num_vertices, pairs = graph
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        built, payload = from_edges(
            edges, num_vertices=num_vertices, dedup=dedup,
            drop_self_loops=drop_self_loops,
            payload=np.arange(len(edges)),
        )
        expected = from_edges(edges, num_vertices=num_vertices, dedup=dedup,
                              drop_self_loops=drop_self_loops)
        assert np.array_equal(built.offsets, expected.offsets)
        assert np.array_equal(built.neighbors, expected.neighbors)
        # Each value still names its own edge, and parallel edges keep
        # input order (dedup keeps the first).
        assert np.array_equal(edges[payload], built.edge_array())
        key = edges[payload, 0] * num_vertices + edges[payload, 1]
        assert np.all((key[1:] > key[:-1])
                      | ((key[1:] == key[:-1]) & (payload[1:] > payload[:-1])))

    def test_vertex_count_past_neighbor_width_refused(self):
        with pytest.raises(WidthContractError, match="g.el"):
            from_edges([[0, 1]], num_vertices=(1 << 31) + 1,
                       payload=np.array([7]), where="g.el")

    def test_payload_length_checked(self):
        with pytest.raises(GraphFormatError, match="g.wel: payload has 1"):
            from_edges([[0, 1], [1, 0]], payload=np.array([7]),
                       where="g.wel")


class TestRangeErrorsNameTheInput:
    def test_negative_id(self):
        with pytest.raises(GraphFormatError,
                           match="^g.el: negative vertex ID"):
            from_edges([[-1, 2]], where="g.el")

    def test_id_past_vertex_count(self):
        with pytest.raises(GraphFormatError,
                           match="^g.el: vertex ID 7 exceeds num_vertices=3"):
            from_edges([[1, 7]], num_vertices=3, where="g.el")
