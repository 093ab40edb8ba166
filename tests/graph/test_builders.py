"""The packed-key CSR builders against a row-wise reference.

`from_edges` and `from_edges_chunked` sort and deduplicate edges on one
int64 key ``src * num_vertices + dst``. These tests pin that the result
equals the row-wise ``np.unique(axis=0)`` + ``np.lexsort`` build it
replaced, that a payload keeps its edge attachment, and that a vertex
count whose key could wrap int64 is refused before anything is sized by
it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WidthContractError
from repro.graph import from_edges, from_edges_chunked
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


class TestFromEdgesChunked:
    def test_payload_keeps_parallel_edge_order(self):
        # Three parallel 0->1 edges split across chunks, with weights
        # in stream order; a 0->0 edge sorts before them.
        chunks = [
            (np.array([[0, 1], [1, 0], [0, 1]]), np.array([10, 20, 30])),
            (np.array([[0, 0], [0, 1]]), np.array([40, 50])),
        ]
        graph, weights = from_edges_chunked(
            lambda: iter(chunks), with_payload=True
        )
        assert graph.edge_array().tolist() == [
            [0, 0], [0, 1], [0, 1], [0, 1], [1, 0],
        ]
        assert weights.tolist() == [40, 10, 30, 50, 20]

    @settings(max_examples=80, deadline=None)
    @given(multigraphs(), st.integers(min_value=1, max_value=7))
    def test_matches_from_edges(self, graph, chunk):
        num_vertices, pairs = graph
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        weights = np.arange(len(edges), dtype=np.int64)

        def chunks():
            for start in range(0, len(edges), chunk):
                yield edges[start:start + chunk], weights[start:start + chunk]

        built, payload = from_edges_chunked(
            chunks, num_vertices=num_vertices, with_payload=True
        )
        expected = from_edges(edges, num_vertices=num_vertices)
        assert np.array_equal(built.offsets, expected.offsets)
        assert np.array_equal(built.neighbors, expected.neighbors)
        # Each weight still names its own edge.
        assert np.array_equal(edges[payload], built.edge_array())

    def test_vertex_count_past_neighbor_width_refused(self):
        with pytest.raises(WidthContractError, match="g.el"):
            from_edges_chunked(
                lambda: iter([np.array([[0, 1]])]),
                num_vertices=(1 << 31) + 1, where="g.el",
            )
