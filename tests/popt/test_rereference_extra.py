"""Additional Rereference Matrix coverage: storage fallback, vectorized
decode, geometry edge cases."""

import numpy as np

from repro.graph import from_edges, uniform_random
from repro.popt import build_rereference_matrix
from repro.popt.rereference import RereferenceMatrix

from .oracles import find_next_ref_vector


class TestStorageFallback:
    def test_large_matrix_uses_numpy_rows(self):
        """Matrices past the list-conversion threshold keep numpy storage
        and must decode identically."""
        graph = uniform_random(512, avg_degree=4.0, seed=1)
        matrix = build_rereference_matrix(graph, elems_per_line=4)
        # Force the numpy path on a copy and compare decodes.
        forced = RereferenceMatrix(
            entries=matrix.entries,
            variant=matrix.variant,
            entry_bits=matrix.entry_bits,
            epoch_size=matrix.epoch_size,
            sub_epoch_size=matrix.sub_epoch_size,
            elems_per_line=matrix.elems_per_line,
            num_vertices=matrix.num_vertices,
        )
        forced._rows = forced.entries  # numpy fallback representation
        for line in range(0, matrix.num_lines, 7):
            for vertex in range(0, graph.num_vertices, 97):
                assert matrix.find_next_ref(line, vertex) == int(
                    forced.find_next_ref(line, vertex)
                )

    def test_threshold_respected(self):
        graph = from_edges([(0, 1)], num_vertices=8)
        matrix = build_rereference_matrix(graph, elems_per_line=1)
        assert isinstance(matrix._rows, list)  # small -> python lists


class TestVectorizedDecode:
    def test_matches_scalar(self):
        graph = uniform_random(128, avg_degree=4.0, seed=2)
        matrix = build_rereference_matrix(graph, elems_per_line=4)
        lines = np.arange(matrix.num_lines)
        for vertex in (0, 31, 127):
            vector = find_next_ref_vector(matrix, lines, vertex)
            scalar = [
                matrix.find_next_ref(int(line), vertex) for line in lines
            ]
            assert vector.tolist() == scalar


class TestGeometryEdgeCases:
    def test_single_vertex_graph(self):
        graph = from_edges([], num_vertices=1)
        matrix = build_rereference_matrix(graph, elems_per_line=1)
        assert matrix.num_lines == 1
        # Never referenced: sentinel everywhere.
        sentinel = matrix.find_next_ref(0, 0)
        assert sentinel == (1 << (matrix.entry_bits - 1)) - 1

    def test_out_of_range_vertex(self):
        graph = from_edges([(0, 1)], num_vertices=4)
        matrix = build_rereference_matrix(graph, elems_per_line=1)
        # Vertices past the last epoch decode to the sentinel.
        assert matrix.find_next_ref(0, 10_000) == matrix._low_mask

    def test_dense_self_referencing(self):
        # Every vertex references every line in every epoch: distance 0
        # at every (line, vertex).
        edges = [(s, d) for s in range(8) for d in range(8) if s != d]
        graph = from_edges(edges, num_vertices=8)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=3
        )
        for line in range(8):
            for vertex in range(7):  # last epoch has no future ref
                if vertex == line:
                    # No self loops: element `line` is not referenced at
                    # its own iteration; next ref is one epoch away.
                    assert matrix.find_next_ref(line, vertex) == 1
                else:
                    assert matrix.find_next_ref(line, vertex) == 0

    def test_epoch_of(self):
        graph = from_edges([(0, 1)], num_vertices=1000)
        matrix = build_rereference_matrix(graph, elems_per_line=16)
        assert matrix.epoch_of(0) == 0
        assert (
            matrix.epoch_of(matrix.epoch_size) == 1
        )
