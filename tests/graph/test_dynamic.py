"""Dynamic-graph deltas and the incremental Rereference-Matrix update.

The load-bearing property: `update_rereference_matrix` over only the
delta-touched rows must be bit-identical to a full
`build_rereference_matrix` over the post-delta graph, for every variant
and entry width — that is what lets a dynamic-mode simulation skip the
full preprocessing tax between epochs.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError, PolicyError
from repro.graph import (
    EdgeDelta,
    apply_delta,
    from_edges,
    generators,
    random_delta,
)
from repro.popt.rereference import (
    build_rereference_matrix,
    update_rereference_matrix,
)


def small_graph():
    return generators.uniform_random(512, avg_degree=6.0, seed=11)


class TestEdgeDelta:
    def test_touched_endpoints(self):
        delta = EdgeDelta(
            insertions=[[1, 2], [3, 4]], deletions=[[5, 2]]
        )
        assert delta.touched_sources().tolist() == [1, 3, 5]
        assert delta.touched_destinations().tolist() == [2, 4]
        assert delta.size == 3

    def test_empty_delta(self):
        delta = EdgeDelta()
        assert delta.size == 0
        assert delta.touched_sources().tolist() == []

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError, match="insertions"):
            EdgeDelta(insertions=[[1, 2, 3]])

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            EdgeDelta(deletions=[[-1, 2]])


class TestApplyDelta:
    def test_matches_edge_list_reconstruction(self):
        graph = small_graph()
        delta = random_delta(graph, 25, 25, seed=3)
        updated = apply_delta(graph, delta)
        # Reference semantics: drop deleted pairs, append insertions.
        edges = graph.edge_array().astype(np.int64)
        keys = edges[:, 0] * graph.num_vertices + edges[:, 1]
        del_keys = (
            delta.deletions[:, 0] * graph.num_vertices
            + delta.deletions[:, 1]
        )
        kept = edges[~np.isin(keys, del_keys)]
        expected = from_edges(
            np.vstack([kept, delta.insertions]),
            num_vertices=graph.num_vertices,
        )
        assert np.array_equal(updated.offsets, expected.offsets)
        assert np.array_equal(updated.neighbors, expected.neighbors)

    def test_strict_missing_deletion_raises(self):
        graph = from_edges([[0, 1]], num_vertices=3)
        delta = EdgeDelta(deletions=[[2, 0]])
        with pytest.raises(GraphFormatError, match="cannot delete"):
            apply_delta(graph, delta)
        relaxed = apply_delta(graph, delta, strict=False)
        assert relaxed.num_edges == 1

    def test_deletion_removes_parallel_copies(self):
        graph = from_edges([[0, 1], [0, 1], [1, 0]], num_vertices=2)
        updated = apply_delta(graph, EdgeDelta(deletions=[[0, 1]]))
        assert updated.edge_array().tolist() == [[1, 0]]

    def test_delete_then_reinsert(self):
        graph = from_edges([[0, 1]], num_vertices=2)
        delta = EdgeDelta(insertions=[[0, 1]], deletions=[[0, 1]])
        assert apply_delta(graph, delta).edge_array().tolist() == [[0, 1]]

    def test_out_of_range_endpoint_raises(self):
        graph = from_edges([[0, 1]], num_vertices=2)
        with pytest.raises(GraphFormatError, match="outside graph"):
            apply_delta(graph, EdgeDelta(insertions=[[0, 5]]))


class TestDynamicGraph:
    def test_random_delta_deterministic(self):
        graph = small_graph()
        first = random_delta(graph, 10, 10, seed=9)
        second = random_delta(graph, 10, 10, seed=9)
        assert np.array_equal(first.insertions, second.insertions)
        assert np.array_equal(first.deletions, second.deletions)
        other = random_delta(graph, 10, 10, seed=10)
        assert not np.array_equal(other.insertions, first.insertions)

    def test_random_delta_rows_pinned(self):
        # Deletions index the distinct edges in (src, dst) order, so
        # the packed-key dedup must reproduce the row-wise one exactly.
        delta = random_delta(small_graph(), 3, 4, seed=9)
        assert delta.insertions.tolist() == [
            [398, 329], [366, 468], [468, 474],
        ]
        assert delta.deletions.tolist() == [
            [147, 233], [490, 294], [443, 52], [216, 35],
        ]

    def test_random_delta_strictly_applicable(self):
        graph = small_graph()
        delta = random_delta(graph, 0, 40, seed=5)
        assert len(np.unique(delta.deletions, axis=0)) == 40
        apply_delta(graph, delta)  # must not raise under strict

    def test_random_delta_avoids_self_loops(self):
        graph = small_graph()
        delta = random_delta(graph, 200, 0, seed=6)
        assert np.all(delta.insertions[:, 0] != delta.insertions[:, 1])


class TestIncrementalRereference:
    @pytest.mark.parametrize(
        "variant", ["inter_only", "inter_intra", "single_epoch"]
    )
    @pytest.mark.parametrize("entry_bits", [4, 8])
    def test_bit_identical_to_rebuild(self, variant, entry_bits):
        graph = small_graph()
        # Pull-kernel orientation: the matrix is built over the
        # transpose, so the rows a delta dirties are its destinations.
        matrix = build_rereference_matrix(
            graph.transpose(), elems_per_line=8,
            entry_bits=entry_bits, variant=variant,
        )
        delta = random_delta(graph, 15, 15, seed=21)
        updated_graph = apply_delta(graph, delta)
        new_reference = updated_graph.transpose()
        rebuilt = build_rereference_matrix(
            new_reference, elems_per_line=8,
            entry_bits=entry_bits, variant=variant,
        )
        incremental = update_rereference_matrix(
            matrix, new_reference, delta.touched_destinations()
        )
        assert np.array_equal(incremental.entries, rebuilt.entries)
        assert incremental.entries.dtype == rebuilt.entries.dtype

    def test_graph_oriented_rows_are_sources(self):
        graph = small_graph()
        matrix = build_rereference_matrix(graph, elems_per_line=8)
        delta = random_delta(graph, 10, 10, seed=8)
        updated_graph = apply_delta(graph, delta)
        rebuilt = build_rereference_matrix(updated_graph, elems_per_line=8)
        incremental = update_rereference_matrix(
            matrix, updated_graph, delta.touched_sources()
        )
        assert np.array_equal(incremental.entries, rebuilt.entries)

    def test_empty_change_set_is_identity(self):
        graph = small_graph()
        matrix = build_rereference_matrix(graph, elems_per_line=8)
        result = update_rereference_matrix(
            matrix, graph, np.empty(0, dtype=np.int64)
        )
        assert result is matrix

    def test_vertex_count_mismatch_rejected(self):
        graph = small_graph()
        matrix = build_rereference_matrix(graph, elems_per_line=8)
        other = generators.uniform_random(128, avg_degree=4.0, seed=1)
        with pytest.raises(PolicyError, match="vertex"):
            update_rereference_matrix(matrix, other, np.array([0]))

    def test_out_of_range_element_rejected(self):
        graph = small_graph()
        matrix = build_rereference_matrix(graph, elems_per_line=8)
        with pytest.raises(PolicyError, match="vertex range"):
            update_rereference_matrix(
                matrix, graph, np.array([graph.num_vertices])
            )

    def test_readonly_entries_supported(self):
        # Matrices rehydrated from the artifact store are read-only
        # mmaps; the update must copy, not mutate in place.
        graph = small_graph()
        matrix = build_rereference_matrix(graph, elems_per_line=8)
        matrix.entries.setflags(write=False)
        delta = random_delta(graph, 5, 5, seed=2)
        updated_graph = apply_delta(graph, delta)
        incremental = update_rereference_matrix(
            matrix, updated_graph, delta.touched_sources()
        )
        rebuilt = build_rereference_matrix(updated_graph, elems_per_line=8)
        assert np.array_equal(incremental.entries, rebuilt.entries)


class TestDynamicSimulationSmoke:
    def test_epochs_drive_simulation(self):
        # One full dynamic-mode loop: simulate, mutate, re-simulate —
        # proving post-delta graphs plug into the normal path.
        from repro.apps import PageRank
        from repro.cache import scaled_hierarchy
        from repro.sim import prepare_run, simulate_prepared

        graph = generators.uniform_random(1024, avg_degree=4.0, seed=4)
        hierarchy = scaled_hierarchy("tiny")
        miss_rates = []
        for seed in (1, 2):
            prepared = prepare_run(PageRank(), graph)
            result = simulate_prepared(prepared, "LRU", hierarchy)
            miss_rates.append(result.llc_miss_rate)
            graph = apply_delta(graph, random_delta(graph, 50, 50, seed=seed))
        assert len(miss_rates) == 2
        assert all(0.0 <= rate <= 1.0 for rate in miss_rates)
