"""Tests for the Rereference Matrix and Algorithm 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.graph import from_edges, uniform_random
from repro.popt import build_rereference_matrix, epoch_geometry


class TestEpochGeometry:
    def test_paper_default(self):
        # Section V-C: 8-bit quantization over numVertices vertices gives
        # EpochSize = ceil(numVertices/256), SubEpochSize = ceil(E/127).
        num_epochs, epoch_size, sub_epoch_size = epoch_geometry(
            33_550_000, 8
        )
        assert epoch_size == -(-33_550_000 // 256)
        assert sub_epoch_size == -(-epoch_size // 127)
        assert num_epochs == 256

    def test_small_graph_fewer_epochs(self):
        num_epochs, epoch_size, __ = epoch_geometry(5, 3)
        assert epoch_size == 1
        assert num_epochs == 5

    def test_se_has_coarser_subepochs(self):
        __, __, sub_default = epoch_geometry(100_000, 8, "inter_intra")
        __, __, sub_se = epoch_geometry(100_000, 8, "single_epoch")
        assert sub_se >= sub_default  # 63 vs 127 sub-epochs

    def test_validation(self):
        with pytest.raises(PolicyError):
            epoch_geometry(10, 8, "bogus")
        with pytest.raises(PolicyError):
            epoch_geometry(10, 2)
        with pytest.raises(PolicyError):
            epoch_geometry(10, 32)


@pytest.fixture
def paper_matrix(paper_example_graph):
    # One srcData element per line, 3-bit entries -> 1 vertex per epoch,
    # which makes every quantized distance exact.
    return build_rereference_matrix(
        paper_example_graph, elems_per_line=1, entry_bits=3
    )


class TestPaperExample:
    """Distances checked by hand against Fig. 5's epoch view."""

    def test_line0_distances(self, paper_matrix):
        # S0's out-neighbors are {2}: distances 2,1,0 then never (sentinel 3).
        assert [paper_matrix.find_next_ref(0, v) for v in range(5)] == [
            2, 1, 0, 3, 3,
        ]

    def test_line2_distances(self, paper_matrix):
        # S2's out-neighbors are {0, 1, 3}.
        assert [paper_matrix.find_next_ref(2, v) for v in range(5)] == [
            0, 0, 1, 0, 3,
        ]

    def test_geometry(self, paper_matrix):
        assert paper_matrix.num_lines == 5
        assert paper_matrix.num_epochs == 5
        assert paper_matrix.column_bytes() == 5
        assert paper_matrix.resident_columns() == 2
        assert paper_matrix.resident_bytes() == 10

    def test_scenario_b(self, paper_example_graph):
        # Fig. 3 scenario B: processing D1, S2's next ref (D3) is further
        # than S4's (D2)... at epoch granularity: S1 (not referenced in
        # epoch 1, next at D4) ranks above S2 (referenced in epoch 1).
        matrix = build_rereference_matrix(
            paper_example_graph, elems_per_line=1, entry_bits=3
        )
        s1 = matrix.find_next_ref(1, 1)
        s2 = matrix.find_next_ref(2, 1)
        assert s1 > s2


def brute_force_next_epoch_distance(graph, line, epoch, matrix):
    """Exact distance (in epochs) from `epoch` to the line's next
    referencing epoch, ignoring intra-epoch position."""
    epl = matrix.elems_per_line
    refs = set()
    for v in range(line * epl, min((line + 1) * epl, graph.num_vertices)):
        refs.update(int(d) // matrix.epoch_size
                    for d in graph.out_neighbors(v))
    future = [e for e in refs if e >= epoch]
    if not future:
        return None
    return min(future) - epoch


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_inter_only_distances_exact(self, seed):
        graph = uniform_random(64, avg_degree=4.0, seed=seed)
        matrix = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=6, variant="inter_only"
        )
        for line in range(matrix.num_lines):
            for epoch in range(matrix.num_epochs):
                expected = brute_force_next_epoch_distance(
                    graph, line, epoch, matrix
                )
                got = matrix.entries[line, epoch]
                sentinel = (1 << matrix.entry_bits) - 1
                if expected is None:
                    assert got == sentinel
                else:
                    assert got == min(expected, sentinel)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_inter_intra_msb_encodes_presence(self, seed):
        graph = uniform_random(64, avg_degree=4.0, seed=seed)
        matrix = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=8
        )
        msb = 1 << 7
        for line in range(matrix.num_lines):
            for epoch in range(matrix.num_epochs):
                expected = brute_force_next_epoch_distance(
                    graph, line, epoch, matrix
                )
                entry = int(matrix.entries[line, epoch])
                if expected == 0:
                    assert not entry & msb  # referenced this epoch
                else:
                    assert entry & msb

    @given(st.integers(0, 10_000), st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_find_next_ref_consistent_with_exact(self, seed, vertex):
        """Algorithm 2's answer is the exact distance whenever the exact
        distance is nonzero (intra-epoch loss only affects distance-0)."""
        graph = uniform_random(64, avg_degree=4.0, seed=seed)
        matrix = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=8
        )
        epoch = vertex // matrix.epoch_size
        for line in range(matrix.num_lines):
            exact = brute_force_next_epoch_distance(
                graph, line, epoch, matrix
            )
            got = matrix.find_next_ref(line, vertex)
            if exact is None:
                assert got >= matrix.num_epochs - epoch - 1 or got >= 127
            elif exact > 1:
                # No reference this epoch or next: Algorithm 2 must report
                # the exact inter-epoch distance.
                assert got == exact
            else:
                assert got <= max(exact, 1) + 127  # bounded by sentinel path


class TestIntraEpochTracking:
    def test_past_final_access_reports_next_epoch(self):
        # Element 0 referenced at vertices 0 and 8; with epoch size 1
        # those are epochs 0 and 8.
        graph = from_edges([(0, 0), (0, 8)], num_vertices=12)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=4
        )
        assert matrix.epoch_size == 1
        assert matrix.find_next_ref(0, 0) == 0
        # In epoch 1 there is no reference; distance to epoch 8 is 7.
        assert matrix.find_next_ref(0, 1) == 7
        assert matrix.find_next_ref(0, 7) == 1
        assert matrix.find_next_ref(0, 8) == 0

    def test_within_epoch_before_final_access(self):
        # Epoch covers vertices 0..15 (entry_bits=4 -> 16 epochs over 256
        # vertices); element referenced at vertices 3 and 12 -> while the
        # execution is before 12's sub-epoch, distance is 0.
        graph = from_edges([(0, 3), (0, 12), (0, 200)], num_vertices=256)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=4
        )
        assert matrix.epoch_size == 16
        assert matrix.find_next_ref(0, 0) == 0
        assert matrix.find_next_ref(0, 11) == 0

    def test_inter_only_cannot_see_final_access(self):
        # The Fig. 5 design's quantization loss: after the final access in
        # an epoch it still reports distance 0.
        graph = from_edges([(0, 0), (0, 200)], num_vertices=256)
        inter = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=4, variant="inter_only"
        )
        both = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=4, variant="inter_intra"
        )
        late_in_epoch0 = 15
        assert inter.find_next_ref(0, late_in_epoch0) == 0
        assert both.find_next_ref(0, late_in_epoch0) >= 1


class TestSingleEpochVariant:
    def test_one_resident_column(self):
        graph = uniform_random(128, avg_degree=4.0, seed=1)
        se = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=8, variant="single_epoch"
        )
        full = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=8
        )
        assert se.resident_columns() == 1
        assert full.resident_columns() == 2
        assert se.resident_bytes() == full.resident_bytes() // 2

    def test_next_epoch_bit(self):
        # Element referenced at vertices 0 and 1 with epoch size 1: in
        # epoch 0, past the final access, SE must know "accessed next
        # epoch" and return 1.
        graph = from_edges([(0, 0), (0, 1)], num_vertices=16)
        se = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=5, variant="single_epoch"
        )
        assert se.epoch_size == 1
        assert se.find_next_ref(0, 0) == 0
        assert se.find_next_ref(0, 1) == 0

    def test_distance_range_halved(self):
        __, __, sub = epoch_geometry(10_000, 8, "single_epoch")
        graph = from_edges([(0, 0)], num_vertices=10_000)
        se = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=8, variant="single_epoch"
        )
        # Distance field is 6 bits: sentinel 63, not 127.
        assert int(se.entries.max()) <= 255
        far = se.find_next_ref(0, 9_999)
        assert far <= 63


class TestEntryWidths:
    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_width_round_trip(self, bits):
        graph = uniform_random(256, avg_degree=4.0, seed=2)
        matrix = build_rereference_matrix(
            graph, elems_per_line=16, entry_bits=bits
        )
        assert matrix.entry_bytes == (1 if bits <= 8 else 2)
        assert matrix.entries.max() < (1 << bits)
        # Spot-check decode stays within the representable range.
        for vertex in (0, graph.num_vertices // 2, graph.num_vertices - 1):
            for line in range(0, matrix.num_lines, 5):
                distance = matrix.find_next_ref(line, vertex)
                assert 0 <= distance < (1 << bits)

    def test_column_bytes_scale_with_width(self):
        graph = uniform_random(256, avg_degree=4.0, seed=2)
        narrow = build_rereference_matrix(graph, 16, entry_bits=8)
        wide = build_rereference_matrix(graph, 16, entry_bits=16)
        assert wide.column_bytes() == 2 * narrow.column_bytes()

    def test_bad_elems_per_line(self):
        graph = uniform_random(16, avg_degree=2.0, seed=2)
        with pytest.raises(PolicyError):
            build_rereference_matrix(graph, 0)
