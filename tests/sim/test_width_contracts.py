"""Width contracts are checked where values are narrowed, on every run.

Each ``WIDTH_CONTRACTS`` entry is enforced twice: by
:func:`repro.sim.constants.narrow` at every cast into narrow storage,
and by the constructor of the type that carries the value
(``CSRGraph``, ``RereferenceMatrix``, ``PreparedRun``). The cases below
feed each one a value one past its bound, and the value just inside.
"""

import pickle

import numpy as np
import pytest

from repro.apps import PageRank
from repro.apps.base import PreparedRun
from repro.cache import scaled_hierarchy
from repro.errors import WidthContractError
from repro.graph import csr, from_edges, io, uniform_random
from repro.graph.csr import CSRGraph
from repro.popt import rereference
from repro.popt.rereference import (
    RereferenceMatrix,
    build_rereference_matrix,
    update_rereference_matrix,
)
from repro.sim import prepare_run, simulate_prepared
from repro.sim.constants import (
    POPT_STREAMING_NEXT_REF,
    WIDTH_CONTRACTS,
    narrow,
)


def tiny_graph():
    return uniform_random(128, avg_degree=4.0, seed=11)


def shrink(monkeypatch, contract, max_bits):
    """Lower a contract's width so a tiny input reaches its bound."""
    monkeypatch.setitem(
        WIDTH_CONTRACTS, contract,
        dict(WIDTH_CONTRACTS[contract], max_bits=max_bits),
    )


def with_entries(matrix, entries):
    return RereferenceMatrix(
        entries=entries,
        variant=matrix.variant,
        entry_bits=matrix.entry_bits,
        epoch_size=matrix.epoch_size,
        sub_epoch_size=matrix.sub_epoch_size,
        elems_per_line=matrix.elems_per_line,
        num_vertices=matrix.num_vertices,
    )


class TestWidthContractRegistry:
    def test_schema(self):
        for name, spec in WIDTH_CONTRACTS.items():
            assert isinstance(spec["dtype"], tuple), name
            assert spec["dtype"], name
            assert isinstance(spec["max_bits"], int), name
            assert spec["holds"], name
            assert set(spec) == {"dtype", "max_bits", "holds"}, name


class TestNarrow:
    def test_in_range_values_are_cast(self):
        out = narrow(np.array([0, 5, (1 << 31) - 1]), "csr.neighbors", "t")
        assert out.dtype == np.int32
        assert out.tolist() == [0, 5, (1 << 31) - 1]

    def test_fitting_dtype_is_passed_through(self):
        values = np.arange(4, dtype=np.int32)
        assert narrow(values, "csr.neighbors", "t") is values

    def test_errors_name_the_contract_value_and_site(self):
        with pytest.raises(WidthContractError) as info:
            narrow(np.array([3, 1 << 31]), "csr.neighbors", "edges.el")
        error = info.value
        assert (error.contract, error.value, error.where) == (
            "csr.neighbors", 1 << 31, "edges.el"
        )
        assert str(error).startswith("edges.el: csr.neighbors value ")
        assert str(1 << 31) in str(error)

    def test_reports_the_low_offender(self):
        with pytest.raises(WidthContractError) as info:
            narrow(np.array([-(1 << 31) - 1, 0]), "csr.neighbors", "t")
        assert info.value.value == -(1 << 31) - 1

    def test_live_bits_pick_the_storage(self):
        assert narrow(np.array([255]), "rm.entries", "t", bits=8).dtype \
            == np.uint8
        assert narrow(np.array([256]), "rm.entries", "t", bits=9).dtype \
            == np.uint16
        with pytest.raises(WidthContractError, match="value 16 "):
            narrow(np.array([16]), "rm.entries", "t", bits=4)

    def test_bits_past_the_ceiling_raise(self):
        with pytest.raises(WidthContractError, match="width 17"):
            narrow(np.array([0]), "rm.entries", "t", bits=17)

    def test_error_survives_a_worker_round_trip(self):
        error = WidthContractError("csr.neighbors", 7, "x.npz", "int32")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.contract == "csr.neighbors"


class TestRereferenceMatrixWidths:
    def test_healthy_matrix_passes(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        assert matrix.entries.dtype == np.uint8
        assert matrix.num_epochs <= 1 << 8
        with_entries(matrix, matrix.entries)  # reconstructs cleanly

    def test_entry_exceeding_encoding_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=4
        )
        entries = matrix.entries.copy()
        entries[0, 0] = 1 << 4  # one past the ceiling
        with pytest.raises(WidthContractError, match=r"rm\.entries value 16 "):
            with_entries(matrix, entries)

    def test_wrong_storage_dtype_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        with pytest.raises(WidthContractError, match="storage dtype uint16"):
            with_entries(matrix, matrix.entries.astype(np.uint16))

    def test_too_many_epochs_fail(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=4
        )
        wide = np.zeros((matrix.num_lines, (1 << 4) + 1), dtype=np.uint8)
        with pytest.raises(WidthContractError, match=r"rm\.epoch_index"):
            with_entries(matrix, wide)

    def test_update_stays_in_encoding(self):
        graph = tiny_graph().transpose()
        matrix = build_rereference_matrix(
            graph, elems_per_line=16, entry_bits=4
        )
        updated = update_rereference_matrix(matrix, graph, np.arange(40))
        assert updated.entries.dtype == np.uint8
        assert int(updated.entries.max()) < 1 << 4


class TestCSRGraphWidths:
    def test_healthy_graph_passes(self):
        graph = tiny_graph()
        assert graph.neighbors.dtype == np.int32
        assert graph.offsets.dtype == np.int64

    def test_neighbor_past_int32_fails(self):
        """An int64 neighbor of 2^32 used to wrap to 0 and load."""
        with pytest.raises(WidthContractError) as info:
            CSRGraph(offsets=np.array([0, 1]), neighbors=np.array([2**32]))
        assert info.value.contract == "csr.neighbors"
        assert info.value.value == 2**32

    def test_offset_past_its_range_fails(self):
        offsets = np.array([0, 1 << 63], dtype=np.uint64)
        with pytest.raises(WidthContractError, match=r"csr\.offsets"):
            CSRGraph(offsets=offsets, neighbors=np.array([0]))

    def test_vertex_count_at_topt_never_fails(self, monkeypatch):
        monkeypatch.setattr(csr, "TOPT_NEVER", 4)
        CSRGraph(offsets=np.zeros(4, dtype=np.int64), neighbors=[])
        with pytest.raises(WidthContractError, match="TOPT_NEVER"):
            CSRGraph(offsets=np.zeros(5, dtype=np.int64), neighbors=[])


class TestNarrowingSites:
    def test_validate_csr_arrays_rejects_the_wrap(self):
        with pytest.raises(WidthContractError, match="^x.npz: "):
            io.validate_csr_arrays(
                np.array([0, 1]), np.array([2**32], dtype=np.int64),
                where="x.npz",
            )

    def test_npz_loader_names_the_file(self, tmp_path):
        path = tmp_path / "wide.npz"
        np.savez(
            path, offsets=np.array([0, 1], dtype=np.int64),
            neighbors=np.array([2**32], dtype=np.int64),
        )
        with pytest.raises(WidthContractError) as info:
            io.load_graph(path)
        assert info.value.where == str(path)
        assert str(path) in str(info.value)
        assert info.value.value == 2**32

    def test_from_edges_narrows(self, monkeypatch):
        shrink(monkeypatch, "csr.neighbors", 4)
        from_edges([(0, 15)], num_vertices=16)
        with pytest.raises(WidthContractError, match="^from_edges: "):
            from_edges([(0, 16)], num_vertices=17)

    def test_text_loader_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "edges.el"
        path.write_text("0 1\n1 16\n")
        shrink(monkeypatch, "csr.neighbors", 4)
        with pytest.raises(WidthContractError) as info:
            io.load_edge_list(path)
        assert info.value.where == str(path)
        assert info.value.value == 16

    def test_trace_vertices_narrow(self, monkeypatch):
        graph = from_edges([(v, 0) for v in range(20)], num_vertices=20)
        shrink(monkeypatch, "trace.vertex", 4)
        with pytest.raises(WidthContractError, match="traversal_trace"):
            prepare_run(PageRank(), graph)


class _Sized:
    """A stand-in trace: only its length matters to PreparedRun."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length


def prepared_of_length(length):
    return PreparedRun(
        app_name="PR", layout=None, trace=_Sized(length),
        irregular_streams=[],
    )


class TestPreparedRunWidths:
    def test_trace_at_streaming_sentinel_fails(self):
        """The exact boundary: a trace of length 2^30 would make a real
        next-use index collide with POPT_STREAMING_NEXT_REF."""
        with pytest.raises(WidthContractError, match=r"trace\.next_use"):
            prepared_of_length(POPT_STREAMING_NEXT_REF)

    def test_trace_just_under_the_sentinel_passes(self):
        prepared = prepared_of_length(POPT_STREAMING_NEXT_REF - 1)
        assert prepared.num_accesses == POPT_STREAMING_NEXT_REF - 1

    def test_real_run_constructs(self, prepared_run):
        assert 0 < prepared_run.num_accesses < POPT_STREAMING_NEXT_REF


@pytest.fixture(scope="module")
def prepared_run():
    return prepare_run(PageRank(), uniform_random(256, avg_degree=5.0,
                                                  seed=3))


class TestReplayWidths:
    def test_rows_carry_no_width_report(self, prepared_run):
        hierarchy = scaled_hierarchy("tiny")
        for sanitize in (False, True):
            result = simulate_prepared(
                prepared_run, "P-OPT", hierarchy, sanitize=sanitize
            )
            assert "width_contracts" not in result.details
        assert "sanitizer" in result.details

    def test_unsanitized_replay_checks_widths(self, monkeypatch):
        """A plain replay, without sanitize, still refuses an encoded
        entry past entry_bits where the matrix is built."""
        encode = rereference._encode_entries

        def overflowing(referenced, last_sub, entry_bits, variant):
            entries = encode(referenced, last_sub, entry_bits, variant)
            entries = entries.astype(np.int64)
            entries[0, 0] = 1 << entry_bits
            return entries

        monkeypatch.setattr(rereference, "_encode_entries", overflowing)
        prepared = prepare_run(PageRank(), tiny_graph())
        with pytest.raises(WidthContractError) as info:
            simulate_prepared(prepared, "P-OPT", scaled_hierarchy("tiny"))
        assert info.value.contract == "rm.entries"
        assert info.value.value == 1 << 8
        assert info.value.where == "build_rereference_matrix"

    def test_sanitized_bit_identical_to_unsanitized(self, prepared_run):
        hierarchy = scaled_hierarchy("tiny")
        for name in ("LRU", "P-OPT"):
            clean = simulate_prepared(prepared_run, name, hierarchy)
            sane = simulate_prepared(
                prepared_run, name, hierarchy, sanitize=True
            )
            assert clean.levels == sane.levels, name
            assert clean.cycles == sane.cycles, name
