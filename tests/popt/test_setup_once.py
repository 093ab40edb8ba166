"""Replay setup for T-OPT/P-OPT: built once per prepared run, bit-identical.

The numeric routines behind the setup are checked against copies of the
straightforward loops they replaced (kept below as the specification):
the DRRIP fill draws, the Rereference Matrix entry encoding and the
per-line reference CSR. The blocked matrix builder is checked against
the dense int64 construction in ``oracles``. The per-run matrix memo
and the lazily built Python views are checked through the driver.
"""

import dataclasses
import random
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import scaled_hierarchy
from repro.errors import PolicyError, WidthContractError
from repro.graph import datasets
from repro.graph import from_edges, uniform_random
from repro.graph.csr import CSRGraph
from repro.popt import rereference
from repro.popt import topt
from repro.popt.policy import POPT, KernelMatrices, PoptStream
from repro.popt.rereference import (
    _encode_entries,
    build_rereference_matrix,
    epoch_geometry,
    update_rereference_matrix,
)
from repro.popt.topt import TOPT, build_line_reference_csr
from repro.sim import artifacts, kernels, parallel
from repro.sim.constants import (
    POPT_SPARAM_LAYOUT,
    rm_msb,
    rm_next_bit,
    rm_sentinel,
)
from repro.sim.driver import prepare_run, simulate_prepared
from repro.sim.engine import ReplayEngine
from repro.sim.kernels import _fill_draws
from repro.sim.parallel import APP_FACTORIES
from repro.sim.spec import ExperimentSpec, run_spec

from .oracles import build_rereference_matrix_dense, encode_entries_int64

# ----------------------------------------------------------------------
# Specifications: the replaced loops, verbatim in behaviour.
# ----------------------------------------------------------------------


def fill_draws_spec(seed, n):
    draw = random.Random(seed).random
    return np.fromiter((draw() for _ in range(n)), dtype=np.float64, count=n)


def encode_entries_spec(referenced, last_sub, entry_bits, variant):
    rows, num_epochs = referenced.shape
    sentinel = rm_sentinel(entry_bits, variant)
    next_epoch = np.full(rows, np.iinfo(np.int64).max // 2, np.int64)
    distance = np.empty((rows, num_epochs), dtype=np.int64)
    for epoch in range(num_epochs - 1, -1, -1):
        column_referenced = referenced[:, epoch]
        gap = np.minimum(next_epoch - epoch, sentinel)
        distance[:, epoch] = np.where(column_referenced, 0, gap)
        next_epoch = np.where(column_referenced, epoch, next_epoch)
    entries = np.empty((rows, num_epochs), dtype=np.int64)
    if variant == "inter_only":
        entries[:] = np.minimum(distance, sentinel)
    else:
        msb = rm_msb(entry_bits)
        clamped_sub = np.minimum(last_sub, sentinel)
        inter = msb | np.minimum(distance, sentinel)
        entries[:] = np.where(referenced, clamped_sub, inter)
        if variant == "single_epoch":
            next_bit = rm_next_bit(entry_bits, variant)
            accessed_next = np.zeros((rows, num_epochs), dtype=bool)
            accessed_next[:, :-1] = referenced[:, 1:]
            entries[:] = np.where(
                referenced & accessed_next, entries | next_bit, entries
            )
    return entries


def line_reference_csr_spec(reference_graph, elems_per_line, num_lines):
    n = reference_graph.num_vertices
    degrees = reference_graph.degrees()
    elems = np.repeat(np.arange(n, dtype=np.int64), degrees)
    lines = elems // elems_per_line
    outer = reference_graph.neighbors.astype(np.int64)
    order = np.lexsort((outer, lines))
    lines_sorted = lines[order]
    outer_sorted = outer[order]
    if lines_sorted.size:
        keep = np.empty(lines_sorted.size, dtype=bool)
        keep[0] = True
        np.logical_or(
            lines_sorted[1:] != lines_sorted[:-1],
            outer_sorted[1:] != outer_sorted[:-1],
            out=keep[1:],
        )
        lines_sorted = lines_sorted[keep]
        outer_sorted = outer_sorted[keep]
    offsets = np.searchsorted(
        lines_sorted, np.arange(num_lines + 1, dtype=np.int64),
        side="left",
    ).astype(np.int64)
    return offsets, np.ascontiguousarray(outer_sorted, dtype=np.int64)


# ----------------------------------------------------------------------
# Bit-identity of the rewritten routines
# ----------------------------------------------------------------------


class TestFillDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(-(2 ** 70), 2 ** 70),
        n=st.integers(0, 1400),
    )
    @example(seed=0, n=623)
    @example(seed=1, n=624)
    @example(seed=42, n=625)
    @example(seed=-5, n=1249)
    @example(seed=2 ** 40 + 7, n=1248)
    def test_matches_python_random(self, seed, n):
        got = _fill_draws(seed, n)
        assert got.dtype == np.float64
        assert np.array_equal(got, fill_draws_spec(seed, n))


@st.composite
def reference_events(draw):
    rows = draw(st.integers(0, 6))
    num_epochs = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    referenced = rng.random((rows, num_epochs)) < density
    if rows > 1:
        referenced[0] = False  # an all-unreferenced row
    last_sub = rng.integers(0, 1 << 17, (rows, num_epochs)) * referenced
    return referenced, last_sub


class TestEncodeEntries:
    @settings(max_examples=80, deadline=None)
    @given(
        events=reference_events(),
        entry_bits=st.sampled_from([3, 4, 8, 16]),
        variant=st.sampled_from(rereference.VARIANTS),
    )
    def test_matches_column_scan(self, events, entry_bits, variant):
        referenced, last_sub = events
        got = _encode_entries(referenced, last_sub, entry_bits, variant)
        want = encode_entries_spec(referenced, last_sub, entry_bits, variant)
        oracle = encode_entries_int64(
            referenced, last_sub, entry_bits, variant
        )
        assert got.dtype == np.int32
        assert oracle.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(oracle, want)

    @pytest.mark.parametrize("variant", rereference.VARIANTS)
    def test_one_epoch_and_unreferenced(self, variant):
        referenced = np.array([[False], [True]])
        last_sub = np.array([[0], [5]])
        got = _encode_entries(referenced, last_sub, 8, variant)
        want = encode_entries_spec(referenced, last_sub, 8, variant)
        assert np.array_equal(got, want)


def hub_graph(n, seed):
    """A reference graph over ``n`` elements where element 0 is touched
    by every outer vertex and the rest uniformly (skewed row events)."""
    rng = np.random.default_rng(seed)
    edges = [(0, outer) for outer in range(n)]
    edges += zip(rng.integers(0, n, 4 * n).tolist(),
                 rng.integers(0, n, 4 * n).tolist())
    return from_edges(edges, num_vertices=n)


class TestBlockedEncode:
    """The builder encodes a block of rows at a time, in int32, straight
    into the storage dtype: it must give the dense int64 construction's
    entries, wherever the block boundaries fall."""

    @pytest.mark.parametrize("block_rows", [1, 3, 7, None])
    @pytest.mark.parametrize("entry_bits", [3, 8, 16])
    @pytest.mark.parametrize("variant", rereference.VARIANTS)
    def test_build_matches_dense_oracle(
        self, monkeypatch, variant, entry_bits, block_rows
    ):
        for graph in (uniform_random(100, avg_degree=4.0, seed=3),
                      hub_graph(100, seed=4)):
            # 25 lines: blocks of 3 or 7 rows leave a short last block.
            num_epochs = epoch_geometry(100, entry_bits, variant)[0]
            if block_rows is not None:
                monkeypatch.setattr(
                    rereference, "ENCODE_BLOCK_BYTES",
                    4 * num_epochs * block_rows,
                )
            got = build_rereference_matrix(
                graph, elems_per_line=4, entry_bits=entry_bits,
                variant=variant,
            )
            want = build_rereference_matrix_dense(
                graph, 4, entry_bits, variant
            )
            assert got.entries.dtype == want.dtype
            assert np.array_equal(got.entries, want)

    def test_padding_lines_and_uncovered_elements(self):
        graph = uniform_random(100, avg_degree=4.0, seed=5)
        got = build_rereference_matrix(graph, elems_per_line=4, num_lines=30)
        want = build_rereference_matrix_dense(
            graph, 4, 8, "inter_intra", num_lines=30
        )
        assert np.array_equal(got.entries, want)
        with pytest.raises(PolicyError, match="num_lines"):
            build_rereference_matrix(graph, elems_per_line=4, num_lines=20)

    @pytest.mark.parametrize("entry_bits", [3, 8, 16])
    @pytest.mark.parametrize("variant", rereference.VARIANTS)
    def test_update_matches_dense_oracle(
        self, monkeypatch, variant, entry_bits
    ):
        before = hub_graph(100, seed=6)
        changed = np.array([5, 6, 41, 99])
        sources = np.repeat(np.arange(100), before.degrees())
        edges = list(zip(sources.tolist(), before.neighbors.tolist()))
        edges += [(int(elem), outer) for elem in changed
                  for outer in (2, 57, 98)]
        after = from_edges(edges, num_vertices=100)
        matrix = build_rereference_matrix(
            before, elems_per_line=4, entry_bits=entry_bits, variant=variant
        )
        num_epochs = matrix.num_epochs
        monkeypatch.setattr(
            rereference, "ENCODE_BLOCK_BYTES", 4 * num_epochs * 3
        )
        updated = update_rereference_matrix(matrix, after, changed)
        want = build_rereference_matrix_dense(after, 4, entry_bits, variant)
        assert np.array_equal(updated.entries, want)
        assert not np.array_equal(matrix.entries, want)


@st.composite
def reference_graphs(draw):
    n = draw(st.integers(0, 40))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if draw(st.booleans()):
        degrees = [0] * n  # zero-edge graph
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    total = int(offsets[-1])
    # Unsorted segments with repeats: the CSR builder must sort and
    # deduplicate per line whatever order the neighbors come in.
    neighbors = draw(
        st.lists(st.integers(0, max(n - 1, 0)), min_size=total,
                 max_size=total)
    )
    return CSRGraph(offsets=offsets, neighbors=np.array(neighbors, np.int64))


class TestLineReferenceCSR:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=reference_graphs(),
        elems_per_line=st.sampled_from([1, 16, 512]),
    )
    def test_matches_lexsort(self, graph, elems_per_line):
        num_lines = max(1, -(-graph.num_vertices // elems_per_line))
        got = build_line_reference_csr(graph, elems_per_line, num_lines)
        want = line_reference_csr_spec(graph, elems_per_line, num_lines)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype == np.int64
            assert np.array_equal(got_array, want_array)


# ----------------------------------------------------------------------
# One matrix per prepared run, and lazily built Python views
# ----------------------------------------------------------------------


@pytest.fixture
def count_builds(monkeypatch):
    """Count Rereference Matrix builds made through the driver."""
    calls = []
    original = rereference.build_rereference_matrix

    def counting(*args, **kwargs):
        calls.append(kwargs.get("variant"))
        return original(*args, **kwargs)

    monkeypatch.setattr(rereference, "build_rereference_matrix", counting)
    return calls


def tiny_prepared():
    graph = datasets.load("KRON", scale="tiny", seed=42)
    return prepare_run(APP_FACTORIES["PR"](), graph)


def with_llc(hierarchy, **changes):
    return dataclasses.replace(
        hierarchy, llc=dataclasses.replace(hierarchy.llc, **changes)
    )


class TestMatrixMemo:
    def test_three_llc_spec_builds_each_matrix_once(
        self, monkeypatch, count_builds
    ):
        monkeypatch.setattr(parallel, "_PREPARED_CACHE", OrderedDict())
        base = scaled_hierarchy("tiny").llc
        spec = ExperimentSpec(
            name="memo",
            graphs=("KRON",),
            policies=("P-OPT", "P-OPT-SE"),
            llc=tuple(
                (f"x{factor}", factor * base.num_sets, base.num_ways)
                for factor in (1, 2, 4)
            ),
            scale="tiny",
        )
        rows = run_spec(spec)
        (prepared,) = parallel._PREPARED_CACHE.values()
        streams = len(prepared.irregular_streams)
        assert len(count_builds) == 2 * streams
        assert sorted(set(count_builds)) == ["inter_intra", "single_epoch"]
        for (index, bits, variant), matrix in prepared.matrices.items():
            irregular = prepared.irregular_streams[index]
            fresh = build_rereference_matrix(
                irregular.reference_graph,
                elems_per_line=irregular.span.elems_per_line,
                entry_bits=bits,
                variant=variant,
                num_lines=irregular.span.num_lines,
            )
            assert np.array_equal(matrix.entries, fresh.entries)
        # Every row equals a replay on a freshly prepared run.
        tasks = spec.tasks()
        expected = []
        for task in tasks:
            hierarchy = parallel.task_hierarchy(task)
            for policy in task.policies:
                result = simulate_prepared(tiny_prepared(), policy, hierarchy)
                expected.append((result.llc.misses, result.cycles))
        assert [(r["llc_misses"], r["cycles"]) for r in rows] == expected

    def test_stored_matrix_past_its_width_raises(
        self, tmp_path, monkeypatch
    ):
        """A stored matrix whose entry does not fit entry_bits fails its
        constructor on load, on a plain (unsanitized) replay."""
        monkeypatch.setenv(artifacts.DIR_ENV, str(tmp_path / "arts"))
        monkeypatch.setattr(artifacts, "_STORES", {})
        hierarchy = scaled_hierarchy("tiny")
        simulate_prepared(tiny_prepared(), "P-OPT", hierarchy, entry_bits=4)
        stored = sorted(
            (tmp_path / "arts" / artifacts.KIND_MATRIX).rglob("entries.npy")
        )
        assert stored
        for path in stored:
            entries = np.load(path)
            entries[0, 0] = 1 << 4
            np.save(path, entries)
        with pytest.raises(WidthContractError) as info:
            simulate_prepared(
                tiny_prepared(), "P-OPT", hierarchy, entry_bits=4
            )
        assert info.value.contract == "rm.entries"
        assert info.value.value == 1 << 4

    def test_entry_bits_and_variant_are_separate_entries(self, count_builds):
        prepared = tiny_prepared()
        hierarchy = scaled_hierarchy("tiny")
        for bits in (8, 4, 8):
            simulate_prepared(prepared, "P-OPT", hierarchy, entry_bits=bits)
        simulate_prepared(prepared, "P-OPT-Inter", hierarchy)
        streams = len(prepared.irregular_streams)
        assert len(count_builds) == 3 * streams
        assert len(prepared.matrices) == 3 * streams


def _recording_kernel(monkeypatch, policy_type, record):
    """Swap ``policy_type``'s kernel for one that calls ``record(req)``
    after each replay."""
    name, kernel = kernels.KERNEL_TABLE[policy_type]

    def recording(req):
        stats = kernel(req)
        record(req)
        return stats

    table = dict(kernels.KERNEL_TABLE)
    table[policy_type] = (name, recording)
    monkeypatch.setattr(kernels, "KERNEL_TABLE", MappingProxyType(table))


class TestKernelInputMemo:
    """The next-ref kernels' inputs are built once per prepared run and
    shared, read-only, by every LLC point."""

    @pytest.mark.needs_ckernels
    def test_llc_points_share_one_kernel_form(self, monkeypatch):
        seen = []
        _recording_kernel(monkeypatch, POPT, lambda req: seen.append(
            (req.policy.kernel_matrices, req.policy.kernel_matrices.entries)
        ))
        prepared = tiny_prepared()
        hierarchy = scaled_hierarchy("tiny")
        for factor in (1, 2):
            result = simulate_prepared(prepared, "P-OPT", with_llc(
                hierarchy, num_sets=factor * hierarchy.llc.num_sets
            ))
            assert result.details["engine"]["kernel"] == "p-opt"
        (first, first_entries), (second, second_entries) = seen
        assert first is second
        assert first is prepared.kernel_matrices[(8, "inter_intra")]
        assert first_entries is second_entries
        for array in (first.entries, first.sparams):
            assert not array.flags.writeable

    @pytest.mark.needs_ckernels
    def test_llc_points_share_one_reference_pair(self, monkeypatch):
        seen = []
        _recording_kernel(
            monkeypatch, TOPT, lambda req: seen.append(req.policy._refs_arr)
        )
        calls = []
        original = topt.build_line_reference_csr

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(topt, "build_line_reference_csr", counting)
        prepared = tiny_prepared()
        hierarchy = scaled_hierarchy("tiny")
        for factor in (1, 2, 4):
            result = simulate_prepared(prepared, "T-OPT", with_llc(
                hierarchy, num_sets=factor * hierarchy.llc.num_sets
            ))
            assert result.details["engine"]["kernel"] == "t-opt"
        assert len(calls) == len(prepared.irregular_streams)
        assert len(seen) == 3
        assert all(refs is prepared.line_references[1] for refs in seen)
        assert prepared.line_references[1].dtype == np.int32
        for array in prepared.line_references:
            assert not array.flags.writeable

    @pytest.mark.parametrize("entry_bits", [4, 16])
    def test_kernel_form_is_the_epoch_major_matrices(self, entry_bits):
        prepared = tiny_prepared()
        simulate_prepared(
            prepared, "P-OPT-SE", scaled_hierarchy("tiny"),
            entry_bits=entry_bits,
        )
        form = prepared.kernel_matrices[(entry_bits, "single_epoch")]
        assert form.entries.dtype == np.uint16
        for base, matrix in zip(form.bases, form.matrices):
            lines, epochs = matrix.entries.shape
            block = form.entries[base:base + matrix.entries.size]
            assert np.array_equal(
                block.reshape(epochs, lines), matrix.entries.T
            )
        slots = len(POPT_SPARAM_LAYOUT)
        for index, matrix in enumerate(form.matrices):
            block = dict(zip(
                POPT_SPARAM_LAYOUT,
                form.sparams[index * slots:(index + 1) * slots].tolist(),
            ))
            assert block["stride"] == matrix.num_lines
            assert block["num_epochs"] == matrix.num_epochs
            assert block["epoch_size"] == matrix.epoch_size

    def test_mismatched_inputs_are_refused(self):
        prepared = tiny_prepared()
        policy = _popt_policy(prepared)
        other = KernelMatrices([
            dataclasses.replace(stream.matrix) for stream in policy.streams
        ])
        with pytest.raises(PolicyError, match="kernel_matrices"):
            POPT(policy.streams, kernel_matrices=other)
        offsets, refs = topt.build_stream_references(
            prepared.irregular_streams
        )
        with pytest.raises(PolicyError, match="offsets"):
            TOPT(prepared.irregular_streams, references=(offsets[1:], refs))


def _engine_run(prepared, policy, use_kernel):
    return ReplayEngine(prepared, scaled_hierarchy("tiny")).run(
        policy, use_kernel=use_kernel
    )


def _popt_policy(prepared):
    simulate_prepared(prepared, "P-OPT", scaled_hierarchy("tiny"))
    streams = [
        PoptStream(span=irregular.span, matrix=prepared.matrices[
            (index, 8, "inter_intra")
        ])
        for index, irregular in enumerate(prepared.irregular_streams)
    ]
    return POPT(streams)


@pytest.mark.needs_ckernels
class TestLazyViews:
    def test_compiled_replay_builds_no_python_views(self):
        prepared = tiny_prepared()
        topt = TOPT(prepared.irregular_streams)
        popt = _popt_policy(prepared)
        assert _engine_run(prepared, topt, True).kernel == "t-opt"
        assert _engine_run(prepared, popt, True).kernel == "p-opt"
        # The generic-path lookup tables and row/ref lists are never
        # needed by a kernel.
        assert "_line_table" not in vars(topt)
        assert "_line_table" not in vars(popt)
        assert "_refs" not in vars(topt)
        for matrix in prepared.matrices.values():
            assert "_rows" not in vars(matrix)

    def test_generic_replay_builds_views_and_matches(self):
        prepared = tiny_prepared()
        makers = {
            "T-OPT": lambda: TOPT(prepared.irregular_streams),
            "P-OPT": lambda: _popt_policy(prepared),
        }
        for name, make in makers.items():
            kernel_policy, generic_policy = make(), make()
            kernel = _engine_run(prepared, kernel_policy, True)
            generic = _engine_run(prepared, generic_policy, False)
            assert kernel.kernel is not None and generic.kernel is None
            assert "_line_table" in vars(generic_policy), name
            if name == "T-OPT":
                assert "_refs" in vars(generic_policy)
            assert [vars(s) for s in kernel.levels] == [
                vars(s) for s in generic.levels
            ], name
        for matrix in prepared.matrices.values():
            assert "_rows" in vars(matrix)

    def test_generic_engine_matches_fast(self):
        prepared = tiny_prepared()
        hierarchy = scaled_hierarchy("tiny")
        for policy in ("T-OPT", "P-OPT", "P-OPT-Inter", "P-OPT-SE"):
            fast = simulate_prepared(prepared, policy, hierarchy)
            generic = simulate_prepared(
                prepared, policy, hierarchy, engine="generic"
            )
            assert fast.level_counts == generic.level_counts
            assert fast.cycles == generic.cycles
            assert fast.popt_counters == generic.popt_counters
