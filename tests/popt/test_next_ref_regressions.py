"""Regression tests for the next-ref engine fixes that rode along with
the replay kernels: variant-correct past-end sentinels, the true
vectorized Algorithm 2, policy state surviving ``reset()``, the
epoch-geometry and one-variant contracts, the compiled per-variant
decodes at their edge cases, and the CSR line-reference flattening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig
from repro.errors import PolicyError
from repro.graph import from_edges, uniform_random
from repro.memory import AddressSpace
from repro.popt import (
    POPT,
    TOPT,
    IrregularStream,
    PoptStream,
    build_line_reference_csr,
    build_line_references,
    build_rereference_matrix,
)
from repro.graph import datasets
from repro.sim import ReplayEngine, prepare_run
from repro.sim.driver import _build_popt_policy
from repro.sim.parallel import APP_FACTORIES

from .oracles import find_next_ref_vector

VARIANTS = ("inter_only", "inter_intra", "single_epoch")

#: distance-field width per variant (MSB flag and next-epoch bit carved
#: off the entry) — the past-end sentinel is all-ones in this field.
FIELD_BITS = {
    "inter_only": lambda bits: bits,
    "inter_intra": lambda bits: bits - 1,
    "single_epoch": lambda bits: bits - 2,
}


class TestPastEndSentinel:
    """Algorithm 2 past the last epoch must report the same "never
    referenced again" sentinel the builder writes into the matrix —
    derived from the variant's distance-field width, not a fixed mask."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("entry_bits", [4, 8])
    def test_sentinel_matches_field_width(self, variant, entry_bits):
        # Element 0 referenced once at vertex 0; element 1 never.
        graph = from_edges([(0, 0)], num_vertices=64)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=entry_bits, variant=variant
        )
        sentinel = (1 << FIELD_BITS[variant](entry_bits)) - 1
        past_end = matrix.num_epochs * matrix.epoch_size
        for line in range(2):
            assert matrix.find_next_ref(line, past_end) == sentinel
            assert matrix.find_next_ref(line, past_end + 100) == sentinel

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sentinel_matches_never_referenced_entry(self, variant):
        # The past-end return and the in-matrix never-referenced decode
        # must agree: both mean "no future reference".
        graph = from_edges([(0, 0)], num_vertices=64)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=8, variant=variant
        )
        last_vertex = matrix.num_epochs * matrix.epoch_size - 1
        never = matrix.find_next_ref(1, last_vertex)  # line 1: no refs
        assert matrix.find_next_ref(1, last_vertex + 1) == never

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_boundary_epoch_continuous(self, variant):
        # Crossing from the final in-range epoch to past-end must not
        # jump through an out-of-range mask value (the inter_only
        # regression: a 7-bit sentinel on an 8-bit raw entry).
        graph = from_edges([(0, 0)], num_vertices=64)
        matrix = build_rereference_matrix(
            graph, elems_per_line=1, entry_bits=8, variant=variant
        )
        sentinel = (1 << FIELD_BITS[variant](8)) - 1
        past_end = matrix.num_epochs * matrix.epoch_size
        for line in range(matrix.num_lines):
            assert matrix.find_next_ref(line, past_end) == sentinel
            within = matrix.find_next_ref(line, past_end - 1)
            assert 0 <= within <= sentinel


class TestVectorDecode:
    """The batched Algorithm 2 must agree with the scalar decode
    entry-for-entry across variants, widths, and epoch boundaries."""

    @given(
        seed=st.integers(0, 1_000),
        variant=st.sampled_from(VARIANTS),
        entry_bits=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar(self, seed, variant, entry_bits):
        graph = uniform_random(96, avg_degree=4.0, seed=seed)
        matrix = build_rereference_matrix(
            graph, elems_per_line=4, entry_bits=entry_bits, variant=variant
        )
        lines = np.arange(matrix.num_lines, dtype=np.int64)
        epoch = matrix.epoch_size
        probes = sorted({
            0, 1, epoch - 1, epoch, epoch + 1,
            (matrix.num_epochs // 2) * epoch,
            matrix.num_epochs * epoch - 1,   # last in-range vertex
            matrix.num_epochs * epoch,       # first past-end vertex
            matrix.num_epochs * epoch + 7,
        })
        for vertex in probes:
            if vertex < 0:
                continue
            got = find_next_ref_vector(matrix, lines, vertex)
            expected = [
                matrix.find_next_ref(int(line), vertex) for line in lines
            ]
            assert got.tolist() == expected, (variant, entry_bits, vertex)

    def test_returns_int64_array(self):
        graph = uniform_random(64, avg_degree=4.0, seed=0)
        matrix = build_rereference_matrix(graph, elems_per_line=4)
        out = find_next_ref_vector(matrix, [0, 1, 2], 0)
        assert out.dtype == np.int64
        assert out.shape == (3,)


def popt_for(graph, variant="inter_intra", entry_bits=8):
    space = AddressSpace()
    span = space.alloc("srcData", graph.num_vertices, 512, irregular=True)
    matrix = build_rereference_matrix(
        graph, elems_per_line=span.elems_per_line, entry_bits=entry_bits,
        variant=variant, num_lines=span.num_lines,
    )
    return POPT([PoptStream(span=span, matrix=matrix)])


class TestPolicyReuse:
    """bind()/reset() must not leak one replay's epoch position or
    engine-cost counters into the next: two runs of the same policy
    instance produce identical stats AND counters."""

    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_run(
            PageRank(), uniform_random(256, avg_degree=6.0, seed=9)
        )

    @pytest.fixture(scope="class")
    def hierarchy(self):
        return HierarchyConfig(
            l1=CacheConfig("L1", num_sets=2, num_ways=8),
            llc=CacheConfig("LLC", num_sets=4, num_ways=8),
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_popt_two_replays_identical(self, prepared, hierarchy, variant):
        graph = uniform_random(256, avg_degree=6.0, seed=9)
        policy = popt_for(graph, variant=variant)
        engine = ReplayEngine(prepared, hierarchy)
        first = engine.run(policy)
        first_counters = policy.counters
        second = engine.run(policy)
        llc_a, llc_b = first.levels[-1], second.levels[-1]
        assert (llc_a.hits, llc_a.misses, llc_a.evictions) == (
            llc_b.hits, llc_b.misses, llc_b.evictions
        )
        assert policy.counters == first_counters

    def test_popt_reset_clears_state(self):
        graph = uniform_random(128, avg_degree=4.0, seed=2)
        policy = popt_for(graph)
        policy._current_epoch = 17
        policy.counters.rm_lookups = 5
        policy.reset()
        assert policy._current_epoch == -1
        assert policy.counters.rm_lookups == 0
        assert policy.counters.epoch_transitions == 0

    def test_topt_two_replays_identical(self, prepared, hierarchy):
        graph = uniform_random(256, avg_degree=6.0, seed=9)
        policy = TOPT(prepared.irregular_streams, line_size=64)
        engine = ReplayEngine(prepared, hierarchy)
        first = engine.run(policy)
        first_stats = (policy.replacements, policy.transpose_walk_elements)
        second = engine.run(policy)
        llc_a, llc_b = first.levels[-1], second.levels[-1]
        assert (llc_a.hits, llc_a.misses) == (llc_b.hits, llc_b.misses)
        assert (
            policy.replacements, policy.transpose_walk_elements
        ) == first_stats

    def test_topt_reset_clears_counters(self, paper_example_graph):
        space = AddressSpace()
        span = space.alloc("srcData", 5, 512, irregular=True)
        policy = TOPT(
            [IrregularStream(span=span, reference_graph=paper_example_graph)]
        )
        policy.replacements = 3
        policy.transpose_walk_elements = 11
        policy.reset()
        assert policy.replacements == 0
        assert policy.transpose_walk_elements == 0


class TestEpochGeometryContract:
    def test_mismatched_epoch_sizes_raise(self):
        # entry_bits 8 vs 4 over 512 vertices give epoch sizes 2 vs 32.
        graph = uniform_random(512, avg_degree=4.0, seed=1)
        space = AddressSpace()
        a = space.alloc("a", 512, 512, irregular=True)
        b = space.alloc("b", 512, 512, irregular=True)
        wide = build_rereference_matrix(
            graph, elems_per_line=a.elems_per_line, entry_bits=8,
            num_lines=a.num_lines,
        )
        narrow = build_rereference_matrix(
            graph, elems_per_line=b.elems_per_line, entry_bits=4,
            num_lines=b.num_lines,
        )
        assert wide.epoch_size != narrow.epoch_size
        with pytest.raises(PolicyError, match="epoch geometry"):
            POPT([
                PoptStream(span=a, matrix=wide),
                PoptStream(span=b, matrix=narrow),
            ])

    def test_matching_epoch_sizes_accepted(self):
        graph = uniform_random(512, avg_degree=4.0, seed=1)
        space = AddressSpace()
        a = space.alloc("a", 512, 512, irregular=True)
        b = space.alloc("b", 512, 512, irregular=True)
        streams = []
        for span in (a, b):
            matrix = build_rereference_matrix(
                graph, elems_per_line=span.elems_per_line, entry_bits=8,
                num_lines=span.num_lines,
            )
            streams.append(PoptStream(span=span, matrix=matrix))
        policy = POPT(streams)
        assert policy._epoch_size == streams[0].matrix.epoch_size


    def test_mixed_variants_raise(self):
        # Same entry_bits, so the epoch geometry agrees; only the
        # encodings differ.
        graph = uniform_random(512, avg_degree=4.0, seed=1)
        space = AddressSpace()
        streams = []
        for name, variant in (("a", "inter_intra"), ("b", "single_epoch")):
            span = space.alloc(name, 512, 512, irregular=True)
            matrix = build_rereference_matrix(
                graph, elems_per_line=span.elems_per_line, entry_bits=8,
                variant=variant, num_lines=span.num_lines,
            )
            streams.append(PoptStream(span=span, matrix=matrix))
        assert streams[0].matrix.epoch_size == streams[1].matrix.epoch_size
        with pytest.raises(PolicyError, match="variant"):
            POPT(streams)


@pytest.mark.needs_ckernels
class TestCompiledDecodeEdges:
    """``k_popt`` compiles one Algorithm 2 decode per variant; each must
    match the generic engine where its selects matter most: 3-bit
    entries (8 epochs, so many scans fall in the last epoch, where
    inter_intra has no next column to read) and streaming ways ranked
    rather than evicted outright (``prefer_streaming_victims=False``),
    on one-stream (PR) and two-stream (Radii) runs."""

    @pytest.fixture(scope="class", params=["PR", "Radii"])
    def prepared(self, request):
        graph = datasets.load("KRON", scale="tiny", seed=42)
        return prepare_run(APP_FACTORIES[request.param](), graph)

    @pytest.mark.parametrize("prefer_streaming", [True, False])
    @pytest.mark.parametrize("entry_bits", [3, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_compiled_matches_generic(
        self, prepared, variant, entry_bits, prefer_streaming
    ):
        hierarchy = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=2, num_ways=4),
            llc=CacheConfig("LLC", num_sets=8, num_ways=8),
        )
        built, _ = _build_popt_policy(
            prepared, variant, entry_bits, hierarchy.line_size
        )
        runs = []
        for use_kernel in (True, False):
            policy = POPT(
                built.streams, line_size=hierarchy.line_size,
                prefer_streaming_victims=prefer_streaming,
                kernel_matrices=built.kernel_matrices,
            )
            run = ReplayEngine(prepared, hierarchy).run(
                policy, use_kernel=use_kernel
            )
            llc = run.levels[-1]
            runs.append((
                run.kernel,
                (llc.hits, llc.misses, llc.evictions, llc.writebacks),
                policy.counters,
            ))
        (kernel, compiled, counters), (none, generic, expected) = runs
        assert (kernel, none) == ("p-opt", None)
        assert compiled == generic
        assert counters == expected
        assert counters.replacements > 0
        if not prefer_streaming:
            assert counters.streaming_evictions == 0


class TestLineReferenceCSR:
    """The flattened (offsets, refs) pair is the same data the per-line
    list builder produces."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_list_builder(self, seed):
        graph = uniform_random(128, avg_degree=5.0, seed=seed)
        num_lines = 16
        lists = build_line_references(
            graph, elems_per_line=8, num_lines=num_lines
        )
        offsets, refs = build_line_reference_csr(
            graph, elems_per_line=8, num_lines=num_lines
        )
        assert offsets.dtype == np.int64 and refs.dtype == np.int64
        assert offsets.shape == (num_lines + 1,)
        assert offsets[0] == 0 and offsets[-1] == refs.size
        for line in range(num_lines):
            lo, hi = int(offsets[line]), int(offsets[line + 1])
            assert refs[lo:hi].tolist() == lists[line]

    def test_empty_and_sorted(self):
        graph = from_edges([(0, 3), (1, 3), (0, 1)], num_vertices=16)
        offsets, refs = build_line_reference_csr(
            graph, elems_per_line=2, num_lines=8
        )
        assert refs[offsets[0]:offsets[1]].tolist() == [1, 3]
        assert offsets[4] == offsets[5]  # unreferenced line is empty
        for line in range(8):
            seg = refs[offsets[line]:offsets[line + 1]]
            assert np.all(np.diff(seg) > 0) if seg.size > 1 else True
