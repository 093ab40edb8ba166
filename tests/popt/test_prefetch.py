"""Tests for the prefetching package (baselines + transpose-driven)."""

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cache import (
    AccessContext,
    CacheConfig,
    CacheHierarchy,
    HierarchyConfig,
    scaled_hierarchy,
)
from repro.graph import uniform_random
from repro.memory.trace import MemoryTrace
from repro.policies import DRRIP, LRU
from repro.prefetch import (
    IndirectPrefetcher,
    NextLinePrefetcher,
    PrefetchStats,
    StridePrefetcher,
    TransposePrefetcher,
    replay_with_prefetcher,
)
from repro.sim import prepare_run


def make_trace(lines, pcs=None, vertices=None):
    n = len(lines)
    return MemoryTrace(
        addresses=np.asarray(lines, np.int64) * 64,
        pcs=np.asarray(pcs if pcs else [1] * n, np.uint8),
        writes=np.zeros(n, bool),
        vertices=np.asarray(vertices if vertices else [0] * n, np.int32),
    )


def llc_only():
    return CacheHierarchy(
        HierarchyConfig(llc=CacheConfig("LLC", num_sets=4, num_ways=4)),
        LRU(),
    )


class TestStats:
    def test_accuracy(self):
        stats = PrefetchStats(issued=10, useful=6, useless=4)
        assert stats.accuracy == pytest.approx(0.6)
        assert PrefetchStats().accuracy == 0.0

    def test_as_dict(self):
        d = PrefetchStats(requested=5, issued=3).as_dict()
        assert d["requested"] == 5 and d["issued"] == 3


class TestNextLine:
    def test_prefetches_sequential(self):
        hierarchy = llc_only()
        trace = make_trace([0, 1, 2, 3])
        stats = replay_with_prefetcher(
            trace, hierarchy, NextLinePrefetcher(degree=1)
        )
        # Each access prefetches its successor, which then demand-hits.
        assert stats.useful == 3

    def test_degree(self):
        assert NextLinePrefetcher(degree=3).observe(10, None) == [
            11, 12, 13,
        ]


class TestStride:
    def test_learns_constant_stride(self):
        prefetcher = StridePrefetcher(degree=1, threshold=2)
        ctx = AccessContext(pc=4)
        out = []
        for line in (0, 5, 10, 15, 20):
            out.append(prefetcher.observe(line, ctx))
        assert out[-1] == [25]

    def test_zero_stride_neutral(self):
        prefetcher = StridePrefetcher(degree=1, threshold=2)
        ctx = AccessContext(pc=4)
        for line in (0, 1, 1, 1, 2, 2, 3):
            last = prefetcher.observe(line, ctx)
        assert last == [4]  # the repeated lines did not reset confidence

    def test_irregular_never_confirms(self):
        prefetcher = StridePrefetcher(degree=1, threshold=2)
        ctx = AccessContext(pc=4)
        rng = np.random.default_rng(0)
        fired = []
        for line in rng.integers(0, 1000, size=200):
            fired.extend(prefetcher.observe(int(line), ctx))
        assert len(fired) < 10


class TestTransposePrefetcher:
    def test_prefetches_upcoming_in_neighbors(self, paper_example_graph):
        from repro.memory import AddressSpace

        csc = paper_example_graph.transpose()
        space = AddressSpace()
        span = space.alloc("srcData", 5, 512, irregular=True)  # 1/line
        prefetcher = TransposePrefetcher(csc, span, lookahead=1)
        ctx = AccessContext(vertex=0)
        lines = prefetcher.observe(0, ctx)
        base = span.base >> 6
        # Iteration 1's in-neighbors are srcData elements {2, 3}.
        expected = {base + int(s) for s in csc.out_neighbors(1)}
        assert set(lines) == expected

    def test_only_fires_on_vertex_advance(self, paper_example_graph):
        from repro.memory import AddressSpace

        csc = paper_example_graph.transpose()
        space = AddressSpace()
        span = space.alloc("srcData", 5, 512, irregular=True)
        prefetcher = TransposePrefetcher(csc, span, lookahead=1)
        ctx = AccessContext(vertex=0)
        assert prefetcher.observe(0, ctx)
        assert prefetcher.observe(1, ctx) == []  # same vertex

    def test_end_of_graph(self, paper_example_graph):
        from repro.memory import AddressSpace

        csc = paper_example_graph.transpose()
        space = AddressSpace()
        span = space.alloc("srcData", 5, 512, irregular=True)
        prefetcher = TransposePrefetcher(csc, span, lookahead=3)
        ctx = AccessContext(vertex=4)
        assert prefetcher.observe(0, ctx) == []


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = uniform_random(8192, avg_degree=4.0, seed=3)
        prepared = prepare_run(PageRank(), graph)
        return graph, prepared

    def _run(self, prepared, prefetcher):
        hierarchy = CacheHierarchy(scaled_hierarchy("tiny"), DRRIP())
        stats = replay_with_prefetcher(
            prepared.trace, hierarchy, prefetcher
        )
        return hierarchy.llc.stats.misses, stats

    def test_transpose_prefetch_cuts_demand_misses(self, setup):
        graph, prepared = setup
        csc = graph.transpose()
        span = prepared.layout["srcData"]
        base_misses, __ = self._run(prepared, None)
        pf_misses, stats = self._run(
            prepared, TransposePrefetcher(csc, span, lookahead=4)
        )
        assert pf_misses < base_misses * 0.95
        assert stats.useful > 0

    def test_indirect_beats_next_line_accuracy(self, setup):
        graph, prepared = setup
        csc = graph.transpose()
        __, nl_stats = self._run(prepared, NextLinePrefetcher())
        __, imp_stats = self._run(
            prepared,
            IndirectPrefetcher(
                prepared.layout["csc_neighbors"],
                csc.neighbors,
                prepared.layout["srcData"],
                delta=16,
            ),
        )
        assert imp_stats.accuracy > nl_stats.accuracy

    def test_usefulness_settles(self, setup):
        __, prepared = setup
        __, stats = self._run(prepared, NextLinePrefetcher())
        assert stats.useful + stats.useless == stats.issued


class TestInstallStaysClean:
    """Regression: a prefetched line must install clean — it moves data,
    it does not write it — so it can never inherit a preceding demand
    store's write flag and inflate writebacks when later evicted."""

    def test_install_ignores_inherited_write_flag(self):
        from repro.cache.cache import SetAssociativeCache
        from repro.policies.lru import LRU

        cache = SetAssociativeCache(
            CacheConfig("LLC", num_sets=1, num_ways=2), LRU()
        )
        dirty_ctx = AccessContext(write=True)  # stale demand-store flag
        assert cache.install(5, dirty_ctx)
        assert dirty_ctx.write is True  # caller's context is untouched
        # Evict line 5 with demand reads: no writeback may appear.
        read_ctx = AccessContext()
        for line in (1, 2, 3):
            cache.access(line, read_ctx)
        assert 5 not in cache.resident_lines()
        assert cache.stats.writebacks == 0

    def test_prefetched_line_after_demand_store_not_written_back(self):
        hierarchy = llc_only()
        # A demand store to line 0; the next-line prefetcher installs
        # line 1 right after it from the same observation.
        trace = MemoryTrace(
            addresses=np.array([0], np.int64),
            pcs=np.ones(1, np.uint8),
            writes=np.ones(1, bool),
            vertices=np.zeros(1, np.int32),
        )
        replay_with_prefetcher(trace, hierarchy, NextLinePrefetcher())
        llc = hierarchy.llc
        assert sorted(llc.resident_lines()) == [0, 1]
        # Force both lines out: only the demand store's line is dirty.
        ctx = AccessContext()
        for line in range(2, 2 + 4 * 4 * 2):
            llc.access(line, ctx)
        assert llc.stats.writebacks == 1
