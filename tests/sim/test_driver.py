"""Tests for the simulation driver and timing model."""

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.errors import SimulationError
from repro.graph import uniform_random
from repro.policies import GRASP
from repro.sim import (
    prepare_dbg_run,
    grasp_ranges_for,
    prepare_run,
    replay,
    simulate_prepared,
)
from repro.sim.driver import DBG_BOUNDS
from repro.sim.engine import llc_visible_next_use
from repro.sim.timing import TimingModel


@pytest.fixture(scope="module")
def graph():
    return uniform_random(2048, avg_degree=8.0, seed=31)


@pytest.fixture(scope="module")
def hierarchy():
    return HierarchyConfig(
        l1=CacheConfig("L1", num_sets=2, num_ways=8),
        l2=CacheConfig("L2", num_sets=4, num_ways=8),
        llc=CacheConfig("LLC", num_sets=8, num_ways=16),
    )


@pytest.fixture(scope="module")
def prepared(graph):
    return prepare_run(PageRank(), graph)


class TestSimulate:
    def test_stats_consistent(self, prepared, hierarchy):
        result = simulate_prepared(prepared, "LRU", hierarchy)
        assert result.num_accesses == len(prepared.trace)
        assert sum(result.level_counts) == result.num_accesses
        llc = result.llc
        assert llc.hits + llc.misses == llc.accesses
        assert result.llc_mpki > 0
        assert result.cycles > 0

    def test_same_trace_same_policy_deterministic(self, prepared, hierarchy):
        a = simulate_prepared(prepared, "DRRIP", hierarchy)
        b = simulate_prepared(prepared, "DRRIP", hierarchy)
        assert a.llc.misses == b.llc.misses
        assert a.cycles == b.cycles

    def test_speedup_and_missred_identities(self, prepared, hierarchy):
        lru = simulate_prepared(prepared, "LRU", hierarchy)
        assert lru.speedup_over(lru) == pytest.approx(1.0)
        assert lru.miss_reduction_over(lru) == pytest.approx(0.0)

    def test_llc_only_hierarchy(self, prepared):
        config = HierarchyConfig(
            llc=CacheConfig("LLC", num_sets=8, num_ways=16)
        )
        result = simulate_prepared(prepared, "LRU", config)
        assert result.level_counts[1] == 0  # no L1
        assert result.llc.accesses == result.num_accesses


class TestOracleFiltering:
    def test_filtered_next_use_skips_private_hits(self, hierarchy):
        from repro.memory.trace import MemoryTrace

        # Line 0 accessed three times back-to-back: accesses 1 and 2 hit
        # L1 and never reach the LLC, so access 0's next LLC use is inf.
        trace = MemoryTrace(
            addresses=np.array([0, 0, 0], np.int64),
            pcs=np.ones(3, np.uint8),
            writes=np.zeros(3, bool),
            vertices=np.zeros(3, np.int32),
        )
        next_use = llc_visible_next_use(trace, hierarchy)
        assert next_use[0] == 3

    def test_opt_beats_or_matches_every_heuristic(self, prepared, hierarchy):
        opt = simulate_prepared(prepared, "OPT", hierarchy)
        for policy in ("LRU", "DRRIP", "SHiP-PC", "Hawkeye", "T-OPT"):
            other = simulate_prepared(prepared, policy, hierarchy)
            # 2% slack: OPT's oracle is exact for LLC-visible accesses but
            # private-level fill side effects can perturb single accesses.
            assert opt.llc.misses <= other.llc.misses * 1.02, policy


class TestPOPTCapacityAccounting:
    def test_reserved_ways_reduce_app_visible_llc(self, prepared, hierarchy):
        with_cost = simulate_prepared(prepared, "P-OPT", hierarchy)
        without = simulate_prepared(
            prepared, "P-OPT", hierarchy, account_capacity=False
        )
        assert with_cost.reserved_llc_ways >= 1
        assert without.reserved_llc_ways == 0
        assert without.llc.misses <= with_cost.llc.misses

    def test_reservation_exhaustion_raises(self, graph):
        # A tiny LLC cannot hold the Rereference Matrix columns at all.
        tiny = HierarchyConfig(
            llc=CacheConfig("LLC", num_sets=2, num_ways=2)
        )
        prepared = prepare_run(PageRank(), graph)
        with pytest.raises(SimulationError):
            simulate_prepared(prepared, "P-OPT", tiny)

    def test_se_reserves_less(self, prepared, hierarchy):
        full = simulate_prepared(prepared, "P-OPT", hierarchy)
        single = simulate_prepared(prepared, "P-OPT-SE", hierarchy)
        assert single.reserved_llc_ways <= full.reserved_llc_ways

    def test_popt_counters_present(self, prepared, hierarchy):
        result = simulate_prepared(prepared, "P-OPT", hierarchy)
        counters = result.popt_counters
        assert counters["replacements"] > 0
        assert counters["rm_lookups"] > 0
        assert 0 <= counters["tie_rate"] <= 1
        assert result.preprocessing_seconds > 0


class TestGraspWiring:
    def test_ranges_cover_hot_group(self, graph):
        prepared, layout_info = prepare_dbg_run(PageRank(), graph)
        assert prepared.details[DBG_BOUNDS] == list(layout_info.group_bounds)
        hot, warm = grasp_ranges_for(prepared, llc_data_lines=128)
        assert hot[0] <= hot[1]
        assert warm[0] <= warm[1]
        span = prepared.irregular_streams[0].span
        assert hot[0] >= span.base // 64

    def test_grasp_simulation_runs(self, graph, hierarchy):
        prepared, _ = prepare_dbg_run(PageRank(), graph)
        result = simulate_prepared(prepared, "GRASP", hierarchy)
        assert result.llc.accesses > 0

    def test_grasp_ranges_follow_llc_geometry(self, graph, hierarchy):
        """simulate_prepared sizes GRASP's ranges by the replayed LLC."""
        prepared, _ = prepare_dbg_run(PageRank(), graph)
        llc_lines = hierarchy.llc.num_sets * hierarchy.llc.num_ways
        hot, warm = grasp_ranges_for(prepared, llc_data_lines=llc_lines)
        walk = CacheHierarchy(
            hierarchy, GRASP(hot_range=hot, warm_range=warm)
        )
        replay(prepared.trace, walk)
        derived = simulate_prepared(prepared, "GRASP", hierarchy)
        assert derived.level_counts == list(walk.level_counts)


class TestTimingModel:
    def test_dram_dominates(self, hierarchy):
        model = TimingModel(hierarchy)
        base = model.cycles([0, 100, 0, 0, 0], instructions=350)
        memory_bound = model.cycles([0, 0, 0, 0, 100], instructions=350)
        assert memory_bound > 5 * base

    def test_streaming_cost_added(self, hierarchy):
        model = TimingModel(hierarchy)
        without = model.cycles([0, 10, 0, 0, 0], instructions=35)
        with_streaming = model.cycles(
            [0, 10, 0, 0, 0], instructions=35, popt_bytes_streamed=16000
        )
        assert with_streaming == pytest.approx(without + 1000)

    def test_fewer_dram_accesses_faster(self, prepared, hierarchy):
        drrip = simulate_prepared(prepared, "DRRIP", hierarchy)
        topt = simulate_prepared(prepared, "T-OPT", hierarchy)
        if topt.llc.misses < drrip.llc.misses * 0.95:
            assert topt.cycles < drrip.cycles
