"""Replay-engine tests: equivalence with the reference path, filter
caching, vectorized set-index and next-use computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.cache import AccessContext, SetAssociativeCache
from repro.graph import power_law, uniform_random
from repro.policies.lru import LRU
from repro.policies.plru import BitPLRU
from repro.policies.registry import policy_names
from repro.sim import (
    ReplayEngine,
    build_private_filter,
    ckernels,
    prepare_dbg_run,
    prepare_run,
    simulate_prepared,
)
from repro.sim.driver import POPT_POLICIES
from repro.sim.engine import PrivateFilter, llc_visible_next_use
from repro.sim.kernels import KERNEL_TABLE, resolve_kernel


def small_hierarchy():
    return HierarchyConfig(
        l1=CacheConfig("L1", num_sets=2, num_ways=8),
        l2=CacheConfig("L2", num_sets=4, num_ways=8),
        llc=CacheConfig("LLC", num_sets=8, num_ways=16),
    )


@pytest.fixture(scope="module")
def hierarchy():
    return small_hierarchy()


@pytest.fixture(scope="module", params=["urand", "plaw"])
def prepared(request):
    if request.param == "urand":
        graph = uniform_random(512, avg_degree=6.0, seed=7)
    else:
        graph = power_law(512, avg_degree=6.0, seed=11)
    return prepare_run(PageRank(), graph)


def assert_results_match(fast, reference):
    assert fast.level_counts == reference.level_counts
    assert len(fast.levels) == len(reference.levels)
    for a, b in zip(fast.levels, reference.levels):
        assert a.name == b.name
        assert a.accesses == b.accesses
        assert a.hits == b.hits
        assert a.misses == b.misses
        assert a.evictions == b.evictions
        assert a.writebacks == b.writebacks
    assert fast.cycles == reference.cycles


def assert_kernel_dispatch(fast):
    """The fast engine ran a replay kernel iff the compiled library
    loaded; without it the same rows come from the generic engine."""
    ran = fast.details["engine"]["kernel"] is not None
    assert ran == ckernels.available()


class TestEngineEquivalence:
    """The fast engine reproduces the reference path bit-for-bit."""

    @pytest.mark.parametrize(
        "policy", sorted(set(policy_names()) - {"GRASP"})
    )
    def test_registry_policies(self, prepared, hierarchy, policy):
        fast = simulate_prepared(prepared, policy, hierarchy, engine="fast")
        ref = simulate_prepared(
            prepared, policy, hierarchy, engine="reference"
        )
        assert_results_match(fast, ref)

    @pytest.mark.parametrize("policy", POPT_POLICIES)
    def test_topt_and_popt_variants(self, prepared, hierarchy, policy):
        fast = simulate_prepared(prepared, policy, hierarchy, engine="fast")
        ref = simulate_prepared(
            prepared, policy, hierarchy, engine="reference"
        )
        assert_results_match(fast, ref)

    def test_grasp(self, hierarchy):
        graph = uniform_random(512, avg_degree=6.0, seed=7)
        prepared_dbg, _ = prepare_dbg_run(PageRank(), graph)
        results = [
            simulate_prepared(prepared_dbg, "GRASP", hierarchy, engine=engine)
            for engine in ("fast", "reference")
        ]
        assert_results_match(*results)

    def test_llc_only_hierarchy(self, prepared):
        config = HierarchyConfig(
            llc=CacheConfig("LLC", num_sets=8, num_ways=16)
        )
        fast = simulate_prepared(prepared, "LRU", config, engine="fast")
        ref = simulate_prepared(prepared, "LRU", config, engine="reference")
        assert_results_match(fast, ref)
        assert fast.llc.accesses == fast.num_accesses

    def test_unknown_engine_rejected(self, prepared, hierarchy):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate_prepared(prepared, "LRU", hierarchy, engine="warp")


class TestFilterCaching:
    def test_policy_sweep_replays_private_levels_once(self, hierarchy):
        graph = uniform_random(512, avg_degree=6.0, seed=3)
        prepared = prepare_run(PageRank(), graph)
        policies = ("LRU", "DRRIP", "SRRIP", "Bit-PLRU", "SHiP-PC")
        for policy in policies:
            result = simulate_prepared(
                prepared, policy, hierarchy, engine="fast"
            )
        assert prepared.filter_counters["built"] == 1
        assert prepared.filter_counters["reused"] == len(policies) - 1
        engine_details = result.details["engine"]
        assert engine_details["name"] == "fast"
        assert engine_details["filters_built"] == 1
        assert engine_details["accesses_per_second"] > 0

    def test_distinct_geometries_build_distinct_filters(self):
        graph = uniform_random(512, avg_degree=6.0, seed=3)
        prepared = prepare_run(PageRank(), graph)
        simulate_prepared(prepared, "LRU", small_hierarchy(), engine="fast")
        bigger = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=4, num_ways=8),
            l2=CacheConfig("L2", num_sets=8, num_ways=8),
            llc=CacheConfig("LLC", num_sets=8, num_ways=16),
        )
        simulate_prepared(prepared, "LRU", bigger, engine="fast")
        assert prepared.filter_counters["built"] == 2
        # A different LLC behind the same private levels reuses the filter.
        wider_llc = HierarchyConfig(
            l1=bigger.l1,
            l2=bigger.l2,
            llc=CacheConfig("LLC", num_sets=16, num_ways=8),
        )
        simulate_prepared(prepared, "LRU", wider_llc, engine="fast")
        assert prepared.filter_counters["built"] == 2
        assert prepared.filter_counters["reused"] == 1

    def test_opt_shares_filter_with_replay(self, hierarchy):
        graph = uniform_random(512, avg_degree=6.0, seed=3)
        prepared = prepare_run(PageRank(), graph)
        simulate_prepared(prepared, "OPT", hierarchy, engine="fast")
        # One build total: the Belady oracle and the LLC replay share it.
        assert prepared.filter_counters["built"] == 1


class TestPrivateFilterExactness:
    """The per-set vectorized filter equals a straight-line replay of
    SetAssociativeCache + BitPLRU private levels."""

    def reference_filter(self, trace, config):
        shift = config.line_size.bit_length() - 1
        lines = (trace.addresses >> shift).tolist()
        writes = trace.writes.tolist()
        levels = [
            SetAssociativeCache(cfg, BitPLRU())
            for cfg in (config.l1, config.l2)
            if cfg is not None
        ]
        reaches_llc = np.ones(len(lines), dtype=bool)
        ctx = AccessContext()
        for index, line in enumerate(lines):
            ctx.index = index
            ctx.write = writes[index]
            hit = False
            for level in levels:
                if level.access(line, ctx):
                    hit = True
                    break
            reaches_llc[index] = not hit
        return reaches_llc, levels

    def test_mask_and_stats_match_reference(self, prepared, hierarchy):
        filt = build_private_filter(prepared.trace, hierarchy)
        mask, levels = self.reference_filter(prepared.trace, hierarchy)
        assert np.array_equal(filt.mask, mask)
        for fast_stats, level in zip(
            (filt.l1_stats, filt.l2_stats), levels
        ):
            ref_stats = level.stats
            assert fast_stats.accesses == ref_stats.accesses
            assert fast_stats.hits == ref_stats.hits
            assert fast_stats.misses == ref_stats.misses
            assert fast_stats.evictions == ref_stats.evictions
            assert fast_stats.writebacks == ref_stats.writebacks

    @settings(max_examples=25, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 40), min_size=1, max_size=200),
        l1_sets=st.sampled_from([1, 2, 3, 4]),
        l1_ways=st.sampled_from([1, 2, 4]),
    )
    def test_random_traces(self, lines, l1_sets, l1_ways):
        from repro.memory.trace import MemoryTrace

        n = len(lines)
        rng = np.random.default_rng(abs(hash((tuple(lines), l1_sets))) % 2**32)
        trace = MemoryTrace(
            addresses=np.asarray(lines, np.int64) * 64,
            pcs=np.ones(n, np.uint8),
            writes=rng.random(n) < 0.3,
            vertices=np.zeros(n, np.int32),
        )
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=l1_sets, num_ways=l1_ways),
            llc=CacheConfig("LLC", num_sets=4, num_ways=4),
        )
        filt = build_private_filter(trace, config)
        mask, (l1,) = self.reference_filter(trace, config)
        assert np.array_equal(filt.mask, mask)
        assert filt.l1_stats.writebacks == l1.stats.writebacks
        assert filt.l1_stats.evictions == l1.stats.evictions


class TestSetIndexProperty:
    """The replay kernels' vectorized set indices
    (:meth:`PrivateFilter.set_index_array`) agree with the scalar path,
    including the paper's footnote-3 modulo indexing for
    non-power-of-two set counts."""

    @settings(max_examples=100, deadline=None)
    @given(
        num_sets=st.integers(min_value=1, max_value=24576),
        lines=st.lists(
            st.integers(min_value=0, max_value=2**48), max_size=50
        ),
    )
    def test_vectorized_matches_scalar(self, num_sets, lines):
        config = CacheConfig("X", num_sets=num_sets, num_ways=2)
        cache = SetAssociativeCache(config, LRU())
        n = len(lines)
        filt = PrivateFilter(
            num_accesses=n, mask=np.ones(n, bool), l1_stats=None,
            l2_stats=None, l1_hits=0, l2_hits=0,
            lines=np.asarray(lines, np.int64), pcs=np.zeros(n, np.int64),
            writes=np.zeros(n, bool), vertices=np.zeros(n, np.int64),
            indices=np.arange(n, dtype=np.int64),
        )
        vectorized = filt.set_index_array(config)
        assert vectorized.tolist() == [
            config.set_index(line) for line in lines
        ]
        assert vectorized.tolist() == [
            cache.set_index(line) for line in lines
        ]
        if lines:
            assert int(vectorized.min()) >= 0
            assert int(vectorized.max()) < num_sets


class TestFilteredNextUse:
    def test_matches_backward_scan(self, prepared, hierarchy):
        trace = prepared.trace
        next_use = llc_visible_next_use(trace, hierarchy)
        # Reference: the original backward dict scan over the mask.
        filt = build_private_filter(trace, hierarchy)
        lines = (trace.addresses >> 6).tolist()
        n = len(trace)
        expected = np.full(n, n, dtype=np.int64)
        last_seen = {}
        for index in range(n - 1, -1, -1):
            if not filt.mask[index]:
                continue
            line = lines[index]
            if line in last_seen:
                expected[index] = last_seen[line]
            last_seen[line] = index
        assert np.array_equal(next_use, expected)

    def test_private_hits_get_infinity(self, hierarchy):
        from repro.memory.trace import MemoryTrace

        # Line 0 accessed three times back-to-back: accesses 1 and 2 hit
        # L1 and never reach the LLC, so access 0's next LLC use is inf.
        trace = MemoryTrace(
            addresses=np.zeros(3, np.int64),
            pcs=np.ones(3, np.uint8),
            writes=np.zeros(3, bool),
            vertices=np.zeros(3, np.int32),
        )
        next_use = llc_visible_next_use(trace, hierarchy)
        assert next_use[0] == 3
        assert next_use[1] == 3 and next_use[2] == 3

    def test_empty_trace(self, hierarchy):
        from repro.memory.trace import MemoryTrace

        empty = np.empty(0)
        trace = MemoryTrace(
            addresses=empty.astype(np.int64),
            pcs=empty.astype(np.uint8),
            writes=empty.astype(bool),
            vertices=empty.astype(np.int32),
        )
        assert len(llc_visible_next_use(trace, hierarchy)) == 0


class TestEngineRunShape:
    @pytest.mark.needs_ckernels
    def test_run_reports_throughput(self, prepared, hierarchy):
        engine = ReplayEngine(prepared, hierarchy)
        run = engine.run(LRU())
        # LRU advertises a replay kernel, so no cache object is built.
        assert run.kernel == "lru"
        assert run.llc is None
        assert run.seconds > 0
        assert run.accesses_per_second > 0
        assert run.filter.llc_visible == run.levels[-1].accesses
        assert sum(run.level_counts) == len(prepared.trace)

    def test_generic_run_builds_cache(self, prepared, hierarchy):
        engine = ReplayEngine(prepared, hierarchy)
        run = engine.run(LRU(), use_kernel=False)
        assert run.kernel is None
        assert run.llc is not None
        assert run.filter.llc_visible == run.llc.stats.accesses


# Policies whose replay has a dedicated kernel (KERNEL_TABLE coverage).
KERNEL_POLICIES = (
    "LRU", "LIP", "Bit-PLRU", "SRRIP", "BRRIP", "DRRIP", "OPT",
    "SHiP-PC", "Hawkeye",
)


def synthetic_prepared(lines, writes):
    """A minimal PreparedRun around a hand-built trace."""
    from repro.apps.base import PreparedRun
    from repro.memory.trace import MemoryTrace

    n = len(lines)
    trace = MemoryTrace(
        addresses=np.asarray(lines, np.int64) * 64,
        pcs=np.ones(n, np.uint8),
        writes=np.asarray(writes, bool),
        vertices=np.zeros(n, np.int32),
    )
    return PreparedRun(
        app_name="synthetic",
        layout=None,
        trace=trace,
        irregular_streams=[],
    )


class TestKernelEquivalence:
    """Replay kernels are bit-identical to the generic and reference
    paths — on real app traces and on adversarial geometries."""

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_three_engines_agree(self, prepared, hierarchy, policy):
        fast = simulate_prepared(prepared, policy, hierarchy, engine="fast")
        generic = simulate_prepared(
            prepared, policy, hierarchy, engine="generic"
        )
        ref = simulate_prepared(
            prepared, policy, hierarchy, engine="reference"
        )
        assert_results_match(fast, generic)
        assert_results_match(fast, ref)
        assert_kernel_dispatch(fast)
        assert generic.details["engine"]["kernel"] is None

    @pytest.mark.needs_ckernels
    @pytest.mark.parametrize("policy", KERNEL_POLICIES + POPT_POLICIES)
    def test_pure_python_matches_compiled(
        self, prepared, hierarchy, policy, no_ckernels
    ):
        # Without a compiled library (a host with no C toolchain) the
        # fast engine replays every policy through the pure-Python
        # generic loop, with rows identical to the compiled kernel's.
        compiled = simulate_prepared(
            prepared, policy, hierarchy, engine="fast"
        )
        no_ckernels()
        pure = simulate_prepared(prepared, policy, hierarchy, engine="fast")
        assert compiled.details["engine"]["kernel"] is not None
        assert pure.details["engine"]["kernel"] is None
        assert_results_match(pure, compiled)
        assert pure.popt_counters == compiled.popt_counters

    def test_bip_gets_no_kernel(self, prepared, hierarchy):
        # BIP subclasses LIP; the exact-type kernel table must not let it
        # inherit LIP's kernel (their insertion rules differ).
        result = simulate_prepared(prepared, "BIP", hierarchy, engine="fast")
        assert result.details["engine"]["kernel"] is None

    def test_sanitize_forces_generic_path(self, prepared, hierarchy):
        plain = simulate_prepared(prepared, "LRU", hierarchy, engine="fast")
        sanitized = simulate_prepared(
            prepared, "LRU", hierarchy, engine="fast", sanitize=True
        )
        assert sanitized.details["engine"]["kernel"] is None
        assert_results_match(sanitized, plain)

    @settings(max_examples=20, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 60), min_size=1, max_size=250),
        llc_sets=st.sampled_from([1, 3, 8]),   # incl. non-power-of-two
        llc_ways=st.sampled_from([1, 2, 4]),   # incl. direct-mapped
        policy=st.sampled_from(
            ["LRU", "LIP", "Bit-PLRU", "SRRIP", "BRRIP", "DRRIP", "OPT"]
        ),
    )
    def test_odd_geometries(self, lines, llc_sets, llc_ways, policy):
        rng = np.random.default_rng(
            abs(hash((tuple(lines), llc_sets, llc_ways))) % 2**32
        )
        prepared = synthetic_prepared(lines, rng.random(len(lines)) < 0.3)
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=1, num_ways=1),
            llc=CacheConfig("LLC", num_sets=llc_sets, num_ways=llc_ways),
        )
        fast = simulate_prepared(prepared, policy, config, engine="fast")
        generic = simulate_prepared(
            prepared, policy, config, engine="generic"
        )
        ref = simulate_prepared(prepared, policy, config, engine="reference")
        assert_kernel_dispatch(fast)
        assert_results_match(fast, generic)
        assert_results_match(fast, ref)


    @pytest.mark.parametrize("llc_ways", [1, 64])
    @pytest.mark.parametrize(
        "policy",
        ["LRU", "LIP", "Bit-PLRU", "SRRIP", "BRRIP", "DRRIP", "OPT"],
    )
    def test_way_count_extremes(self, llc_ways, policy):
        # Direct-mapped and 64-way LLCs under a stream that evicts from
        # every set: the victim scans' first-minimum / first-maximum
        # selects see one way and a full word of ways.
        rng = np.random.default_rng(llc_ways)
        lines = np.concatenate([
            rng.integers(0, 400, 2500), rng.integers(0, 40, 1500)
        ])
        rng.shuffle(lines)
        prepared = synthetic_prepared(lines.tolist(), rng.random(4000) < 0.3)
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=1, num_ways=1),
            llc=CacheConfig("LLC", num_sets=2, num_ways=llc_ways),
        )
        fast = simulate_prepared(prepared, policy, config, engine="fast")
        generic = simulate_prepared(
            prepared, policy, config, engine="generic"
        )
        ref = simulate_prepared(prepared, policy, config, engine="reference")
        assert_kernel_dispatch(fast)
        assert_results_match(fast, generic)
        assert_results_match(fast, ref)
        assert fast.llc.evictions > 0 and fast.llc.hits > 0

    @pytest.mark.parametrize(
        "leader_period, psel_bits",
        [
            pytest.param(1, 10, id="1"),
            pytest.param(2, 10, id="2"),
            pytest.param(3, 10, id="3"),
            pytest.param(4, 1, id="4-psel1"),
            pytest.param(4, 2, id="4-psel2"),
        ],
    )
    def test_drrip_leader_periods(
        self, prepared, hierarchy, leader_period, psel_bits
    ):
        # Period 1 makes every set an SRRIP leader, period 2 alternates
        # SRRIP and BRRIP leaders with no follower, and period 3 adds one
        # follower per period: the kernel and the policy read one map.
        # A 1- or 2-bit PSEL reaches its maximum after a few SRRIP-leader
        # misses and must stay there; period 4 gives the 8-set LLC two
        # leaders of each role, so PSEL moves both ways.
        from repro.policies.rrip import DRRIP

        engine = ReplayEngine(prepared, hierarchy)
        kernel, generic = (
            engine.run(DRRIP(psel_bits=psel_bits,
                             leader_period=leader_period),
                       use_kernel=use_kernel)
            for use_kernel in (True, False)
        )
        assert kernel.kernel == ("drrip" if ckernels.available() else None)
        assert generic.kernel is None
        assert kernel.level_counts == generic.level_counts
        assert [vars(level) for level in kernel.levels] == [
            vars(level) for level in generic.levels
        ]

    def test_drrip_follower_at_psel_midpoint(self):
        # Set 0 leads SRRIP, set 1 follows. Line 1 fills set 1 while
        # PSEL sits at its midpoint, so a follower must insert SRRIP
        # there (PSEL > midpoint picks BRRIP). Set 0's miss then tips
        # PSEL, line 3 fills BRRIP, and line 5 evicts line 3, not line
        # 1, so the last access hits.
        prepared = synthetic_prepared([1, 0, 3, 5, 1], [False] * 5)
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=1, num_ways=1),
            llc=CacheConfig("LLC", num_sets=2, num_ways=2),
        )
        fast = simulate_prepared(prepared, "DRRIP", config, engine="fast")
        ref = simulate_prepared(prepared, "DRRIP", config, engine="reference")
        assert_kernel_dispatch(fast)
        assert_results_match(fast, ref)
        assert fast.llc.hits == 1


@pytest.fixture(scope="module")
def small_prepared():
    return prepare_run(PageRank(), uniform_random(128, avg_degree=4.0, seed=3))


class TestPoptKernelEquivalence:
    """The next-ref kernels (T-OPT, P-OPT) are bit-identical to the
    generic and reference paths — in per-level stats AND the engine-cost
    counters the timing model and Fig. 15 consume — across odd geometries
    and way reservation."""

    @pytest.mark.parametrize("policy", POPT_POLICIES)
    def test_three_engines_agree_with_counters(
        self, prepared, hierarchy, policy
    ):
        fast = simulate_prepared(prepared, policy, hierarchy, engine="fast")
        generic = simulate_prepared(
            prepared, policy, hierarchy, engine="generic"
        )
        ref = simulate_prepared(
            prepared, policy, hierarchy, engine="reference"
        )
        assert_results_match(fast, generic)
        assert_results_match(fast, ref)
        assert_kernel_dispatch(fast)
        assert generic.details["engine"]["kernel"] is None
        assert fast.popt_counters == generic.popt_counters
        assert fast.popt_counters == ref.popt_counters

    @pytest.mark.needs_ckernels
    def test_topt_counters_across_engines(self, prepared, hierarchy):
        # T-OPT's walk-cost counters live on the policy instance
        # (SimResult only carries P-OPT's), so compare via the engine API.
        from repro.popt.topt import TOPT

        engine = ReplayEngine(prepared, hierarchy)
        runs = {}
        for use_kernel in (True, False):
            policy = TOPT(
                prepared.irregular_streams, line_size=hierarchy.line_size
            )
            run = engine.run(policy, use_kernel=use_kernel)
            runs[use_kernel] = (
                run, policy.replacements, policy.transpose_walk_elements
            )
        fast_run, fast_repl, fast_walk = runs[True]
        generic_run, generic_repl, generic_walk = runs[False]
        assert fast_run.kernel == "t-opt"
        assert generic_run.kernel is None
        assert fast_run.levels[-1].misses == generic_run.levels[-1].misses
        assert (fast_repl, fast_walk) == (generic_repl, generic_walk)
        # choose_victim only runs on full sets, so replacements track
        # evictions exactly in both paths.
        assert fast_repl == fast_run.levels[-1].evictions

    def test_popt_non_drrip_tie_break_stays_generic(
        self, prepared, hierarchy
    ):
        from repro.popt.policy import POPT
        from repro.sim.driver import _build_popt_policy

        policy, _ = _build_popt_policy(
            prepared, "inter_intra", 8, hierarchy.line_size
        )
        assert KERNEL_TABLE[POPT][0] == "p-opt"
        assert policy.fits_replay_kernel()
        lru_tied = POPT(
            policy.streams, line_size=hierarchy.line_size, tie_break=LRU()
        )
        assert not lru_tied.fits_replay_kernel()
        assert resolve_kernel(lru_tied) is None
        run = ReplayEngine(prepared, hierarchy).run(lru_tied)
        assert run.kernel is None

    @pytest.mark.needs_ckernels
    def test_way_reservation_configs(self, prepared, hierarchy):
        # fig11's effective-LLC sweep points: kernel vs generic under
        # geometries shrunk by way reservation, down to a single way.
        from repro.sim.driver import _build_popt_policy

        engine = ReplayEngine(prepared, hierarchy)
        for reserve in (1, 4, hierarchy.llc.num_ways - 1):
            llc = hierarchy.llc.with_ways(hierarchy.llc.num_ways - reserve)
            outcome = {}
            for use_kernel in (True, False):
                policy, _ = _build_popt_policy(
                    prepared, "inter_intra", 8, hierarchy.line_size
                )
                run = engine.run(
                    policy, llc_config=llc, use_kernel=use_kernel
                )
                outcome[use_kernel] = (run, policy.counters)
            fast_run, fast_counters = outcome[True]
            generic_run, generic_counters = outcome[False]
            assert fast_run.kernel == "p-opt"
            assert generic_run.kernel is None
            fast_llc = fast_run.levels[-1]
            generic_llc = generic_run.levels[-1]
            assert fast_llc.hits == generic_llc.hits
            assert fast_llc.misses == generic_llc.misses
            assert fast_llc.evictions == generic_llc.evictions
            assert fast_llc.writebacks == generic_llc.writebacks
            assert fast_counters == generic_counters

    @settings(max_examples=12, deadline=None)
    @given(
        llc_sets=st.sampled_from([1, 3, 8]),   # incl. non-power-of-two
        llc_ways=st.sampled_from([1, 2, 5]),   # incl. direct-mapped
        policy=st.sampled_from(list(POPT_POLICIES)),
    )
    def test_odd_geometries(self, small_prepared, llc_sets, llc_ways, policy):
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=1, num_ways=1),
            llc=CacheConfig("LLC", num_sets=llc_sets, num_ways=llc_ways),
        )
        fast = simulate_prepared(
            small_prepared, policy, config,
            engine="fast", account_capacity=False,
        )
        generic = simulate_prepared(
            small_prepared, policy, config,
            engine="generic", account_capacity=False,
        )
        ref = simulate_prepared(
            small_prepared, policy, config,
            engine="reference", account_capacity=False,
        )
        assert_kernel_dispatch(fast)
        assert_results_match(fast, generic)
        assert_results_match(fast, ref)
        assert fast.popt_counters == generic.popt_counters
        assert fast.popt_counters == ref.popt_counters


def _multi_stream_apps():
    from repro.apps import BFS, PageRankDelta

    graph = uniform_random(1024, avg_degree=6.0, seed=7)
    source = int(np.argmax(graph.degrees()))
    return graph, {"BFS": BFS(source=source), "PR-Delta": PageRankDelta()}


@pytest.fixture(scope="module", params=["BFS", "PR-Delta"])
def multi_stream_prepared(request):
    graph, apps = _multi_stream_apps()
    return prepare_run(apps[request.param], graph)


def tiny_llc_hierarchy():
    """An LLC smaller than the irregular data, so victim scans reach
    Algorithm 2 and the T-OPT search instead of only streaming ways."""
    return HierarchyConfig(
        l1=CacheConfig("L1", num_sets=1, num_ways=2),
        llc=CacheConfig("LLC", num_sets=4, num_ways=4),
    )


def topt_kernel_and_generic(prepared, hierarchy):
    """T-OPT's per-level stats, ``replacements`` and
    ``transpose_walk_elements`` with its kernel, then without. The
    counters live on the policy (SimResult carries only P-OPT's), so
    this replays through the engine API."""
    from repro.popt.topt import TOPT

    engine = ReplayEngine(prepared, hierarchy)
    runs = []
    for use_kernel in (True, False):
        policy = TOPT(prepared.irregular_streams, line_size=hierarchy.line_size)
        run = engine.run(policy, use_kernel=use_kernel)
        compiled = use_kernel and ckernels.available()
        assert run.kernel == ("t-opt" if compiled else None)
        runs.append((
            [vars(level) for level in run.levels],
            policy.replacements,
            policy.transpose_walk_elements,
        ))
    return runs


class TestMultiStreamKernelEquivalence:
    """The next-ref kernels match the generic engine on apps with two
    irregular streams (data plus frontier) whose outer vertices are not
    in increasing order (BFS rounds, PR-Delta iterations), at every
    Rereference Matrix storage width (4 and 8 bits in uint8, 16 bits in
    uint16)."""

    def test_premise_two_streams_vertices_out_of_order(
        self, multi_stream_prepared
    ):
        assert len(multi_stream_prepared.irregular_streams) == 2
        vertices = multi_stream_prepared.trace.vertices.astype(np.int64)
        assert np.any(np.diff(vertices) < 0)

    @pytest.mark.parametrize("entry_bits", [4, 8, 16])
    @pytest.mark.parametrize("policy", ["P-OPT", "P-OPT-Inter", "P-OPT-SE"])
    def test_popt_variants_match_generic(
        self, multi_stream_prepared, policy, entry_bits
    ):
        hierarchy = tiny_llc_hierarchy()
        fast, generic = (
            simulate_prepared(
                multi_stream_prepared, policy, hierarchy,
                entry_bits=entry_bits, engine=engine,
            )
            for engine in ("fast", "generic")
        )
        assert_kernel_dispatch(fast)
        assert generic.details["engine"]["kernel"] is None
        assert_results_match(fast, generic)
        assert fast.popt_counters == generic.popt_counters
        assert fast.popt_counters["rm_lookups"] > 0
        dtype = np.uint16 if entry_bits == 16 else np.uint8
        for (_, bits, _), matrix in multi_stream_prepared.matrices.items():
            if bits == entry_bits:
                assert matrix.entries.dtype == dtype

    def test_topt_matches_generic(self, multi_stream_prepared):
        # T-OPT reads no Rereference Matrix, so entry_bits does not
        # apply; its counters live on the policy (engine API).
        kernel, generic = topt_kernel_and_generic(
            multi_stream_prepared, tiny_llc_hierarchy()
        )
        assert kernel == generic
        assert kernel[1] > 0

    @pytest.mark.parametrize("psel_bits", [1, 2])
    def test_popt_drrip_tie_break_psel_saturates(
        self, multi_stream_prepared, psel_bits
    ):
        # P-OPT's fills go through its DRRIP tie-break's insertion, so a
        # 1- or 2-bit PSEL saturates there too (period 4: both leader
        # roles in the 4-set LLC). The tiny LLC makes P-OPT's victim
        # scans tie, so the tie-break's RRPVs pick victims.
        from repro.policies.rrip import DRRIP
        from repro.popt.policy import POPT
        from repro.sim.driver import _build_popt_policy

        hierarchy = tiny_llc_hierarchy()
        base, _ = _build_popt_policy(
            multi_stream_prepared, "inter_intra", 8, hierarchy.line_size
        )
        engine = ReplayEngine(multi_stream_prepared, hierarchy)
        outcome = {}
        for use_kernel in (True, False):
            policy = POPT(
                base.streams, line_size=hierarchy.line_size,
                tie_break=DRRIP(psel_bits=psel_bits, leader_period=4),
            )
            run = engine.run(policy, use_kernel=use_kernel)
            compiled = use_kernel and ckernels.available()
            assert run.kernel == ("p-opt" if compiled else None)
            outcome[use_kernel] = (
                [vars(level) for level in run.levels], policy.counters
            )
        assert outcome[True] == outcome[False]
        assert outcome[True][1].ties > 0

    # One element per line, so line l's references are element l's.
    # Line 0 has none, line 1 one, line 2 two, lines 3 and 5 a 33-vertex
    # hub slice each, line 4 one.
    EDGE_REFS = {1: [5], 2: [3, 9], 3: list(range(0, 66, 2)), 4: [20],
                 5: list(range(1, 67, 2))}
    # (line, outer vertex) per access. Every eviction searches each
    # resident line's slice for the vertex, so the searches see vertices
    # before a slice's first reference (0, 1), equal to one (3, 5, 9,
    # 20, 40), past its last (10, 21, 70: TOPT_NEVER), and the channel
    # jumps backward (70 -> 2, 41 -> 3).
    EDGE_ACCESSES = [
        (0, 0), (1, 0), (2, 0), (3, 1), (4, 3), (5, 3), (1, 5), (0, 9),
        (2, 9), (3, 10), (5, 20), (4, 21), (1, 40), (3, 40), (2, 41),
        (0, 70), (4, 70), (5, 2), (1, 2), (3, 3), (2, 3), (0, 41),
        (4, 65), (5, 66), (1, 66), (3, 3), (0, 4), (2, 4), (5, 64),
    ]

    def _edge_prepared(self):
        from repro.apps.base import PreparedRun
        from repro.graph.csr import CSRGraph
        from repro.memory.layout import ArraySpan
        from repro.memory.trace import MemoryTrace
        from repro.popt.topt import IrregularStream

        num_lines = 80
        degrees = [len(self.EDGE_REFS.get(v, ())) for v in range(num_lines)]
        reference_graph = CSRGraph(
            offsets=np.concatenate([[0], np.cumsum(degrees)]),
            neighbors=np.array(
                [r for v in range(num_lines) for r in self.EDGE_REFS.get(v, ())]
            ),
        )
        span = ArraySpan("data", 0, num_lines, 512, 64, True)
        lines, vertices = zip(*self.EDGE_ACCESSES)
        trace = MemoryTrace(
            addresses=np.asarray(lines, np.int64) * 64,
            pcs=np.ones(len(lines), np.uint8),
            writes=np.arange(len(lines)) % 3 == 0,
            vertices=np.asarray(vertices, np.int32),
        )
        return PreparedRun(
            app_name="synthetic", layout=None, trace=trace,
            irregular_streams=[IrregularStream(span, reference_graph)],
        )

    @pytest.mark.parametrize("llc_ways", [2, 3, 4])
    def test_topt_search_edge_cases(self, llc_ways):
        # The search's corner cases against the generic engine's
        # bisect_left: empty, one- and two-reference slices and hub
        # slices, searched for vertices before, at and past their
        # references, with the vertex channel jumping backward.
        hierarchy = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=1, num_ways=1),
            llc=CacheConfig("LLC", num_sets=1, num_ways=llc_ways),
        )
        kernel, generic = topt_kernel_and_generic(
            self._edge_prepared(), hierarchy
        )
        assert kernel == generic
        assert kernel[1] > 0


class TestCompactNextUse:
    """PrivateFilter.compact_next_use maps the original-coordinate chain
    onto the LLC-visible stream, preserving order (the OPT kernel's
    invariant)."""

    def test_compact_matches_original_chain(self, prepared, hierarchy):
        from repro.sim import get_private_filter

        filt = get_private_filter(prepared, hierarchy)
        compact = filt.compact_next_use()
        # Reference: forward scan over the compacted stream itself.
        lines = filt.lines.tolist()
        m = len(lines)
        expected = np.full(m, m, dtype=np.int64)
        last_seen = {}
        for k in range(m - 1, -1, -1):
            nxt = last_seen.get(lines[k])
            if nxt is not None:
                expected[k] = nxt
            last_seen[lines[k]] = k
        assert np.array_equal(compact, expected)

    def test_coordinate_systems_order_isomorphic(self, prepared, hierarchy):
        # The original->compact mapping must preserve comparisons: sorting
        # the visible accesses by original next-use and by compact
        # next-use must give the same order (ties broken identically).
        from repro.sim import get_private_filter

        filt = get_private_filter(prepared, hierarchy)
        original = llc_visible_next_use(
            prepared.trace, hierarchy, prepared=prepared
        )[filt.mask]
        compact = filt.compact_next_use()
        assert np.array_equal(
            np.argsort(original, kind="stable"),
            np.argsort(compact, kind="stable"),
        )
