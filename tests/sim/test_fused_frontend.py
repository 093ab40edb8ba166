"""Fused front-end tests: the single-pass ``k_private_filter`` build is
bit-identical to the pure decode+replay construction across odd
geometries, survives the artifact-store round trip, and the kernel path
never materializes decode list views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig
from repro.graph import uniform_random
from repro.memory.trace import DecodedTrace, MemoryTrace
from repro.sim import artifacts, build_private_filter, prepare_run, \
    simulate_prepared
from repro.sim.artifacts import ArtifactStore


def make_trace(lines, writes=None, pcs=None, vertices=None):
    n = len(lines)
    rng = np.random.default_rng(abs(hash(tuple(lines))) % 2**32)
    return MemoryTrace(
        addresses=np.asarray(lines, np.int64) * 64,
        pcs=np.asarray(
            pcs if pcs is not None else rng.integers(1, 6, n), np.uint8
        ),
        writes=np.asarray(
            writes if writes is not None else rng.random(n) < 0.3
        ),
        vertices=np.asarray(
            vertices if vertices is not None else rng.integers(0, 16, n),
            np.int32,
        ),
    )


# Geometry corners: direct-mapped, single-set, non-power-of-two sets
# (the paper's footnote-3 modulo indexing), each private level alone,
# no private levels at all, and the widest levels the compiled pass
# replays (at 64 ways a set's all-ways MRU mask is every bit of a word).
GEOMETRIES = {
    "pow2": ((2, 8), (4, 8)),
    "one_way": ((4, 1), (8, 1)),
    "single_set": ((1, 4), (1, 8)),
    "odd_sets": ((3, 2), (5, 4)),
    "l1_only": ((2, 4), None),
    "l2_only": (None, (4, 4)),
    "no_private": (None, None),
    "ways_63": ((1, 63), (2, 63)),
    "ways_64": ((2, 64), (1, 64)),
}


def hierarchy_for(geometry):
    l1, l2 = GEOMETRIES[geometry]
    return HierarchyConfig(
        l1=CacheConfig("L1", num_sets=l1[0], num_ways=l1[1]) if l1 else None,
        l2=CacheConfig("L2", num_sets=l2[0], num_ways=l2[1]) if l2 else None,
        llc=CacheConfig("LLC", num_sets=8, num_ways=4),
    )


def pure_filter(trace, config):
    """build_private_filter with the fused compiled pass disabled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "fused_private_filter", lambda *a: None)
        return build_private_filter(trace, config)


def assert_stats_equal(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    for field in ("accesses", "hits", "misses", "evictions", "writebacks"):
        assert getattr(a, field) == getattr(b, field), field


def assert_filters_equal(fused, pure):
    assert fused.num_accesses == pure.num_accesses
    assert np.array_equal(fused.mask, pure.mask)
    for channel, dtype in (
        ("lines", np.int64),
        ("pcs", np.uint8),
        ("writes", np.bool_),
        ("vertices", np.int32),
        ("indices", np.int64),
    ):
        left = np.asarray(getattr(fused, channel))
        right = np.asarray(getattr(pure, channel))
        assert np.array_equal(left, right), channel
        assert left.dtype == right.dtype == dtype, channel
    assert_stats_equal(fused.l1_stats, pure.l1_stats)
    assert_stats_equal(fused.l2_stats, pure.l2_stats)
    assert fused.l1_hits == pure.l1_hits
    assert fused.l2_hits == pure.l2_hits


class TestFusedEquivalence:
    """Fused C pass == pure decode+replay construction, channel by
    channel, on every geometry corner."""

    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 40), min_size=1, max_size=200),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
    )
    def test_all_channels_match(self, lines, geometry):
        trace = make_trace(lines)
        config = hierarchy_for(geometry)
        assert_filters_equal(
            build_private_filter(trace, config), pure_filter(trace, config)
        )

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_empty_trace(self, geometry):
        trace = make_trace([])
        config = hierarchy_for(geometry)
        fused = build_private_filter(trace, config)
        assert_filters_equal(fused, pure_filter(trace, config))
        assert fused.llc_visible == 0
        assert len(fused.mask) == 0

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_pure_env_leg(self, geometry, no_ckernels):
        # A host without a toolchain must route to the same construction
        # the fused-disabled monkeypatch exercises (identical filters).
        trace = make_trace(list(range(30)) * 3)
        config = hierarchy_for(geometry)
        compiled = build_private_filter(trace, config)
        no_ckernels()
        pure = build_private_filter(trace, config)
        assert_filters_equal(compiled, pure)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_evicting_trace(self, geometry):
        # 400 distinct lines overflow every set of every geometry, so
        # victim choice, writebacks and the MRU reset all run, at 63
        # and 64 ways too.
        rng = np.random.default_rng(5)
        lines = np.concatenate([
            rng.integers(0, 400, 3000), rng.integers(0, 24, 1000)
        ])
        rng.shuffle(lines)
        trace = make_trace(lines.tolist())
        config = hierarchy_for(geometry)
        fused = build_private_filter(trace, config)
        assert_filters_equal(fused, pure_filter(trace, config))
        for stats in (fused.l1_stats, fused.l2_stats):
            assert stats is None or stats.evictions > 0

    @pytest.mark.needs_ckernels
    def test_level_over_64_ways_declines_with_one_warning(self):
        # A set's MRU and dirty bits are one 64-bit word each, so a
        # 65-way level is replayed in Python, and says so.
        rng = np.random.default_rng(6)
        trace = make_trace(rng.integers(0, 300, 2000).tolist())
        config = HierarchyConfig(
            l1=CacheConfig("L1", num_sets=2, num_ways=65),
            l2=CacheConfig("L2", num_sets=4, num_ways=8),
            llc=CacheConfig("LLC", num_sets=8, num_ways=4),
        )
        with pytest.warns(RuntimeWarning) as record:
            filt = build_private_filter(trace, config)
        assert len(record) == 1
        message = str(record[0].message)
        assert "L1 has 65 ways" in message
        assert "L2" not in message
        assert filt.l1_stats.evictions > 0
        assert_filters_equal(filt, pure_filter(trace, config))

    def test_phase_seconds_populated(self):
        trace = make_trace(list(range(50)) * 4)
        config = hierarchy_for("pow2")
        filt = build_private_filter(trace, config)
        assert filt.filter_seconds > 0
        assert filt.decode_seconds >= 0
        # Pure construction splits the decode out of the filter phase.
        pure = pure_filter(trace, config)
        assert pure.decode_seconds > 0
        assert pure.filter_seconds > 0


class TestRehydratedFilter:
    def test_store_round_trip_matches_fresh_build(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        graph = uniform_random(256, avg_degree=5.0, seed=9)
        prepared = prepare_run(PageRank(), graph)
        config = hierarchy_for("pow2")
        built = build_private_filter(prepared.trace, config)
        artifacts.store_filter(store, prepared.trace, config, built)
        loaded = artifacts.cached_filter(store, prepared.trace, config)
        assert loaded is not None
        assert_filters_equal(built, loaded)
        # Rehydrated filters replay the provenance timings, not zeros.
        assert loaded.filter_seconds == built.filter_seconds
        # The pure construction agrees with the rehydrated copy too.
        assert_filters_equal(loaded, pure_filter(prepared.trace, config))


class TestKernelPathSkipsDecodeLists:
    @pytest.mark.needs_ckernels
    def test_sweep_never_boxes_decode_channels(self, monkeypatch):
        # A kernel-path sweep must never call ``.tolist()`` on the
        # decode: the fused front-end replaces the decoded channel
        # arrays outright, and the replay kernels box only the filter's
        # own (much shorter) LLC-visible channels.
        def forbidden(self, *args):
            raise AssertionError(
                "kernel path materialized decode list views"
            )

        monkeypatch.setattr(DecodedTrace, "as_lists", forbidden)
        monkeypatch.setattr(DecodedTrace, "channel_lists", forbidden)
        graph = uniform_random(256, avg_degree=5.0, seed=9)
        prepared = prepare_run(PageRank(), graph)
        config = hierarchy_for("pow2")
        for policy in ("LRU", "DRRIP", "SHiP-PC", "Hawkeye", "OPT"):
            result = simulate_prepared(
                prepared, policy, config, engine="fast"
            )
            assert result.details["engine"]["kernel"] is not None
            assert result.llc.accesses > 0
