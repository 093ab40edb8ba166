"""Tests for the banked S-NUCA LLC (Section V-E dynamic model)."""

import pytest

from repro.apps import PageRank
from repro.cache import AccessContext, CacheConfig
from repro.cache.banked import BankedLLC
from repro.errors import CacheConfigError
from repro.graph import uniform_random
from repro.policies import LRU, DRRIP
from repro.popt.policy import POPT, PoptStream
from repro.popt.rereference import build_rereference_matrix
from repro.sim import prepare_run


def make_banked(num_banks=4, num_sets=16, num_ways=2, spans=(),
                modified=True, policy=LRU):
    return BankedLLC(
        CacheConfig("LLC", num_sets=num_sets, num_ways=num_ways),
        num_banks=num_banks,
        policy_factory=lambda bank: policy(),
        irreg_spans=spans,
        modified_irreg_mapping=modified,
    )


class TestRouting:
    def test_default_striping(self):
        llc = make_banked(num_banks=4)
        for line in range(16):
            bank, local = llc.route(line)
            assert bank == line % 4
            assert local == line // 4

    def test_rejects_uneven_banks(self):
        with pytest.raises(CacheConfigError):
            make_banked(num_banks=3, num_sets=16)

    def test_modified_mapping_blocks(self):
        from repro.memory import AddressSpace

        space = AddressSpace()
        span = space.alloc("irr", 64 * 1024, 32, irregular=True)
        llc = make_banked(num_banks=4, spans=[span])
        base_line = span.base // 64
        first_bank, __ = llc.route(base_line)
        # 64 consecutive irregData lines share a bank...
        for offset in range(64):
            bank, __ = llc.route(base_line + offset)
            assert bank == first_bank
        # ...and the next block rotates.
        next_bank, __ = llc.route(base_line + 64)
        assert next_bank == (first_bank + 1) % 4

    def test_local_indices_unique_per_bank(self):
        from repro.memory import AddressSpace

        space = AddressSpace()
        span = space.alloc("irr", 16 * 1024, 32, irregular=True)
        llc = make_banked(num_banks=4, spans=[span])
        base_line = span.base // 64
        seen = {}
        for offset in range(span.num_lines):
            bank, local = llc.route(base_line + offset)
            key = (bank, local)
            assert key not in seen, "two lines collided on one frame"
            seen[key] = offset


class TestBehaviour:
    def test_hit_after_fill(self):
        llc = make_banked()
        ctx = AccessContext()
        assert llc.access(100, ctx) is False
        assert llc.access(100, ctx) is True
        stats = llc.aggregate_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_banks_isolated(self):
        # Thrash bank 0's sets; bank 1 contents must survive.
        llc = make_banked(num_banks=2, num_sets=4, num_ways=1)
        ctx = AccessContext()
        llc.access(1, ctx)  # bank 1
        for line in range(0, 64, 2):  # all bank 0
            llc.access(line, ctx)
        assert llc.access(1, ctx) is True

    def test_load_roughly_balanced_on_streams(self):
        llc = make_banked(num_banks=4, num_sets=32)
        ctx = AccessContext()
        for line in range(4000):
            llc.access(line, ctx)
        load = llc.bank_load()
        assert max(load) - min(load) <= 4


class TestRmLocality:
    def _run_popt(self, modified):
        graph = uniform_random(4096, avg_degree=8.0, seed=7)
        prepared = prepare_run(PageRank(), graph)
        span = prepared.irregular_streams[0].span
        matrix = build_rereference_matrix(
            graph, elems_per_line=span.elems_per_line,
            num_lines=span.num_lines,
        )

        def factory(bank):
            return POPT([PoptStream(span=span, matrix=matrix)])

        llc = BankedLLC(
            CacheConfig("LLC", num_sets=32, num_ways=4),
            num_banks=4,
            policy_factory=factory,
            irreg_spans=[span],
            modified_irreg_mapping=modified,
        )
        ctx = AccessContext()
        lines = (prepared.trace.addresses >> 6).tolist()
        vertices = prepared.trace.vertices.tolist()
        for index in range(len(lines)):
            ctx.index = index
            ctx.vertex = vertices[index]
            llc.access(lines[index], ctx)
        return llc

    def test_modified_mapping_fully_local(self):
        llc = self._run_popt(modified=True)
        assert llc.rm_locality() == 1.0
        assert llc.local_rm_lookups > 0

    def test_default_striping_mostly_remote(self):
        llc = self._run_popt(modified=False)
        assert llc.rm_locality() < 0.5

    def test_aggregate_miss_rate_close_to_uca(self):
        """Banking partitions capacity but shouldn't wreck locality."""
        graph = uniform_random(4096, avg_degree=8.0, seed=7)
        prepared = prepare_run(PageRank(), graph)
        lines = (prepared.trace.addresses >> 6).tolist()

        from repro.cache import SetAssociativeCache

        uca = SetAssociativeCache(
            CacheConfig("LLC", num_sets=32, num_ways=4), DRRIP()
        )
        ctx = AccessContext()
        for index, line in enumerate(lines):
            ctx.index = index
            uca.access(line, ctx)
        banked = make_banked(
            num_banks=4, num_sets=32, num_ways=4, policy=DRRIP
        )
        ctx = AccessContext()
        for index, line in enumerate(lines):
            ctx.index = index
            banked.access(line, ctx)
        uca_rate = uca.stats.miss_rate
        banked_rate = banked.aggregate_stats().miss_rate
        assert banked_rate == pytest.approx(uca_rate, abs=0.05)
