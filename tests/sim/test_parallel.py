"""Parallel sweep tests: worker results are bit-identical to serial,
ordering is deterministic, and the CLI plumbs ``--jobs`` through."""

import pytest

from repro.errors import ReservationError
from repro.sim import parallel
from repro.sim import spec as spec_module
from repro.sim.parallel import (
    APP_FACTORIES,
    SweepTask,
    policy_chunks,
    run_task,
)
from repro.sim.spec import ExperimentSpec, run_spec

POLICIES = ("LRU", "SRRIP", "DRRIP", "OPT")


class TestPolicyChunks:
    def test_chunks_cover_in_order(self):
        chunks = policy_chunks(list(POLICIES), chunk_size=3)
        assert chunks == [("LRU", "SRRIP", "DRRIP"), ("OPT",)]

    def test_chunk_size_one(self):
        assert policy_chunks(["A", "B"], 1) == [("A",), ("B",)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            policy_chunks(["A"], 0)


class TestRunTask:
    def test_rows_are_plain_primitives(self):
        task = SweepTask(graph="URAND", policies=("LRU", "DRRIP"))
        rows = run_task(task)
        assert [row["policy"] for row in rows] == ["LRU", "DRRIP"]
        for row in rows:
            for value in row.values():
                assert isinstance(value, (str, int, float, bool))
            assert row["llc_hits"] + row["llc_misses"] == row["llc_accesses"]

    def test_reservation_error_becomes_an_error_row(self, monkeypatch):
        def overflowing(prepared, policy, hierarchy, **kwargs):
            raise ReservationError(f"{policy}: needs 17 of 16 LLC ways")

        monkeypatch.setattr(parallel, "simulate_prepared", overflowing)
        (row,) = run_task(
            SweepTask(graph="URAND", policies=("P-OPT",), scale="tiny")
        )
        assert list(row) == [
            "graph", "app", "policy", "scale", "seed", "technique",
            "llc_label", "llc_sets", "llc_ways", "error",
        ]
        assert row["error"] == "P-OPT: needs 17 of 16 LLC ways"

    def test_prepared_run_cached_across_tasks(self):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        try:
            parallel._PREPARED_CACHE.clear()
            run_task(SweepTask(graph="URAND", policies=("LRU",)))
            run_task(SweepTask(graph="URAND", policies=("SRRIP",)))
            assert len(parallel._PREPARED_CACHE) == 1
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)


def sweep(graphs, policies, scale, chunk_size=2):
    return ExperimentSpec(
        name="sweep", graphs=tuple(graphs), policies=tuple(policies),
        scale=scale, chunk_size=chunk_size,
    )


class TestSweepDeterminism:
    """jobs=N output must be byte-identical to jobs=1 output."""

    def test_jobs_parallel_matches_serial(self):
        spec = sweep(["URAND", "KRON"], POLICIES, scale="small")
        serial = run_spec(spec, jobs=1)
        parallel = run_spec(spec, jobs=4)
        assert serial == parallel
        # Ordering: graph-major, then policy order as declared.
        assert [r["policy"] for r in serial[: len(POLICIES)]] == list(
            POLICIES
        )
        assert serial[0]["graph"] == "URAND"
        assert serial[len(POLICIES)]["graph"] == "KRON"

    def test_single_task_stays_serial(self, monkeypatch):
        spec = sweep(["URAND"], ["LRU"], scale="small")
        serial = run_spec(spec, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single task must not start a pool")

        monkeypatch.setattr(spec_module, "ProcessPoolExecutor", no_pool)
        assert run_spec(spec, jobs=8) == serial

    def test_spawn_matches_serial(self, monkeypatch):
        # spawn workers rebuild state from imports rather than a forked
        # snapshot; identical rows prove nothing leans on fork-captured
        # module state.
        serial = run_spec(sweep(["URAND"], ("LRU", "DRRIP"), scale="tiny"))
        monkeypatch.setenv(parallel.START_METHOD_ENV, "spawn")
        spawned = run_spec(
            sweep(["URAND"], ("LRU", "DRRIP"), scale="tiny", chunk_size=1),
            jobs=2,
        )
        assert spawned == serial

    def test_pool_context_invalid_method_raises(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV, "bogus")
        with pytest.raises(ValueError):
            parallel.pool_context()

    def test_pool_context_default_is_none(self, monkeypatch):
        monkeypatch.delenv(parallel.START_METHOD_ENV, raising=False)
        assert parallel.pool_context() is None


class TestExperimentsJobs:
    def test_mpki_rows_jobs_identical(self):
        from repro.sim.experiments import fig02_sota_mpki

        serial = fig02_sota_mpki(graphs=("URAND",), jobs=1)
        fanned = fig02_sota_mpki(graphs=("URAND",), jobs=2)
        assert serial == fanned


class TestCLIJobs:
    def test_compare_jobs_matches_serial(self, capsys):
        from repro.cli import main

        args = [
            "compare", "--app", "PR", "--graph", "URAND",
            "--policies", "LRU,DRRIP",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sanitize_forces_serial(self, capsys):
        from repro.cli import main

        args = [
            "compare", "--app", "PR", "--graph", "URAND",
            "--policies", "LRU", "--sanitize", "--jobs", "4",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "--jobs 1" in out

    def test_app_factories_shared_with_cli(self):
        from repro import cli

        assert cli.APP_FACTORIES is APP_FACTORIES


class TestChunkEdgeCases:
    def test_empty_policy_list_yields_no_chunks(self):
        assert policy_chunks([], chunk_size=3) == []

    def test_chunk_size_larger_than_policy_count(self):
        assert policy_chunks(["LRU", "DRRIP"], chunk_size=8) == [
            ("LRU", "DRRIP")
        ]


class TestPreparedCacheBound:
    """The per-process prepared-run cache is a bounded LRU (satellite:
    long multi-geometry sweeps must not grow worker RSS without limit)."""

    def test_cache_evicts_oldest_beyond_cap(self, monkeypatch):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "2")
        try:
            parallel._PREPARED_CACHE.clear()
            for graph in ("URAND", "KRON", "DBP"):
                run_task(
                    SweepTask(graph=graph, policies=("LRU",), scale="tiny")
                )
            assert len(parallel._PREPARED_CACHE) == 2
            cached_graphs = {
                key[1] for key in parallel._PREPARED_CACHE
            }
            # Oldest entry (URAND) evicted, most recent two retained.
            assert cached_graphs == {"KRON", "DBP"}
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)

    def test_lru_order_refreshed_on_hit(self, monkeypatch):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "2")
        try:
            parallel._PREPARED_CACHE.clear()
            run_task(SweepTask(graph="URAND", policies=("LRU",),
                               scale="tiny"))
            run_task(SweepTask(graph="KRON", policies=("LRU",),
                               scale="tiny"))
            # Touch URAND again: it becomes most-recent, so adding DBP
            # must evict KRON, not URAND.
            run_task(SweepTask(graph="URAND", policies=("DRRIP",),
                               scale="tiny"))
            run_task(SweepTask(graph="DBP", policies=("LRU",),
                               scale="tiny"))
            cached_graphs = {
                key[1] for key in parallel._PREPARED_CACHE
            }
            assert cached_graphs == {"URAND", "DBP"}
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)

    def test_default_cap_when_env_unset(self, monkeypatch):
        from repro.sim import parallel

        monkeypatch.delenv(parallel.PREPARED_CACHE_ENV, raising=False)
        assert parallel._prepared_cache_cap() == (
            parallel.DEFAULT_PREPARED_CACHE_SIZE
        )
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "junk")
        assert parallel._prepared_cache_cap() == (
            parallel.DEFAULT_PREPARED_CACHE_SIZE
        )
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "0")
        assert parallel._prepared_cache_cap() == 1


class TestTechniqueValidation:
    def test_known_techniques_pass(self):
        from repro.sim.parallel import validate_technique

        for technique in ("none", "tiling:4", "pb", "phi", "dbg:8",
                          "hats"):
            validate_technique(technique)

    def test_unknown_technique_rejected(self):
        from repro.sim.parallel import validate_technique

        with pytest.raises(ValueError):
            validate_technique("blocking")
        with pytest.raises(ValueError):
            validate_technique("pb:4")
        with pytest.raises(ValueError):
            validate_technique("tiling:0")
        with pytest.raises(ValueError):
            validate_technique("tiling:x")
