"""Parallel sweep tests: worker results are bit-identical to serial,
ordering is deterministic, and the CLI plumbs ``--jobs`` through."""

from collections import OrderedDict

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
        from repro.sim.spec import FIGURES

        serial = FIGURES["fig02"].run(jobs=1, graphs=("URAND",))
        fanned = FIGURES["fig02"].run(jobs=2, graphs=("URAND",))
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
    """The per-process prepared-run cache is a bounded LRU, so long
    multi-geometry sweeps do not grow worker RSS without limit."""

    @pytest.fixture
    def cache(self, monkeypatch):
        cache = OrderedDict()
        monkeypatch.setattr(parallel, "_PREPARED_CACHE", cache)
        monkeypatch.setattr(parallel, "DEFAULT_PREPARED_CACHE_SIZE", 2)
        return cache

    def test_cache_evicts_oldest_beyond_cap(self, cache):
        for graph in ("URAND", "KRON", "DBP"):
            run_task(SweepTask(graph=graph, policies=("LRU",), scale="tiny"))
        assert len(cache) == 2
        # Oldest entry (URAND) evicted, most recent two retained.
        assert {key[1] for key in cache} == {"KRON", "DBP"}

    def test_lru_order_refreshed_on_hit(self, cache):
        run_task(SweepTask(graph="URAND", policies=("LRU",), scale="tiny"))
        run_task(SweepTask(graph="KRON", policies=("LRU",), scale="tiny"))
        # Touch URAND again: it becomes most-recent, so adding DBP
        # must evict KRON, not URAND.
        run_task(SweepTask(graph="URAND", policies=("DRRIP",), scale="tiny"))
        run_task(SweepTask(graph="DBP", policies=("LRU",), scale="tiny"))
        assert {key[1] for key in cache} == {"URAND", "DBP"}


class TestTechniqueValidation:
    def test_known_techniques_pass(self):
        from repro.sim.parallel import validate_technique

        for technique in ("none", "tiling:4", "pb", "phi", "dbg:8",
                          "hats", "epoch-serial"):
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
        with pytest.raises(ValueError):
            validate_technique("epoch-serial:8")

    @pytest.mark.parametrize("app", sorted(set(APP_FACTORIES) - {"PR"}))
    def test_epoch_serial_refuses_other_apps(self, app):
        # The frontier apps ignore a vertex order and trace several
        # rounds, which the main-thread vertex channel cannot follow.
        from repro.sim.parallel import validate_technique

        validate_technique("epoch-serial", "PR")
        with pytest.raises(ValueError, match="PageRank only"):
            validate_technique("epoch-serial", app)
        with pytest.raises(ValueError, match="PageRank only"):
            ExperimentSpec(
                name="threads", graphs=("URAND",), policies=("P-OPT",),
                apps=("PR", app), techniques=("epoch-serial",),
            )
        with pytest.raises(ValueError, match="PageRank only"):
            parallel._build_prepared(SweepTask(
                graph="URAND", app=app, scale="tiny",
                technique="epoch-serial",
            ))


class TestEpochSerialTechnique:
    def test_threads_publish_the_main_vertex(self):
        """``epoch-serial`` replays the serial run's accesses, its
        ``vertices`` channel holding the main thread's vertex."""
        import numpy as np

        from repro.apps import main_thread_vertex_channel
        from repro.popt.rereference import epoch_geometry

        def trace(technique):
            # Epochs of 64 vertices, so 8 threads get two-vertex chunks.
            task = SweepTask(graph="URAND@16384", scale="tiny",
                             technique=technique)
            return parallel._build_prepared(task).trace

        serial, threaded = trace("none"), trace("epoch-serial")
        assert np.array_equal(
            np.sort(serial.addresses), np.sort(threaded.addresses)
        )
        _, epoch_size, _ = epoch_geometry(len(np.unique(serial.vertices)), 8)
        assert np.array_equal(threaded.vertices, main_thread_vertex_channel(
            threaded, epoch_size, num_threads=parallel.EPOCH_SERIAL_THREADS,
            chunk=max(1, epoch_size // 32),
        ).vertices)
        assert len(np.unique(threaded.vertices)) < len(
            np.unique(serial.vertices)
        )
