"""Artifact-store tests: content-hash keys, round-trips, bit-identical
replay from rehydrated artifacts, cache counters, corruption handling."""

import numpy as np
import pytest

from repro.cache import scaled_hierarchy
from repro.graph import datasets
from repro.sim import artifacts
from repro.sim.artifacts import (
    ArtifactStore,
    canonical_json,
    content_digest,
    graph_sha,
    trace_sha,
)
from repro.popt.rereference import build_rereference_matrix
from repro.sim import prepare_run, simulate_prepared
from repro.sim.parallel import APP_FACTORIES, SweepTask, run_task


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "arts")


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_canonical_json_handles_numpy_scalars(self):
        assert canonical_json({"n": np.int64(3)}) == canonical_json(
            {"n": 3}
        )

    def test_digest_depends_on_kind_and_key(self):
        key = {"graph": "URAND", "scale": "tiny"}
        assert content_digest("graph", key) == content_digest("graph", key)
        assert content_digest("graph", key) != content_digest(
            "prepared", key
        )
        assert content_digest("graph", key) != content_digest(
            "graph", {**key, "scale": "small"}
        )

    def test_trace_sha_memoized_and_content_keyed(self):
        graph = datasets.load("URAND", scale="tiny")
        prepared = prepare_run(APP_FACTORIES["PR"](), graph)
        first = trace_sha(prepared.trace)
        assert trace_sha(prepared.trace) == first  # memo hit
        rebuilt = prepare_run(
            APP_FACTORIES["PR"](), datasets.load("URAND", scale="tiny")
        )
        assert trace_sha(rebuilt.trace) == first  # seed-deterministic

    def test_graph_sha_distinguishes_graphs(self):
        a = datasets.load("URAND", scale="tiny")
        b = datasets.load("KRON", scale="tiny")
        assert graph_sha(a) != graph_sha(b)


class TestStoreRoundTrip:
    def test_get_miss_then_put_then_hit(self, store):
        key = {"k": 1}
        assert store.get("graph", key) is None
        store.put("graph", key,
                  arrays={"data": np.arange(4, dtype=np.int64)},
                  meta={"n": 2})
        entry = store.get("graph", key)
        assert entry["meta"]["n"] == 2
        np.testing.assert_array_equal(entry["arrays"]["data"],
                                      np.arange(4))
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1

    def test_arrays_load_as_mmap(self, store):
        store.put("graph", {"k": 2},
                  arrays={"data": np.arange(8, dtype=np.float64)})
        entry = store.get("graph", {"k": 2})
        assert isinstance(entry["arrays"]["data"], np.memmap)

    def test_corrupt_meta_is_a_miss(self, store):
        key = {"k": 3}
        store.put("graph", key)
        meta_path = store.entry_dir("graph", key) / "meta.json"
        meta_path.write_text("{not json")
        assert store.get("graph", key) is None

    def test_graph_round_trip(self, store):
        graph = datasets.load("URAND", scale="tiny", seed=42)
        artifacts.store_graph(store, "URAND", "tiny", 42, graph)
        cached = artifacts.cached_graph(store, "URAND", "tiny", 42)
        assert cached is not None
        assert graph_sha(cached) == graph_sha(graph)
        assert artifacts.cached_graph(store, "URAND", "tiny", 7) is None


class TestPreparedRoundTrip:
    def test_rehydrated_run_simulates_bit_identically(self, store):
        graph = datasets.load("URAND", scale="tiny")
        prepared = prepare_run(APP_FACTORIES["PR"](), graph)
        task = SweepTask(graph="URAND", policies=("LRU",), scale="tiny")
        artifacts.store_prepared(store, task.artifact_key(), prepared)
        rehydrated = artifacts.cached_prepared(store, task.artifact_key())
        assert rehydrated is not None
        hierarchy = scaled_hierarchy("tiny")
        for policy in ("LRU", "DRRIP", "P-OPT", "T-OPT"):
            a = simulate_prepared(prepared, policy, hierarchy)
            b = simulate_prepared(rehydrated, policy, hierarchy)
            assert (a.llc.misses, a.llc.hits, a.cycles) == (
                b.llc.misses, b.llc.hits, b.cycles
            )


class TestMatrixEntries:
    """A stored Rereference Matrix that does not decode is rebuilt; a
    bug in the decode itself is not hidden behind a rebuild."""

    def _key(self, graph):
        return {
            "graph": graph_sha(graph), "elems_per_line": 16,
            "entry_bits": 8, "variant": "inter_intra", "num_lines": None,
        }

    def _matrix(self, graph, store):
        return artifacts.rereference_matrix_for(
            graph, elems_per_line=16, entry_bits=8,
            variant="inter_intra", store=store,
        )

    def test_malformed_entry_is_rebuilt(self, store):
        graph = datasets.load("URAND", scale="tiny")
        fresh = build_rereference_matrix(graph, elems_per_line=16)
        store.put(
            artifacts.KIND_MATRIX, self._key(graph),
            arrays={"entries": fresh.entries},
            meta={"variant": "inter_intra"},  # geometry fields missing
        )
        matrix = self._matrix(graph, store)
        assert np.array_equal(matrix.entries, fresh.entries)
        assert matrix.epoch_size == fresh.epoch_size

    def test_decode_bug_raises(self, store, monkeypatch):
        graph = datasets.load("URAND", scale="tiny")
        self._matrix(graph, store)  # stores a well-formed entry

        class BrokenMeta(dict):
            def __getitem__(self, name):
                raise RuntimeError("decode bug")

        real_get = ArtifactStore.get

        def get(self, kind, key):
            entry = real_get(self, kind, key)
            return dict(entry, meta=BrokenMeta(entry["meta"]))

        monkeypatch.setattr(ArtifactStore, "get", get)
        with pytest.raises(RuntimeError, match="decode bug"):
            self._matrix(graph, store)


class TestRowsCache:
    def test_run_task_serves_cached_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.DIR_ENV,
                           str(tmp_path / "arts"))
        artifacts._STORES.clear()
        task = SweepTask(graph="URAND", policies=("LRU", "DRRIP"),
                         scale="tiny")
        cold = run_task(task)
        store = artifacts.get_store()
        assert store.counters["rows"]["writes"] == 1
        warm = run_task(task)
        assert warm == cold
        # Warm rows came from disk, key order intact (format_table
        # derives columns from the first row's insertion order).
        assert store.counters["rows"]["hits"] == 1
        assert list(warm[0].keys()) == list(cold[0].keys())

    def test_rows_cache_disable_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.DIR_ENV,
                           str(tmp_path / "arts"))
        monkeypatch.setenv("REPRO_ARTIFACTS_ROWS", "0")
        artifacts._STORES.clear()
        task = SweepTask(graph="URAND", policies=("LRU",), scale="tiny")
        run_task(task)
        run_task(task)
        store = artifacts.get_store()
        assert store.counters.get("rows", {}).get("writes", 0) == 0


class TestAtomicity:
    def test_lost_race_discards_tmp(self, store):
        key = {"k": 9}
        store.put("graph", key, meta={"v": 1})
        # A second writer for the same key loses the rename race (the
        # entry already exists) and must leave no .tmp litter behind.
        store.put("graph", key, meta={"v": 2})
        entry_parent = store.entry_dir("graph", key).parent
        leftovers = [p for p in entry_parent.iterdir()
                     if p.name.startswith(".tmp")]
        assert leftovers == []
        assert store.get("graph", key)["meta"]["v"] == 1
