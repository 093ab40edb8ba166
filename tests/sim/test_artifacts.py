"""Artifact-store tests: content-hash keys, round-trips, bit-identical
replay from rehydrated artifacts, cache counters, corruption handling."""

import json
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.cache import scaled_hierarchy
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.sim import artifacts, parallel
from repro.sim.artifacts import (
    ArtifactStore,
    canonical_json,
    content_digest,
    graph_sha,
    trace_sha,
)
from repro.popt.rereference import build_rereference_matrix
from repro.sim import get_private_filter, prepare_run, simulate_prepared
from repro.sim.parallel import APP_FACTORIES, SweepTask, run_task
from repro.sim.spec import run_spec, scenario_matrix


KARATE = Path(__file__).resolve().parents[1] / "graph" / "data" / "karate.el"


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "arts")


@pytest.fixture
def ambient(tmp_path, monkeypatch):
    """The process-wide store, fresh, with empty graph and prepared-run
    memos (so every lookup below reaches the store)."""
    monkeypatch.setenv(artifacts.DIR_ENV, str(tmp_path / "ambient"))
    monkeypatch.setattr(artifacts, "_STORES", {})
    monkeypatch.setattr(datasets, "_GRAPH_MEMO", OrderedDict())
    monkeypatch.setattr(parallel, "_PREPARED_CACHE", OrderedDict())
    return artifacts.get_store()


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


    def test_read_back_hashes_no_array(self, store, monkeypatch):
        """A stored run carries the content hashes of its trace and its
        reference graphs: reading it back and keying its filter and its
        matrices hashes no array (a store read never pages the trace
        in)."""
        graph = datasets.load("URAND", scale="tiny")
        prepared = prepare_run(APP_FACTORIES["PR-Delta"](), graph)
        task = SweepTask(
            app="PR-Delta", graph="URAND", policies=("LRU",), scale="tiny"
        )
        artifacts.store_prepared(store, task.artifact_key(), prepared)
        hierarchy = scaled_hierarchy("tiny")

        def keys(run):
            return artifacts._filter_key(run.trace, hierarchy), [
                artifacts._matrix_key(
                    stream.reference_graph, stream.span.elems_per_line,
                    8, "inter_intra", stream.span.num_lines,
                )
                for stream in run.irregular_streams
            ]

        built = keys(prepared)

        def forbidden(*arrays):
            raise AssertionError("a stored run's arrays were hashed")

        monkeypatch.setattr(artifacts, "_array_sha", forbidden)
        read = artifacts.cached_prepared(store, task.artifact_key())
        assert read is not None
        assert len(read.irregular_streams) == 2
        assert keys(read) == built

    @pytest.mark.parametrize("field", ["trace_sha", "graph_sha"])
    def test_entry_without_hashes_is_bad(self, ambient, field):
        _lookup_prepared()
        (entry,) = _entries(ambient, artifacts.KIND_PREPARED)
        meta_path = entry / "meta.json"
        payload = json.loads(meta_path.read_text())
        if field == "trace_sha":
            del payload["meta"]["trace_sha"]
        else:
            del payload["meta"]["streams"][0]["graph_sha"]
        meta_path.write_text(json.dumps(payload))
        before = _counts(ambient, artifacts.KIND_PREPARED)
        _lookup_prepared()
        after = _counts(ambient, artifacts.KIND_PREPARED)
        assert after["misses"] == before["misses"] + 1
        assert after["writes"] == before["writes"] + 1
        assert after["hits"] == before["hits"]


class TestMatrixEntries:
    """A stored Rereference Matrix that does not decode is rebuilt; a
    bug in the decode itself is not hidden behind a rebuild."""

    def _key(self, graph):
        return {
            "graph": graph_sha(graph), "elems_per_line": 16,
            "entry_bits": 8, "variant": "inter_intra", "num_lines": None,
        }

    def _matrix(self, graph):
        return artifacts.get_or_build(
            artifacts.MATRIX, (graph, 16, 8, "inter_intra", None),
            lambda: build_rereference_matrix(graph, elems_per_line=16),
        )

    def test_malformed_entry_is_rebuilt(self, ambient):
        graph = datasets.load("URAND", scale="tiny")
        fresh = build_rereference_matrix(graph, elems_per_line=16)
        ambient.put(
            artifacts.KIND_MATRIX, self._key(graph),
            arrays={"entries": fresh.entries},
            meta={"variant": "inter_intra"},  # geometry fields missing
        )
        matrix = self._matrix(graph)
        assert np.array_equal(matrix.entries, fresh.entries)
        assert matrix.epoch_size == fresh.epoch_size
        # The rebuilt matrix replaced the malformed entry on disk.
        self._matrix(graph)
        assert ambient.counters[artifacts.KIND_MATRIX] == {
            "hits": 1, "misses": 1, "writes": 2,
        }

    def test_decode_bug_raises(self, ambient, monkeypatch):
        graph = datasets.load("URAND", scale="tiny")
        self._matrix(graph)  # stores a well-formed entry

        class BrokenMeta(dict):
            def __getitem__(self, name):
                raise RuntimeError("decode bug")

        real_get = ArtifactStore.get

        def get(self, kind, key):
            entry = real_get(self, kind, key)
            return dict(entry, meta=BrokenMeta(entry["meta"]))

        monkeypatch.setattr(ArtifactStore, "get", get)
        with pytest.raises(RuntimeError, match="decode bug"):
            self._matrix(graph)


def _tiny_task(policies=("P-OPT",)):
    return SweepTask(graph="URAND", policies=policies, scale="tiny")


def _prepared():
    return prepare_run(
        APP_FACTORIES["PR"](), datasets.load("URAND", scale="tiny")
    )


def _lookup_graph():
    datasets._GRAPH_MEMO.clear()
    return datasets.load("URAND", scale="tiny")


def _lookup_prepared():
    parallel._PREPARED_CACHE.clear()
    return parallel._prepared_for(_tiny_task())


def _lookup_filter():
    return get_private_filter(_prepared(), scaled_hierarchy("tiny"))


def _lookup_matrix():
    return simulate_prepared(_prepared(), "P-OPT", scaled_hierarchy("tiny"))


def _lookup_rows():
    return run_task(_tiny_task(("LRU",)))


#: Every kind's lookup through its caller in the program, each starting
#: from an empty in-process memory so it reaches the store.
LOOKUPS = {
    artifacts.KIND_GRAPH: _lookup_graph,
    artifacts.KIND_PREPARED: _lookup_prepared,
    artifacts.KIND_FILTER: _lookup_filter,
    artifacts.KIND_MATRIX: _lookup_matrix,
    artifacts.KIND_ROWS: _lookup_rows,
}


def _entries(store, kind):
    return sorted(path.parent for path in (store.root / kind).rglob(
        "meta.json"
    ))


def _spoil(entry):
    """Truncate an entry's first array, or drop its rows field."""
    arrays = sorted(entry.glob("*.npy"))
    if arrays:
        with open(arrays[0], "r+b") as handle:
            handle.truncate(100)
        return arrays[0]
    meta_path = entry / "meta.json"
    payload = json.loads(meta_path.read_text())
    del payload["meta"]["rows"]
    meta_path.write_text(json.dumps(payload))
    return meta_path


def _counts(store, kind):
    return dict(store.counters.get(
        kind, {"hits": 0, "misses": 0, "writes": 0}
    ))


class TestBadEntries:
    """One rule for every kind: an entry that does not read or decode is
    a counted miss (never a hit), is rebuilt and replaced on disk, and
    the next lookup hits; any other error propagates."""

    @pytest.mark.parametrize("kind", sorted(LOOKUPS))
    def test_bad_entry_is_a_miss_and_is_replaced(self, ambient, kind):
        lookup = LOOKUPS[kind]
        lookup()
        entries = _entries(ambient, kind)
        assert entries
        spoiled = {entry: _spoil(entry) for entry in entries}
        sizes = {entry: path.stat().st_size
                 for entry, path in spoiled.items()}
        before = _counts(ambient, kind)
        lookup()
        after = _counts(ambient, kind)
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + len(entries)
        assert after["writes"] == before["writes"] + len(entries)
        for entry, path in spoiled.items():
            assert path.stat().st_size > sizes[entry]
        lookup()
        final = _counts(ambient, kind)
        assert final["hits"] == after["hits"] + len(entries)
        assert final["misses"] == after["misses"]

    def test_miss_keeps_a_concurrent_write(self, ambient, monkeypatch):
        """A lookup that found no entry removes none: an entry another
        worker renames into place after the miss stays, and the rebuild
        finds it there, so the entry is written once."""
        real_get = ArtifactStore.get

        def get(self, kind_name, key):
            found = real_get(self, kind_name, key)
            if found is None and kind_name == artifacts.KIND_GRAPH:
                # The other worker's write lands between miss and build.
                real_put(self, kind_name, key, meta={"num_vertices": 1},
                         arrays={"offsets": np.zeros(2, np.int64),
                                 "neighbors": np.zeros(0, np.int32)})
            return found

        real_put = ArtifactStore.put
        monkeypatch.setattr(ArtifactStore, "get", get)
        _lookup_graph()
        assert _counts(ambient, artifacts.KIND_GRAPH) == {
            "hits": 0, "misses": 1, "writes": 1,
        }
        assert len(_entries(ambient, artifacts.KIND_GRAPH)) == 1

    @pytest.mark.parametrize("kind", sorted(LOOKUPS))
    def test_decode_bug_raises(self, ambient, monkeypatch, kind):
        lookup = LOOKUPS[kind]
        lookup()

        class Broken(dict):
            def __getitem__(self, name):
                raise RuntimeError("decode bug")

            def get(self, name, default=None):
                raise RuntimeError("decode bug")

        real_get = ArtifactStore.get

        def get(self, kind_name, key):
            entry = real_get(self, kind_name, key)
            if entry is None or kind_name != kind:
                return entry
            return {"meta": Broken(entry["meta"]),
                    "arrays": Broken(entry["arrays"])}

        monkeypatch.setattr(ArtifactStore, "get", get)
        with pytest.raises(RuntimeError, match="decode bug"):
            lookup()


def test_no_store_derives_no_key(monkeypatch):
    """Without a store no content hash runs: not the trace's, not a
    reference graph's, not a ``file:`` graph's."""
    monkeypatch.delenv(artifacts.DIR_ENV, raising=False)
    monkeypatch.setattr(parallel, "_PREPARED_CACHE", OrderedDict())

    def forbidden(*args):
        raise AssertionError("a store key was derived without a store")

    monkeypatch.setattr(artifacts, "_array_sha", forbidden)
    monkeypatch.setattr(artifacts, "file_content_sha", forbidden)
    rows = run_task(SweepTask(
        graph=f"file:{KARATE}",
        policies=("LRU", "P-OPT"), scale="tiny",
    ))
    assert [row["policy"] for row in rows] == ["LRU", "P-OPT"]


class TestMemoryFirst:
    def test_cold_serial_matrix_reads_no_graph_back(
        self, ambient, monkeypatch
    ):
        """A graph the process holds is never read back from the store,
        and its transpose is built once."""
        transposes = []
        real_build = CSRGraph._build_transpose

        def counting(self):
            transposes.append(self.num_vertices)
            return real_build(self)

        monkeypatch.setattr(CSRGraph, "_build_transpose", counting)
        run_spec(scenario_matrix(
            scale="small", graphs=("DBP", "KRON", "URAND"),
        ))
        assert ambient.counters[artifacts.KIND_GRAPH] == {
            "hits": 0, "misses": 3, "writes": 3,
        }
        assert len(transposes) == 3


class TestWorkerCounters:
    def test_pool_counts_reach_the_parent(self, tmp_path, monkeypatch):
        """A cold matrix writes the same entries per kind at jobs 2 as
        at jobs 1, and the parent's counters see every write: each
        worker returns what its tasks moved on its counters."""
        spec = scenario_matrix(
            scale="tiny", graphs=("URAND",), policies=("LRU", "P-OPT"),
            techniques=("none", "tiling:4"), llc_factors=(1, 2),
        )
        writes = {}
        for jobs in (1, 2):
            monkeypatch.setenv(artifacts.DIR_ENV, str(tmp_path / f"{jobs}"))
            monkeypatch.setattr(artifacts, "_STORES", {})
            monkeypatch.setattr(datasets, "_GRAPH_MEMO", OrderedDict())
            monkeypatch.setattr(parallel, "_PREPARED_CACHE", OrderedDict())
            run_spec(spec, jobs=jobs)
            writes[jobs] = {
                kind: counts["writes"]
                for kind, counts in
                artifacts.get_store().stats()["by_kind"].items()
            }
        assert writes[2] == writes[1]
        assert set(writes[1]) == {
            artifacts.KIND_GRAPH, artifacts.KIND_PREPARED,
            artifacts.KIND_FILTER, artifacts.KIND_MATRIX,
            artifacts.KIND_ROWS,
        }
        assert all(count > 0 for count in writes[1].values())


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
