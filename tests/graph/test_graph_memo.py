"""The per-process graph memo inside ``datasets.load``.

A sweep crosses every app with every graph; the memo makes each graph a
one-time build per process. These tests pin the build count on an
app-major sweep, that an edited ``file:`` graph reloads, and that a
memoized graph cannot be written through.
"""

import dataclasses
from collections import Counter, OrderedDict

import pytest

from repro.graph import datasets, io, uniform_random
from repro.sim import artifacts, parallel
from repro.sim.spec import ExperimentSpec, run_spec


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(datasets, "_GRAPH_MEMO", OrderedDict())
    monkeypatch.delenv(artifacts.DIR_ENV, raising=False)


@pytest.fixture
def build_counts(monkeypatch, empty_memo):
    """Count generator calls per graph name."""
    calls = Counter()
    for name, spec in list(datasets._BY_NAME.items()):
        def build(n, seed, _name=name, _build=spec.build):
            calls[_name] += 1
            return _build(n, seed)

        monkeypatch.setitem(
            datasets._BY_NAME, name, dataclasses.replace(spec, build=build)
        )
    return calls


def test_app_major_sweep_builds_each_graph_once(build_counts, monkeypatch):
    monkeypatch.setattr(parallel, "_PREPARED_CACHE", OrderedDict())
    spec = ExperimentSpec(
        name="memo", graphs=("URAND", "DBP", "KRON"), apps=("PR", "CC"),
        policies=("LRU",), scale="tiny",
        order=("app", "graph", "technique", "llc", "replay"),
    )
    units = spec.expand()
    assert [(u.app, u.graph) for u in units][:4] == [
        ("PR", "URAND"), ("PR", "DBP"), ("PR", "KRON"), ("CC", "URAND"),
    ]
    rows = run_spec(spec, jobs=1)
    assert len(rows) == 6
    assert build_counts == {"URAND": 1, "DBP": 1, "KRON": 1}


def test_memo_is_bounded_lru(build_counts):
    names = [f"URAND@{64 + i}" for i in range(datasets.GRAPH_MEMO_SIZE + 1)]
    for name in names:
        datasets.load(name)
    assert len(datasets._GRAPH_MEMO) == datasets.GRAPH_MEMO_SIZE
    datasets.load(names[-1])
    datasets.load(names[0])  # the least recently used one was evicted
    assert build_counts["URAND"] == len(names) + 1


def test_memoized_arrays_are_read_only(empty_memo):
    graph = datasets.load("URAND", scale="tiny")
    assert datasets.load("URAND", scale="tiny") is graph
    with pytest.raises(ValueError, match="read-only"):
        graph.neighbors[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        graph.offsets[-1] = 0


def test_rewritten_file_graph_reloads(empty_memo, tmp_path):
    path = tmp_path / "g.el"
    io.save_edge_list(uniform_random(40, avg_degree=2.0, seed=1), path)
    first = datasets.load(f"file:{path}")
    assert datasets.load(f"file:{path}") is first
    # A different size changes the signature even where the rewrite
    # lands in the same mtime tick.
    io.save_edge_list(uniform_random(50, avg_degree=3.0, seed=2), path)
    second = datasets.load(f"file:{path}")
    assert second is not first
    assert (first.num_vertices, second.num_vertices) == (40, 50)
