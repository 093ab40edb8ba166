"""``PreparedRun.reference_result`` is computed on first read only.

No replay reads an app's algorithmic result, so preparing and
replaying a run must never pay for it; reading it computes it once,
with the same value the reference function returns directly.
"""

import numpy as np
import pytest

import repro.apps.base as apps_base
import repro.apps.components as components_module
import repro.apps.pagerank as pagerank_module
import repro.apps.pb as pb_module
import repro.apps.tiled_pagerank as tiled_module
from repro.apps import (
    BFS,
    ConnectedComponents,
    PageRank,
    PropagationBlockingBinning,
    PreparedRun,
    TiledPageRank,
    bfs_reference,
    binning_reference,
    pagerank_reference,
    shiloach_vishkin_reference,
)
from repro.cache import scaled_hierarchy
from repro.graph import datasets
from repro.sim import artifacts, prepare_run, simulate_prepared
from repro.sim.artifacts import ArtifactStore
from repro.sim.parallel import SweepTask


@pytest.fixture(scope="module")
def graph():
    return datasets.load("URAND", scale="tiny")


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_prepare_and_replay_skip_pagerank_reference(monkeypatch, graph):
    calls = count_calls(monkeypatch, pagerank_module, "pagerank_reference")
    prepared = prepare_run(PageRank(), graph)
    simulate_prepared(prepared, "LRU", scaled_hierarchy("tiny"))
    assert calls == []


# (app factory, module and name of the function computing its result,
# the eager value the app used to store).
CASES = {
    "PR": (
        PageRank, pagerank_module, "pagerank_reference",
        pagerank_reference,
    ),
    "CC": (
        ConnectedComponents, components_module,
        "shiloach_vishkin_reference", shiloach_vishkin_reference,
    ),
    "PB": (
        PropagationBlockingBinning, pb_module, "binning_reference",
        lambda graph: binning_reference(graph, 16),
    ),
    "PR-Tiled": (
        TiledPageRank, tiled_module, "pagerank_reference",
        pagerank_reference,
    ),
    "BFS": (
        BFS, apps_base, "_identity",
        lambda graph: bfs_reference(graph, source=0)[0],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reference_result_computed_once_on_read(monkeypatch, graph, case):
    factory, module, name, eager = CASES[case]
    calls = count_calls(monkeypatch, module, name)
    prepared = prepare_run(factory(), graph)
    assert calls == []
    first = prepared.reference_result
    assert prepared.reference_result is first
    assert len(calls) == 1
    np.testing.assert_array_equal(first, eager(graph))


def test_reference_result_is_read_only(graph):
    prepared = prepare_run(PageRank(), graph)
    with pytest.raises(AttributeError):
        prepared.reference_result = None


def test_run_without_reference_reads_none():
    run = PreparedRun(
        app_name="synthetic", layout=None, trace=[], irregular_streams=[]
    )
    assert run.reference_result is None


def test_store_loaded_run_reads_none(tmp_path, graph):
    store = ArtifactStore(tmp_path / "arts")
    task = SweepTask(graph="URAND", policies=("LRU",), scale="tiny")
    artifacts.store_prepared(
        store, task.artifact_key(), prepare_run(PageRank(), graph)
    )
    loaded = artifacts.cached_prepared(store, task.artifact_key())
    assert loaded is not None
    assert loaded.reference_result is None
