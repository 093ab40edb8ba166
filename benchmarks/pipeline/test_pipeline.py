"""Smoke test of the pipeline benchmark (tiny scale, a few seconds).

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import adjacent_pairs, verdict
from workloads import WORKLOADS, build_spec, write_ingest_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _smoke(trace: int, tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "runs.json"
    proc = _run("--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return {
        "trace": trace, "stdout": proc.stdout, "out": out,
        "summary": json.loads(proc.stdout.strip().splitlines()[-1]),
        "runs": json.loads(out.read_text())["runs"],
    }


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(0, tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(1, tmp_path_factory)


@pytest.mark.parametrize("which", ["untraced", "traced"])
def test_every_metric_is_printed_with_its_unit(which, request):
    smoke = request.getfixturevalue(which)
    trace, stdout, summary = smoke["trace"], smoke["stdout"], smoke["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    metrics = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        for metric in metrics:
            printed = summary["metrics"][f"{workload.name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert any(
                workload.name in line and f" {metric['name']} " in line
                and f" {metric['unit']} " in line
                for line in stdout.splitlines()
            ), (workload.name, metric["name"])


def test_traced_run_covers_the_sweep(traced):
    for record in traced["runs"]:
        assert min(record["samples"]["trace.coverage"]) >= 0.95, record["workload"]


def test_compare_reports_identical_inputs_within_bound(untraced):
    out = untraced["out"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert len(verdicts) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert all(line.endswith("within bound") for line in verdicts), verdicts


def test_traced_mirror_rows_equal_run_spec_rows(tmp_path):
    from repro.sim import artifacts
    from repro.sim.spec import run_spec
    from tracing import Tracer, traced_run_spec

    spec = build_spec("store-write", 3, True, tmp_path)
    untraced = run_spec(spec)
    artifacts.configure(tmp_path / "store")
    try:
        traced = traced_run_spec(spec, Tracer())
    finally:
        artifacts.configure(None)
    assert json.dumps(traced) == json.dumps(untraced)


def _verdict(base, change, lower_is_better=True, pairs=None):
    pairs = list(zip(base, change)) if pairs is None else pairs
    return verdict(base, change, pairs, 0.1, lower_is_better)["verdict"]


def test_compare_verdicts():
    base = [10.0 + 0.01 * i for i in range(10)]
    faster = [x * 0.8 for x in base]
    assert _verdict(base, faster) == "better"
    assert _verdict(base, faster, pairs=[]) == "within bound"
    assert _verdict(base, [x * 1.2 for x in base]) == "worse"
    assert _verdict(base, [x * 1.05 for x in base]) == "within bound"
    noisy = [10.0, 14.0] * 5
    assert _verdict(noisy, noisy) == "unresolved"
    # higher-is-better metrics flip the direction
    assert _verdict(base, [x * 1.2 for x in base], lower_is_better=False) == "better"


def test_compare_pairs_only_back_to_back_runs():
    base = [(float(t), {"wall_s": 1.0}) for t in range(10)]
    after = [(float(t + 10), {"wall_s": 0.5}) for t in range(10)]
    assert len(adjacent_pairs(base, after, "wall_s")) == 1
    interleaved = [(t + 0.5, {"wall_s": 0.5}) for t, _ in base]
    pairs = adjacent_pairs(base, interleaved, "wall_s")
    assert pairs == [(1.0, 0.5)] * 10


def test_ingest_generator_is_deterministic(tmp_path):
    first = write_ingest_inputs(tmp_path / "a", 7, "smoke")
    again = write_ingest_inputs(tmp_path / "b", 7, "smoke")
    other = write_ingest_inputs(tmp_path / "c", 8, "smoke")
    assert first == again
    assert first != other
