"""Shared plumbing for the benchmark harnesses.

``bench_figures.py`` regenerates every paper figure and the other
``bench_*.py`` files the tables, ablations and throughput reports: each
runs its experiment once under pytest-benchmark (wall-clock of the whole
experiment), prints the rows the paper reports, and writes them to
``benchmarks/results/``, stamped with the scale and the source commit,
so EXPERIMENTS.md can cite a concrete run. Results at the default
``small`` scale keep the plain name (``fig10.txt``,
``BENCH_kernels.json``); any other scale adds it as a suffix
(``fig10_tiny.txt``, ``BENCH_kernels_tiny.json``), so a smoke run at
``tiny`` never overwrites the recorded ``small`` results.

Environment knobs:

- ``REPRO_SCALE``  — graph/cache scale profile (default ``small``).
- ``REPRO_GRAPHS`` — comma-separated subset of Table III graph names.
- ``REPRO_ARTIFACTS_DIR`` — artifact-store directory; when set, the
  figures (which run through the declarative spec layer) reuse cached
  traces/filters/rows across benchmark invocations.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Sequence

from repro.graph.datasets import graph_names, is_file_spec
from repro.sim.artifacts import get_store
from repro.sim.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def get_scale() -> str:
    return os.environ.get("REPRO_SCALE", "small")


def get_graphs() -> Sequence[str]:
    """Graph subset from ``REPRO_GRAPHS``, validated against Table III.

    A typo'd graph name used to surface minutes later as a KeyError deep
    inside ``datasets.load``; fail fast here instead, listing the valid
    names. ``file:<path>`` specs pass through unvalidated — their loader
    already fails fast with the offending path.
    """
    raw = os.environ.get("REPRO_GRAPHS", "")
    if not raw:
        return tuple(graph_names())
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    valid = tuple(graph_names())
    unknown = [
        name for name in names
        if name not in valid and not is_file_spec(name)
    ]
    if unknown:
        raise SystemExit(
            f"REPRO_GRAPHS names unknown graph(s) {unknown!r}; "
            f"valid names: {', '.join(valid)} or file:<path> specs"
        )
    return names


@functools.lru_cache(maxsize=None)
def source_commit() -> str:
    """Short hash of the checked-out commit ("unknown" outside git).

    The hash gains ``+dirty`` when the code that produces the results
    (``src/`` or a ``benchmarks/*.py`` script) differs from that commit.
    Files under ``results/`` do not count, so regenerating several
    reports in a row stamps them all alike.
    """
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=RESULTS_DIR.parent.parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        changed = git("status", "--porcelain", "--", "src", "benchmarks/*.py")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{commit}+dirty" if changed else commit


def scaled_name(name: str) -> str:
    """``name`` at the default ``small`` scale, else ``name_<scale>``."""
    scale = get_scale()
    return name if scale == "small" else f"{name}_{scale}"


def report(experiment_id: str, title: str,
           rows: List[Dict[str, object]],
           notes: str = "") -> None:
    """Print the experiment's rows and persist them as
    ``results/<experiment_id>.txt`` (named by scale, see
    :func:`scaled_name`).

    When an artifact store is active (``REPRO_ARTIFACTS_DIR``), the
    saved report records its hit/miss counters so a reader can tell a
    warm-cache timing from a cold one.
    """
    store = get_store()
    if store is not None:
        stats = store.stats()
        notes = (notes + "\n" if notes else "") + (
            f"artifact cache: {stats['hits']} hits / "
            f"{stats['misses']} misses / {stats['writes']} writes "
            f"({stats['root']})"
        )
    name = scaled_name(experiment_id)
    table = format_table(
        rows,
        f"{name}: {title} "
        f"[scale={get_scale()}, commit={source_commit()}]",
    )
    text = table + ("\n\n" + notes if notes else "") + "\n"
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


def write_json_report(name: str, payload: Dict[str, object]) -> Path:
    """Persist a throughput report as ``results/BENCH_<name>.json``,
    named by scale like :func:`report` (CI reads the ``small`` file back
    and checks its floors)."""
    path = RESULTS_DIR / f"BENCH_{scaled_name(name)}.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
