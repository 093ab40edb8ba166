"""Dynamic-graph preprocessing: incremental RM update vs full rebuild.

The Rereference-Matrix build is P-OPT's preprocessing tax (Table IV).
In dynamic mode (``repro.graph.dynamic``) the graph mutates between
epochs, so the tax recurs — unless only the delta-touched rows are
recomputed. This bench applies seeded random deltas of growing batch
size to a URAND stand-in and times the full vectorized
``build_rereference_matrix`` against ``update_rereference_matrix``
from the same pre-delta matrix, asserting the two produce bit-identical
entries at every batch size. ``results/BENCH_dynamic.json`` records the
timings and the crossover batch size where the incremental path stops
winning; CI asserts bit-identity everywhere and a >=2x incremental
speedup for small batches (the floor is conservative — measured
small-batch speedups are ~3-4x).

Timing protocol: the post-delta graph and its transpose are built once
outside both timed regions (both paths need the same post-delta
reference graph); each path takes the best of three runs.
"""

import time

import numpy as np
from common import get_scale, report, run_once, write_json_report

from repro.graph import apply_delta, generators, random_delta
from repro.graph.datasets import SCALES
from repro.popt.rereference import (
    build_rereference_matrix,
    update_rereference_matrix,
)

#: Delta batch sizes (insertions + deletions, split evenly).
BATCHES = (4, 16, 64, 256, 1024, 4096)

#: Batches the small-delta speedup floor applies to.
SMALL_BATCHES = (4, 16, 64)
SPEEDUP_FLOOR = 2.0

ELEMS_PER_LINE = 16
ENTRY_BITS = 8
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def dynamic_update_sweep(scale: str):
    graph = generators.uniform_random(SCALES[scale], avg_degree=4.0, seed=42)
    reference = graph.transpose()
    base = build_rereference_matrix(
        reference, elems_per_line=ELEMS_PER_LINE, entry_bits=ENTRY_BITS
    )
    rows = []
    for batch in BATCHES:
        delta = random_delta(graph, batch // 2, batch // 2, seed=batch)
        updated = apply_delta(graph, delta)
        new_reference = updated.transpose()
        changed = delta.touched_destinations()

        rebuild_s = _best_of(lambda: build_rereference_matrix(
            new_reference,
            elems_per_line=ELEMS_PER_LINE,
            entry_bits=ENTRY_BITS,
        ))
        incremental_s = _best_of(lambda: update_rereference_matrix(
            base, new_reference, changed
        ))
        rebuilt = build_rereference_matrix(
            new_reference,
            elems_per_line=ELEMS_PER_LINE,
            entry_bits=ENTRY_BITS,
        )
        incremental = update_rereference_matrix(
            base, new_reference, changed
        )
        rows.append(
            {
                "batch": batch,
                "changed_rows": int(
                    len(np.unique(changed // ELEMS_PER_LINE))
                ),
                "total_rows": base.num_lines,
                "rebuild_ms": round(rebuild_s * 1e3, 3),
                "incremental_ms": round(incremental_s * 1e3, 3),
                "speedup": round(rebuild_s / incremental_s, 2),
                "identical": bool(
                    np.array_equal(rebuilt.entries, incremental.entries)
                ),
            }
        )
    return rows


def bench_dynamic_update(benchmark):
    scale = get_scale()
    rows = run_once(benchmark, dynamic_update_sweep, scale)
    crossover = next(
        (row["batch"] for row in rows if row["speedup"] <= 1.0), None
    )
    report(
        "dynamic",
        "Incremental RM update vs full rebuild across delta batch sizes",
        rows,
        notes=f"crossover batch (incremental stops winning): {crossover}",
    )
    path = write_json_report(
        "dynamic",
        {
            "scale": scale,
            "elems_per_line": ELEMS_PER_LINE,
            "entry_bits": ENTRY_BITS,
            "rows": rows,
            "crossover_batch": crossover,
        }
    )
    assert path.exists()

    for row in rows:
        assert row["identical"], f"divergence at batch {row['batch']}"
    for row in rows:
        if row["batch"] in SMALL_BATCHES:
            assert row["speedup"] >= SPEEDUP_FLOOR, (
                f"batch {row['batch']}: incremental only "
                f"{row['speedup']}x over rebuild "
                f"(floor {SPEEDUP_FLOOR}x)"
            )
