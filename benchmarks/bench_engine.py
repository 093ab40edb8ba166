"""Replay-engine throughput: three-phase fast engine vs reference path,
plus per-policy replay-kernel speedups.

``bench_engine_throughput`` replays one PageRank trace under a
four-policy LLC sweep with both engines. The fast engine decodes the
trace once, filters the Bit-PLRU private levels once, and replays only
the LLC-visible stream per policy; the reference path walks the full
hierarchy per access per policy. The rows (and
``results/BENCH_engine.json``) record wall-time, accesses/sec, filter
build/reuse counters, and the end-to-end speedup.

``bench_kernel_throughput`` isolates phase 3: for each kernel-covered
policy it times the generic per-access LLC loop against the policy's
replay kernel over identical, pre-warmed caches, and writes
``results/BENCH_kernels.json``. The floors asserted here are
deliberately conservative; the measured speedups are an order of
magnitude higher.

Both benches need the compiled kernels: without them the fast engine
replays every policy through the generic loop, and a generic-vs-generic
timing must neither pass nor fail a floor. So they skip, naming the
build error, on a host without a working C toolchain.
"""

import pytest
from common import get_scale, report, run_once, write_json_report

from repro.sim import ckernels
from repro.sim.experiments import (
    ENGINE_SWEEP_POLICIES,
    KERNEL_SWEEP_POLICIES,
    engine_throughput_sweep,
    kernel_throughput_sweep,
)

pytestmark = pytest.mark.skipif(
    not ckernels.available(),
    reason=f"compiled kernels unavailable: {ckernels.build_error()}",
)


def bench_engine_throughput(benchmark):
    rows = run_once(benchmark, engine_throughput_sweep, scale=get_scale())
    report(
        "engine",
        "Replay-engine throughput (4-policy LLC sweep)",
        rows,
        notes="fast = decode once + private-level filter once + "
        "LLC-visible replay per policy; reference = full per-access "
        "hierarchy walk per policy.",
    )
    path = write_json_report("engine", {"scale": get_scale(), "rows": rows})
    assert path.exists()

    by_engine = {}
    for row in rows:
        by_engine.setdefault(row["engine"], []).append(row)
    assert by_engine.get("reference") and by_engine.get("fast")
    for row in rows:
        assert row["accesses_per_s"] > 0, row
    miss_columns = [f"misses_{p}" for p in ENGINE_SWEEP_POLICIES]
    for ref, fast in zip(by_engine["reference"], by_engine["fast"]):
        # Same LLC outcome from both engines...
        for column in miss_columns:
            assert ref[column] == fast[column], column
        # ...with the private levels replayed exactly once...
        assert fast["filters_built"] == 1
        assert fast["filters_reused"] == len(ENGINE_SWEEP_POLICIES) - 1
        # ...the Amdahl phase split populated (filter built once,
        # replay per policy; the fused build decodes inline so decode
        # may be 0.0 but never negative)...
        assert fast["filter_seconds"] > 0, fast
        assert fast["replay_seconds"] > 0, fast
        assert fast["decode_seconds"] >= 0, fast
        # ...and an end-to-end sweep speedup of at least 5x (the fused
        # front-end plus SHiP/Hawkeye kernels; pre-kernel fast engines
        # measured ~2x here).
        assert fast["speedup_vs_reference"] >= 5.0, fast


# The floor every kernel-covered policy must clear, and the higher floor
# for the flagship policies. Measured values are far above both
# (~21-93x), so failing these means dispatch regressed, not noise.
KERNEL_SPEEDUP_FLOOR = 1.3
COMPILED_SPEEDUP_FLOOR = 5.0
COMPILED_FLOOR_POLICIES = ("LRU", "DRRIP", "OPT", "SHiP-PC", "Hawkeye")


def bench_kernel_throughput(benchmark):
    rows = run_once(
        benchmark,
        kernel_throughput_sweep,
        policies=KERNEL_SWEEP_POLICIES,
        scale=get_scale(),
    )
    report(
        "kernels",
        "Replay-kernel throughput (phase-3 replay, generic vs kernel)",
        rows,
        notes="generic = per-access SetAssociativeCache loop over the "
        "LLC-visible stream; kernel = the policy's compiled replay "
        "kernel. Identical miss counts are asserted, caches "
        "pre-warmed.",
    )
    path = write_json_report("kernels", {"scale": get_scale(), "rows": rows})
    assert path.exists()

    assert {row["policy"] for row in rows} >= set(KERNEL_SWEEP_POLICIES)
    for row in rows:
        assert row["misses_generic"] == row["misses_kernel"], row
        assert row["kernel_speedup"] >= KERNEL_SPEEDUP_FLOOR, row
        if row["policy"] in COMPILED_FLOOR_POLICIES:
            assert row["kernel_speedup"] >= COMPILED_SPEEDUP_FLOOR, row
