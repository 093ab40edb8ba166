"""Next-ref kernel throughput: T-OPT/P-OPT replay kernels vs generic.

``bench_popt_kernel_throughput`` isolates phase 3 for the paper's own
policies: for T-OPT and all three P-OPT variants it times the generic
per-access LLC loop against the next-ref replay kernel (``t-opt`` /
``p-opt`` in ``KERNEL_TABLE``) over identical, pre-warmed caches, and
writes ``results/BENCH_popt_kernels.json``. Beyond the timing, every row
asserts the bit-identity contract: same miss counts from both paths and
matching engine-cost counters (``rm_lookups``, ties, epoch transitions,
``bytes_streamed`` — the inputs to the timing model and Fig. 15).

Every policy must clear both floors. The bench needs the compiled
kernels: without them every policy replays through the generic loop,
and a generic-vs-generic timing must neither pass nor fail a floor, so
it skips, naming the build error, on a host without a working C
toolchain.
"""

import pytest
from common import get_scale, report, run_once, write_json_report

from repro.sim import ckernels
from repro.sim.experiments import (
    POPT_KERNEL_SWEEP_POLICIES,
    kernel_throughput_sweep,
)

pytestmark = pytest.mark.skipif(
    not ckernels.available(),
    reason=f"compiled kernels unavailable: {ckernels.build_error()}",
)

# The conservative floor and the floor all next-ref policies must clear
# with the compiled kernels.
KERNEL_SPEEDUP_FLOOR = 1.3
COMPILED_SPEEDUP_FLOOR = 5.0


def bench_popt_kernel_throughput(benchmark):
    rows = run_once(
        benchmark,
        kernel_throughput_sweep,
        policies=POPT_KERNEL_SWEEP_POLICIES,
        scale=get_scale(),
    )
    report(
        "popt_kernels",
        "Next-ref kernel throughput (phase-3 replay, generic vs kernel)",
        rows,
        notes="generic = per-access SetAssociativeCache loop with "
        "POPT/TOPT victim hooks; kernel = the compiled t-opt/p-opt "
        "replay kernels. Identical miss counts and engine-cost counters "
        "are asserted, caches pre-warmed.",
    )
    path = write_json_report(
        "popt_kernels", {"scale": get_scale(), "rows": rows}
    )
    assert path.exists()

    assert {row["policy"] for row in rows} >= set(
        POPT_KERNEL_SWEEP_POLICIES
    )
    for row in rows:
        assert row["kernel"] is not None, row
        assert row["misses_generic"] == row["misses_kernel"], row
        assert row["counters_match"], row
        assert row["kernel_speedup"] >= KERNEL_SPEEDUP_FLOOR, row
        assert row["kernel_speedup"] >= COMPILED_SPEEDUP_FLOOR, row
