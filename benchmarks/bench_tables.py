"""Tables I-IV: setup tables as data, and preprocessing cost (Table IV).

Tables I-III validate that the encoded configuration matches the paper;
Table IV measures Rereference Matrix construction wall-clock against the
PageRank kernel on the same host (paper: preprocessing ~= 20% of one
PageRank execution on average, amortizable across applications).
"""

import statistics

from common import get_graphs, get_scale, report, run_once

from repro.sim.experiments import TABLE4_REPEATS, table4_preprocessing
from repro.sim.tables import table1_rows, table2_rows, table3_rows


def bench_table1_simulation_parameters(benchmark):
    rows = run_once(benchmark, table1_rows)
    report("table1", "Simulation parameters (paper machine)", rows)
    assert rows[-1]["latency"].startswith("173.0ns")
    assert any("24576KB" in row["geometry"] for row in rows)


def bench_table2_applications(benchmark):
    rows = run_once(benchmark, table2_rows)
    report("table2", "Applications (Table II)", rows)
    assert len(rows) == 5
    frontier_apps = [r["app"] for r in rows if r["frontier"] == "Y"]
    assert frontier_apps == ["PR-Delta", "Radii", "MIS"]


def bench_table3_graphs(benchmark):
    rows = run_once(benchmark, table3_rows)
    report("table3", "Input graphs (Table III, paper-scale metadata)", rows)
    assert len(rows) == 5


def bench_table4_preprocessing(benchmark):
    rows = run_once(
        benchmark, table4_preprocessing,
        scale=get_scale(), graphs=get_graphs(),
    )
    ratios = [row["ratio"] for row in rows]
    # Recorded per scale (small in table4.txt), so EXPERIMENTS.md can
    # state how the ratio moves with scale from measured files.
    scale = get_scale()
    report(
        "table4" if scale == "small" else f"table4_{scale}",
        "P-OPT preprocessing cost vs PageRank runtime",
        rows,
        notes=f"Mean RM-build / PageRank ratio: "
        f"{statistics.mean(ratios):.2f} (paper: ~0.20; both sides here "
        "are vectorized numpy on one host, each the median of "
        f"{TABLE4_REPEATS} runs).",
    )
    # Preprocessing must be a fraction of a full PageRank run, not a
    # multiple of it. At "tiny" scale fixed numpy overheads dominate both
    # sides, so the ratio is only meaningful from "small" up.
    if scale != "tiny":
        assert statistics.mean(ratios) < 1.0
