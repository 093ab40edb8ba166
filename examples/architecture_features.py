"""P-OPT's architecture mechanisms beyond the replacement decision.

Demonstrates the Section V machinery on a real run:

- way reservation math (how many LLC ways the Rereference Matrix pins,
  and the Fig. 11 P-OPT vs P-OPT-SE capacity trade-off);
- the next-ref / streaming engine cost counters (RM lookups, epoch
  transitions, bytes streamed) and what they cost in the timing model,
  including a pessimistic non-overlapped next-ref engine;
- NUCA bank-locality of RM lookups under P-OPT's modified mapping
  (Section V-E);
- epoch-serial parallel execution with a main-thread currVertex
  (Section V-F).

Run:  python examples/architecture_features.py [scale]
"""

import sys

from repro import apps, graph, sim
from repro.apps import (
    epoch_serial_parallel_order,
    main_thread_vertex_channel,
)
from repro.cache import BankMapper, scaled_hierarchy
from repro.popt.arch import nuca_locality_report
from repro.popt.rereference import epoch_geometry
from repro.sim.timing import TimingModel


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    g = graph.load("DBP", scale=scale)
    hierarchy = scaled_hierarchy(scale)
    prepared = sim.prepare_run(apps.PageRank(), g)

    print("=== Way reservation (Section V-A / Fig. 11) ===")
    for policy in ("P-OPT", "P-OPT-SE"):
        result = sim.simulate_prepared(prepared, policy, hierarchy)
        print(f"  {policy:9s}: {result.reserved_llc_ways} of "
              f"{hierarchy.llc.num_ways} ways reserved, miss rate "
              f"{result.llc_miss_rate:.3f}")

    print("\n=== Engine cost counters (Sections V-C/V-D) ===")
    result = sim.simulate_prepared(prepared, "P-OPT", hierarchy)
    for key, value in result.popt_counters.items():
        print(f"  {key:20s} {value}")

    print("\n=== Timing: overlapped vs non-overlapped next-ref engine ===")
    overlapped = TimingModel(hierarchy)  # paper design: hidden by DRAM
    pessimistic = TimingModel(hierarchy, rm_lookup_cycles=4.0)
    for name, model in (("overlapped", overlapped),
                        ("non-overlapped", pessimistic)):
        cycles = model.cycles(
            result.level_counts,
            result.instructions,
            popt_bytes_streamed=result.popt_counters["bytes_streamed"],
            popt_rm_lookups=result.popt_counters["rm_lookups"],
        )
        print(f"  {name:15s}: {cycles:,.0f} cycles")

    print("\n=== Next-ref engine pipeline (Section V-C) ===")
    from repro.popt import NextRefEngineModel
    from repro.cache import paper_table1

    engine = NextRefEngineModel()
    paper_machine = paper_table1()
    print(f"  worst-case search, {hierarchy.llc.num_ways}-way LLC: "
          f"{engine.worst_case_latency(hierarchy.llc)} cycles")
    print(f"  paper machine: {engine.worst_case_latency(paper_machine.llc)}"
          f" cycles vs {paper_machine.dram_latency_cycles}-cycle DRAM -> "
          f"hidden={engine.hidden_by_dram(paper_machine)} "
          f"(slack {engine.slack_cycles(paper_machine)} cycles)")

    print("\n=== NUCA bank locality of RM lookups (Section V-E) ===")
    mapper = BankMapper(num_banks=8)
    span = prepared.irregular_streams[0].span
    report = nuca_locality_report(mapper, span)
    print(f"  modified block-interleaved mapping: "
          f"{report['modified']:.0%} bank-local")
    print(f"  default line striping:              "
          f"{report['default']:.0%} bank-local")

    print("\n=== Epoch-serial parallelism (Section V-F) ===")
    serial = sim.simulate_prepared(prepared, "P-OPT", hierarchy)
    __, epoch_size, __ = epoch_geometry(g.num_vertices, 8)
    order = epoch_serial_parallel_order(
        g.num_vertices, epoch_size, num_threads=8
    )
    parallel_run = sim.prepare_run(apps.PageRank(), g, order=order)
    parallel_run.trace = main_thread_vertex_channel(
        parallel_run.trace, epoch_size, num_threads=8
    )
    parallel = sim.simulate_prepared(parallel_run, "P-OPT", hierarchy)
    print(f"  serial miss rate:    {serial.llc_miss_rate:.3f}")
    print(f"  8-thread miss rate:  {parallel.llc_miss_rate:.3f} "
          "(main-thread currVertex approximation)")


if __name__ == "__main__":
    main()
