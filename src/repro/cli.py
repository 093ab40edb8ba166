"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``        simulate one (app, graph, policy) combination
- ``compare``    sweep several policies over one prepared run
- ``experiment`` regenerate a paper figure, table or study (an
  ablation or the dead-block comparison) by ID; a figure or study also
  prints its measured-vs-paper claims table
- ``matrix``     run the scenario-matrix spec (techniques x policies
  x graphs x LLC sizes), streaming rows; resumable via the artifact
  store
- ``tables``     print the paper's setup tables (I-III)
- ``graphs``     list the Table III graph stand-ins with their stats

Examples::

    python -m repro run --app PR --graph URAND --policy P-OPT
    python -m repro compare --app CC --graph DBP \
        --policies LRU,DRRIP,P-OPT,T-OPT
    python -m repro experiment fig07 --scale small
    python -m repro matrix --scale tiny --jobs 4 --artifacts build/arts
    python -m repro run --app PR --graph file:tests/graph/data/karate.el
    python -m repro tables

``file:<path>`` graph specs load real graphs from disk
(``.el``/``.wel``/``.mtx``/``.sg``/``.npz``) anywhere a graph name is
accepted; see ``repro.graph.io``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

from .cache import scaled_hierarchy
from .graph import datasets, degree_stats
from .sim import prepare_run, simulate_prepared
from .sim import artifacts as artifacts_module
from .sim.experiments import table4_preprocessing
from .sim.parallel import APP_FACTORIES, START_METHOD_ENV
from .sim.spec import ENTRIES, ExperimentSpec, run_spec, scenario_matrix
from .sim.tables import format_table, table1_rows, table2_rows, table3_rows

__all__ = ["main", "APP_FACTORIES"]

#: Experiment ids: every paper figure, every study, plus Table IV.
EXPERIMENTS = (*ENTRIES, "table4")


def _graph_choices():
    return datasets.graph_names() + [
        spec.name for spec in datasets.EXTENDED_GRAPHS
    ]


def _graph_spec(value: str) -> str:
    """argparse type for --graph: a known stand-in or a file:<path>."""
    if datasets.is_file_spec(value) or value in _graph_choices():
        return value
    raise argparse.ArgumentTypeError(
        f"unknown graph {value!r}; choose from "
        f"{', '.join(_graph_choices())} or pass file:<path> "
        f"(.el/.wel/.mtx/.sg/.npz)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P-OPT (HPCA 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one app/graph/policy")
    run.add_argument("--app", choices=sorted(APP_FACTORIES), default="PR")
    run.add_argument(
        "--graph", type=_graph_spec, default="URAND",
        help="a named stand-in or file:<path> to a real graph",
    )
    run.add_argument("--policy", default="P-OPT")
    run.add_argument(
        "--scale", choices=sorted(datasets.SCALES), default="small"
    )
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--sanitize", action="store_true",
        help="replay with runtime invariant checks "
             "(repro.cache.sanitizer)",
    )

    compare = sub.add_parser("compare", help="sweep policies on one run")
    compare.add_argument(
        "--app", choices=sorted(APP_FACTORIES), default="PR"
    )
    compare.add_argument(
        "--graph", type=_graph_spec, default="URAND",
        help="a named stand-in or file:<path> to a real graph",
    )
    compare.add_argument(
        "--policies", default="LRU,DRRIP,P-OPT,T-OPT",
        help="comma-separated policy names",
    )
    compare.add_argument(
        "--scale", choices=sorted(datasets.SCALES), default="small"
    )
    compare.add_argument("--seed", type=int, default=42)
    compare.add_argument(
        "--sanitize", action="store_true",
        help="replay every policy with runtime invariant checks, "
             "including the Belady bound across the sweep",
    )
    compare.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the policy sweep (1 = in-process; "
             "results are identical for any value)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure, table or study"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--scale", choices=sorted(datasets.SCALES), default="small"
    )
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, for experiments that support sweeping "
             "in parallel (others run serially regardless)",
    )

    matrix = sub.add_parser(
        "matrix",
        help="run the scenario-matrix spec (technique x policy x "
             "graph x LLC size)",
    )
    matrix.add_argument(
        "--scale", choices=sorted(datasets.SCALES), default="small"
    )
    matrix.add_argument(
        "--graphs", default="",
        help="comma-separated graph subset; names and file:<path> "
             "specs both work (default: all stand-ins)",
    )
    matrix.add_argument(
        "--techniques", default="",
        help="comma-separated software-technique subset "
             "(default: none,tiling:4,pb,phi,hats)",
    )
    matrix.add_argument("--seed", type=int, default=42)
    matrix.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results identical for any value)",
    )
    matrix.add_argument(
        "--artifacts", default="",
        help="artifact-store directory; reruns reuse cached traces, "
             "filters and rows, making interrupted runs resumable",
    )
    matrix.add_argument(
        "--out", default="",
        help="stream rows to this file as JSON lines while running "
             "(default: print a table at the end only)",
    )
    matrix.add_argument(
        "--start-method", default="",
        choices=["", "fork", "spawn", "forkserver"],
        help="multiprocessing start method for --jobs workers "
             "(default: platform default; rows are identical under "
             "any method — CI's spawn leg proves it)",
    )

    sub.add_parser("tables", help="print paper tables I-III")
    graphs = sub.add_parser("graphs", help="list graph stand-ins")
    graphs.add_argument(
        "--scale", choices=sorted(datasets.SCALES), default="small"
    )
    return parser


def _cmd_run(args) -> int:
    graph = datasets.load(args.graph, scale=args.scale, seed=args.seed)
    hierarchy = scaled_hierarchy(args.scale)
    prepared = prepare_run(APP_FACTORIES[args.app](), graph)
    result = simulate_prepared(
        prepared, args.policy, hierarchy, sanitize=args.sanitize
    )
    rows = [result.summary()]
    if result.popt_counters:
        rows[0].update(
            {
                "tie_rate": result.popt_counters["tie_rate"],
                "bytes_streamed": result.popt_counters["bytes_streamed"],
            }
        )
    print(format_table(rows, f"{args.app} on {args.graph} "
                             f"[{args.scale}]"))
    return 0


def _cmd_compare(args) -> int:
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    jobs = max(1, args.jobs)
    if jobs > 1 and args.sanitize:
        # The sweep-wide sanitizer (Belady bound across policies) needs
        # every replay's records on one PreparedRun; keep it in-process.
        print("note: --sanitize forces --jobs 1 (sweep-wide invariants)")
        jobs = 1
    if jobs > 1:
        spec = ExperimentSpec(
            name="compare",
            graphs=(args.graph,),
            apps=(args.app,),
            policies=tuple(names),
            scale=args.scale,
            seed=args.seed,
            chunk_size=1,
        )
        stat_rows = run_spec(spec, jobs=jobs)
        baseline_cycles = float(stat_rows[0]["cycles"])
        rows: List[Dict[str, object]] = [
            {
                "policy": item["policy"],
                "miss_rate": round(float(item["llc_miss_rate"]), 4),
                "mpki": round(float(item["llc_mpki"]), 2),
                f"speedup_vs_{names[0]}": round(
                    baseline_cycles / float(item["cycles"]), 3
                )
                if item["cycles"]
                else float("inf"),
                "reserved_ways": item["reserved_ways"],
            }
            for item in stat_rows
        ]
        print(format_table(rows, f"{args.app} on {args.graph} "
                                 f"[{args.scale}]"))
        return 0
    graph = datasets.load(args.graph, scale=args.scale, seed=args.seed)
    hierarchy = scaled_hierarchy(args.scale)
    prepared = prepare_run(APP_FACTORIES[args.app](), graph)
    results = {
        name: simulate_prepared(
            prepared, name, hierarchy, sanitize=args.sanitize
        )
        for name in names
    }
    baseline = results[names[0]]
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "policy": name,
                "miss_rate": round(result.llc_miss_rate, 4),
                "mpki": round(result.llc_mpki, 2),
                f"speedup_vs_{names[0]}": round(
                    result.speedup_over(baseline), 3
                ),
                "reserved_ways": result.reserved_llc_ways,
            }
        )
    print(format_table(rows, f"{args.app} on {args.graph} "
                             f"[{args.scale}]"))
    return 0


def _cmd_experiment(args) -> int:
    title = f"{args.id} [scale={args.scale}]"
    figure = ENTRIES.get(args.id)
    if figure is None:
        if args.jobs > 1:
            print(f"note: {args.id} does not sweep in parallel; "
                  f"running serially")
        print(format_table(table4_preprocessing(scale=args.scale), title))
        return 0
    rows = figure.run(jobs=max(1, args.jobs), scale=args.scale)
    print(format_table(rows, title))
    print()
    print(format_table(figure.check(rows), f"{args.id}: paper claims"))
    return 0


def _cmd_matrix(args) -> int:
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.graphs.strip():
        kwargs["graphs"] = tuple(
            name.strip() for name in args.graphs.split(",") if name.strip()
        )
    if args.techniques.strip():
        kwargs["techniques"] = tuple(
            t.strip() for t in args.techniques.split(",") if t.strip()
        )
    spec = scenario_matrix(**kwargs)
    if args.start_method:
        os.environ[START_METHOD_ENV] = args.start_method
    if args.artifacts:
        artifacts_module.configure(args.artifacts)
    print(
        f"scenario_matrix [scale={args.scale}]: "
        f"{len(spec.expand())} units, plan {spec.plan_digest()[:12]}"
    )

    sink = open(args.out, "w") if args.out else None
    try:
        def stream(row):
            if sink is not None:
                sink.write(json.dumps(row) + "\n")
                sink.flush()

        rows = run_spec(spec, jobs=max(1, args.jobs), stream=stream)
    finally:
        if sink is not None:
            sink.close()

    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(format_table(rows, f"scenario_matrix [scale={args.scale}]"))
    if args.artifacts:
        stats = artifacts_module.get_store().stats()
        parts = [
            f"{kind}: {s.get('hits', 0)} hit / {s.get('misses', 0)} miss"
            for kind, s in sorted(stats["by_kind"].items())
            if any(s.values())
        ]
        print("artifact cache: " + ("; ".join(parts) or "unused"))
    return 0


def _cmd_tables(args) -> int:
    print(format_table(table1_rows(), "Table I: simulation parameters"))
    print()
    print(format_table(table2_rows(), "Table II: applications"))
    print()
    print(format_table(table3_rows(), "Table III: input graphs"))
    return 0


def _cmd_graphs(args) -> int:
    rows = []
    for name in datasets.graph_names():
        graph = datasets.load(name, scale=args.scale)
        row = {"graph": name}
        row.update(degree_stats(graph).as_row())
        rows.append(row)
    print(format_table(rows, f"Graph stand-ins at scale={args.scale}"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "matrix": _cmd_matrix,
        "tables": _cmd_tables,
        "graphs": _cmd_graphs,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
