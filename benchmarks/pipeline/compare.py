"""Compare pipeline-benchmark result files against a base, per workload.

Usage (from the repository root)::

    python3 benchmarks/pipeline/compare.py BASE.json CHANGE.json [MORE.json ...]

Each file is what ``run.py --out`` writes (it appends, so one file can
collect many runs). A run contributes one value per end-to-end metric:
the median of its samples. Each later file is judged against the first,
separately for every workload × metric in ``BENCHMARK.json``:

- **better**: at least 10 alternating pairs, the change wins at least 9
  in 10 of them (ties count for neither), and the medians differ by more
  than the base's interquartile range. A pair is a base run and a change
  run made back to back (by their ``started`` times), so a set of base
  runs followed by a set of change runs forms no pairs: host speed
  drifts between them;
- **unresolved**: the run-to-run spread (interquartile range over median)
  of either side exceeds the metric's bound, unless every change run
  beats every base run;
- **worse**: the change's median is worse than the base's by more than
  the bound;
- **within bound**: otherwise.

The exit status is 1 when any pairing is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]


def median_quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


Run = Tuple[Optional[float], Dict[str, float]]


def run_values(path: Path) -> Dict[str, List[Run]]:
    """workload -> ``(started, {metric: median of its samples})`` per
    untraced run."""
    runs: Dict[str, List[Run]] = {}
    for record in json.loads(path.read_text())["runs"]:
        if record["trace"]:
            continue
        medians = {
            name: statistics.median(samples)
            for name, samples in record["samples"].items() if samples
        }
        runs.setdefault(record["workload"], []).append(
            (record.get("started"), medians)
        )
    return runs


def adjacent_pairs(base: List[Run], change: List[Run], name: str) -> List[Tuple[float, float]]:
    """``(base, change)`` values of runs made back to back, in time order."""
    timeline = sorted(
        (started, side, medians[name])
        for side, runs in ((0, base), (1, change))
        for started, medians in runs
        if started is not None and name in medians
    )
    pairs = []
    index = 0
    while index + 1 < len(timeline):
        (_, side, value), (_, other_side, other) = timeline[index:index + 2]
        if side == other_side:
            index += 1
            continue
        pairs.append((value, other) if side == 0 else (other, value))
        index += 2
    return pairs


def verdict(
    base: List[float], change: List[float], pairs: List[Tuple[float, float]],
    bound: float, lower_is_better: bool,
) -> Dict[str, object]:
    sign = 1.0 if lower_is_better else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    a_med, a_q1, a_q3 = median_quartiles(base)
    b_med, b_q1, b_q3 = median_quartiles(change)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    wins = sum(1 for a, b in pairs if beats(b, a))
    if (
        len(pairs) >= 10 and wins >= 0.9 * len(pairs)
        and beats(b_med, a_med) and abs(b_med - a_med) > a_q3 - a_q1
    ):
        outcome = "better"
    elif spread > bound and not all(beats(b, a) for a in base for b in change):
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "within bound"
    return {
        "base": (a_med, a_q1, a_q3), "change": (b_med, b_q1, b_q3),
        "worse_by": worse_by, "spread": spread, "pairs": len(pairs),
        "wins": wins, "verdict": outcome,
    }


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    base_path, others = Path(argv[0]), [Path(p) for p in argv[1:]]
    base = run_values(base_path)
    any_worse = False
    for other in others:
        change = run_values(other)
        print(f"{other} vs {base_path}")
        for workload, base_runs in base.items():
            change_runs = change.get(workload, [])
            for name, metric in metrics.items():
                a = [m[name] for _, m in base_runs if name in m]
                b = [m[name] for _, m in change_runs if name in m]
                if not a or not b:
                    continue
                v = verdict(
                    a, b, adjacent_pairs(base_runs, change_runs, name),
                    metric["bound"], metric["better"] == "lower",
                )
                any_worse |= v["verdict"] == "worse"
                print(
                    f"  {workload:<12} {name:<20} "
                    f"base {v['base'][0]:.6g} [{v['base'][1]:.6g}, {v['base'][2]:.6g}]  "
                    f"change {v['change'][0]:.6g} [{v['change'][1]:.6g}, {v['change'][2]:.6g}] "
                    f"{metric['unit']}  worse by {100 * v['worse_by']:+.1f}% "
                    f"(bound {100 * metric['bound']:.0f}%, spread {100 * v['spread']:.1f}%, "
                    f"wins {v['wins']}/{v['pairs']})  {v['verdict']}"
                )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
