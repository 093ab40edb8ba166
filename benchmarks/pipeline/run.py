"""Pipeline benchmark: graph → trace → filter → replay → store.

Times the simulator end to end and per layer on five workloads (see
``workloads.py`` and ``README.md``). Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload fig10-small --seed 42 \\
        --seconds 20 --trace 0
    python3 benchmarks/pipeline/run.py --out runs.json      # all workloads
    python3 benchmarks/pipeline/run.py --trace 1            # per-layer run
    python3 benchmarks/pipeline/run.py --smoke --seconds 0  # seconds-long
    python3 benchmarks/pipeline/run.py --pin                # rewrite pins

Each workload is measured for ``--seconds``: one sweep per fresh child
process, repeated while another fits, reporting medians. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
status is 0 only when every unit's rows were received and correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from compare import median_quartiles
from workloads import BY_NAME, write_ingest_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = Path("benchmarks/pipeline/.work")
PINS = HERE / "expected" / "seed42.json"
PIN_SEED = 42
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import repro.sim.spec\n"
    "from repro.sim import ckernels\n"
    "print(ckernels.available())\n"
)


def simulated_digest(row: Dict[str, object]) -> str:
    """sha256 over a row's simulated columns (llc_*, cycles, reserved_ways)."""
    columns = {
        key: value for key, value in row.items()
        if key.startswith("llc_") or key in ("cycles", "reserved_ways")
    }
    text = json.dumps(columns, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, so children
    run the program's defaults, with ``PYTHONPATH`` at this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict/set layouts, so same code paths, every run
    env.update(extra or {})
    return env


def launch(config: dict, extra_env: Optional[Dict[str, str]] = None) -> dict:
    """Run ``child.py`` with ``config``; return its JSON report, with
    ``setup_s`` from the launch to the child's ``ready`` time.

    The child gets its own process group, so a timeout also stops its
    pool workers.
    """
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        cwd=ROOT, env=child_env(extra_env), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s", "rows": []}
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {
            "error": f"child exited {proc.returncode} without a report:\n"
                     f"{stderr.strip()[-2000:]}",
            "rows": [],
        }
    if "ready" in report:
        report["setup_s"] = report["ready"] - launched
    return report


def warm_up() -> bool:
    """Build the compiled kernels if the checkout has none yet, so that
    every timed sweep measures steady set-up; return whether they load."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up launch failed:\n{proc.stderr.strip()}")
    return proc.stdout.strip() == "True"


def repeat_for(seconds: float, once: Callable[[], None]) -> None:
    """Call ``once`` at least once, then again while another call fits."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        once()
        now = time.perf_counter()
        if (now - start) + (now - before) > seconds:
            return


class Checker:
    """Counts attempted and failed units of one workload run.

    A unit fails when its row never arrived (the sweep raised) or when
    its simulated columns differ from the reference: the pinned digests
    for the pinned seed, otherwise the first sweep of this run.
    """

    def __init__(self, workload: str, pinned: Optional[dict]) -> None:
        self.workload = workload
        self.reference = pinned["digests"] if pinned else None
        self.reference_name = "pinned" if pinned else "first sweep's"
        self.units: List[str] = pinned["units"] if pinned else []
        self.attempted = 0
        self.failed = 0
        self.first_rows: Optional[list] = None

    def check(self, report: dict, label: str) -> None:
        """Count one sweep's units and the ones that failed."""
        units = report.get("units") or self.units
        self.units = self.units or units
        rows = report["rows"]
        digests = [simulated_digest(row) for row in rows]
        ok = "error" not in report
        if not ok:
            print(f"{self.workload}: {label} raised:\n{report['error']}", file=sys.stderr)
        bad = max(len(units), 1) - len(rows)
        if self.reference is None:
            self.reference = digests if ok else None
        else:
            for index, digest in enumerate(digests):
                if index >= len(self.reference) or digest != self.reference[index]:
                    bad += 1
                    unit = units[index] if index < len(units) else "?"
                    print(
                        f"{self.workload}: {label} unit {index} (SpecUnit "
                        f"{unit}) differs from the {self.reference_name} row",
                        file=sys.stderr,
                    )
        if self.first_rows is None and ok:
            self.first_rows = rows
        self.attempted += max(len(units), 1)
        self.failed += bad

    def verify_generic(self, config: dict) -> None:
        """Replay the cheapest unit on the generic engine; compare."""
        rows = self.first_rows
        if not rows:
            return
        index = min(range(len(rows)), key=lambda i: rows[i]["llc_accesses"])
        report = launch(dict(config, mode="verify", unit=index, store=""))
        generic = report["rows"][:1]
        self.attempted += 1
        if "error" in report or simulated_digest(generic[0]) != simulated_digest(rows[index]):
            self.failed += 1
            print(
                f"{self.workload}: unit {index} (SpecUnit {self.units[index]}) "
                f"differs between the fast and generic engines"
                + (f":\n{report['error']}" if "error" in report else ""),
                file=sys.stderr,
            )


def fig10_info(rows: List[dict]) -> Dict[str, float]:
    """Mean P-OPT miss reduction and speedup vs DRRIP over (app, graph)."""
    groups: Dict[tuple, Dict[str, dict]] = {}
    for row in rows:
        groups.setdefault((row["app"], row["graph"]), {})[row["policy"]] = row
    missred, speedup = [], []
    for stats in groups.values():
        drrip, popt = stats["DRRIP"], stats["P-OPT"]
        if drrip["llc_misses"] and popt["cycles"]:
            missred.append(1.0 - popt["llc_misses"] / drrip["llc_misses"])
            speedup.append(drrip["cycles"] / popt["cycles"] - 1.0)
    return {
        "popt_missred_vs_drrip": statistics.mean(missred),
        "popt_speedup_vs_drrip": statistics.mean(speedup),
    }


def run_workload(workload, args, work: Path, pins: dict) -> dict:
    """Measure one workload; returns the run record."""
    pinned = None
    if args.seed == PIN_SEED and not args.smoke:
        pinned = pins.get("workloads", {}).get(workload.name)
    config = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "work": str(WORK / work.name), "jobs": workload.jobs, "store": "",
    }
    record: dict = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": bool(args.trace), "seconds": args.seconds, "started": time.time(),
        "pinned": pinned is not None, "info": {}, "samples": {},
    }
    if workload.name == "ingest-el":
        inputs = write_ingest_inputs(work, args.seed, "smoke" if args.smoke else "full")
        record["info"]["inputs_sha256"] = inputs
        expected = pins.get("inputs") if pinned else None
        if expected and expected != inputs:
            print(f"ingest-el: generated inputs differ from the pinned sha256 {expected}",
                  file=sys.stderr)
            pinned = None
            record["pinned"] = False
    checks = "sweeps agree with each other" if pinned is None else "rows match the pins"
    if args.trace:
        checks += ", traced rows equal untraced rows"
    print(f"{workload.name}: seed {args.seed} {'pinned' if pinned else 'unpinned'}; "
          f"checking {checks} and the generic engine agrees on one unit")
    checker = Checker(workload.name, pinned)
    stores = work / "stores"
    extra_env: Dict[str, str] = {}
    serial = 0

    def fresh_store() -> str:
        nonlocal serial
        serial += 1
        return str(stores / f"{workload.name}-{serial}")

    if workload.store == "populated":
        populated = str(stores / f"{workload.name}-populated")
        checker.check(launch(dict(config, mode="run", store=populated)), "populating sweep")
        os.sync()
        config["store"] = populated
        extra_env = {"REPRO_ARTIFACTS_ROWS": "0"}

    def sweep(mode: str, label: str, **overrides) -> dict:
        run_config = dict(config, mode=mode, **overrides)
        if workload.store == "fresh":
            run_config["store"] = fresh_store()
        try:
            report = launch(run_config, extra_env)
        finally:
            if workload.store == "fresh":
                shutil.rmtree(run_config["store"], ignore_errors=True)
                # Flush the deletion now, not during the next timed sweep.
                os.sync()
        checker.check(report, label)
        return report

    samples: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    if not args.trace:
        def once() -> None:
            report = sweep("run", f"sweep {len(samples.get('wall_s', [])) + 1}")
            if "error" not in report:
                add("wall_s", report["wall_s"])
                add("sim_accesses_per_s", report["accesses"] / report["wall_s"])
                add("setup_s", report["setup_s"])
                add("peak_rss_mb", report["peak_rss_mb"])

        repeat_for(args.seconds, once)
    else:
        reference = sweep("run", "untraced sweep")
        untraced_serial = reference
        if workload.jobs > 1:
            untraced_serial = sweep("run", "serial untraced sweep", jobs=1)
        spans = work / f"spans-{workload.name}.jsonl"

        def once() -> None:
            report = sweep("trace", "traced sweep", jobs=1, spans=str(spans))
            if "error" in report or "error" in reference:
                return
            if json.dumps(report["rows"]) != json.dumps(reference["rows"]):
                checker.failed += 1
                print(f"{workload.name}: traced rows are not byte-identical "
                      f"to the untraced rows", file=sys.stderr)
            for name, value in report["layers"].items():
                add(name, value)
            add("parallel.efficiency",
                report["task_seconds"] / (workload.jobs * reference["wall_s"]))
            if "error" not in untraced_serial:
                add("trace.overhead_s", report["wall_s"] - untraced_serial["wall_s"])

        repeat_for(args.seconds, once)
        record["info"]["spans"] = str(WORK / work.name / spans.name)
    checker.verify_generic(config)
    if workload.name == "fig10-small" and checker.first_rows:
        record["info"].update(fig10_info(checker.first_rows))
    record.update(
        correct=checker.failed == 0, attempted=checker.attempted,
        failed=checker.failed, samples=samples,
        units=checker.units, digests=checker.reference or [],
    )
    return record


def print_record(record: dict, benchmark: dict) -> Dict[str, dict]:
    """Print every metric of a run by name and unit; return them as JSON."""
    metrics = {}
    for metric in benchmark["per_layer" if record["trace"] else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        values = record["samples"].get(name)
        if not values:
            print(f"{record['workload']}: metric {name} has no sample", file=sys.stderr)
            continue
        median, q1, q3 = median_quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(
            f"  {record['workload']:<12} {name:<34} {median:>14.6g} {unit:<10}"
            f" (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
        )
    info = record["info"]
    if "popt_missred_vs_drrip" in info:
        print(
            f"  info: P-OPT vs DRRIP on fig10-small: "
            f"{100 * info['popt_missred_vs_drrip']:.1f}% fewer LLC misses, "
            f"{100 * info['popt_speedup_vs_drrip']:.1f}% modeled speedup "
            f"(paper: 24% / 22%). Simulated, unvalidated against hardware; "
            f"not gated."
        )
    if "spans" in info:
        print(f"  spans written to {info['spans']}")
    return metrics


def host_info(kernels: bool) -> Dict[str, object]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "compiled_kernels": kernels,
        "git_sha": sha, "machine": platform.machine(),
    }


def parse_args(argv: Optional[List[str]], benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one graph per workload")
    parser.add_argument("--out", type=Path,
                        help="append the run records (all samples) to this JSON file")
    parser.add_argument("--pin", action="store_true",
                        help=f"rewrite {PINS.relative_to(ROOT)} from one seed-"
                             f"{PIN_SEED} sweep per workload")
    args = parser.parse_args(argv)
    if args.pin:
        if args.smoke or args.trace:
            parser.error("--pin takes no --smoke or --trace")
        args.seed, args.seconds = PIN_SEED, 0.0
    args.workload = args.workload or list(BY_NAME)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "sim" / "spec.py").is_file():
        print(f"{ROOT}: no src/repro to benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    pins = {} if args.pin or not PINS.exists() else json.loads(PINS.read_text())
    work = ROOT / WORK / ("smoke" if args.smoke else "full")
    kernels = warm_up()
    records, summary = [], {}
    try:
        for name in args.workload:
            record = run_workload(BY_NAME[name], args, work, pins)
            metrics = print_record(record, benchmark)
            records.append(record)
            prefix = "" if len(args.workload) == 1 else f"{name}."
            summary.update({prefix + key: value for key, value in metrics.items()})
    finally:
        for leftover in ("inputs", "stores"):
            shutil.rmtree(work / leftover, ignore_errors=True)
    if args.pin and all(r["correct"] for r in records):
        pinned = {"seed": PIN_SEED, "workloads": {}}
        for record in records:
            pinned["workloads"][record["workload"]] = {
                "units": record["units"], "digests": record["digests"],
            }
            if "inputs_sha256" in record["info"]:
                pinned["inputs"] = record["info"]["inputs_sha256"]
        PINS.parent.mkdir(exist_ok=True)
        PINS.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"pinned {len(records)} workloads in {PINS.relative_to(ROOT)}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
        stored["host"] = host_info(kernels)
        for record in records:
            record.pop("digests")
            record.pop("units")
        stored["runs"].extend(records)
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
