"""One measured sweep of one workload, in a fresh process.

Run by ``run.py``, never by hand: the parent passes one JSON argument and
reads one JSON object from the last line of standard output.

Every mode reports ``ready``, the ``CLOCK_MONOTONIC`` time at which
``import repro.sim.spec`` and the compiled-kernel load had finished.
Modes:

- ``run``: ``run_spec(spec, jobs, stream=...)`` untraced; reports wall
  time, peak RSS of this process and its pool workers, trace accesses
  replayed, and the rows.
- ``trace``: the serial traced mirror (:mod:`tracing`); reports the rows,
  the per-layer metrics, and writes the spans as JSON lines.
- ``verify``: one unit of the spec replayed with ``engine="generic"``
  (the per-access policy loop the fast kernels must match).

If the sweep raises, the rows received so far and the traceback are
reported and the process exits with status 1.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _store_bytes(store) -> int:
    """Bytes under an artifact store (0 without one)."""
    if store is None or not store.root.exists():
        return 0
    return sum(f.stat().st_size for f in store.root.rglob("*") if f.is_file())


def main(config: dict) -> int:
    from repro.sim import ckernels
    from repro.sim.spec import run_spec

    ckernels.available()
    # Set-up ends here; the parent subtracts its launch time. CLOCK_MONOTONIC
    # is one clock for every process on the host.
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    from repro.cache.stats import MPKI_INSTRUCTIONS_PER_ACCESS
    from repro.sim import artifacts
    from workloads import build_spec

    spec = build_spec(
        config["workload"], config["seed"], config["smoke"], Path(config["work"])
    )
    if config.get("store"):
        artifacts.configure(config["store"])
    out: dict = {"ready": ready, "units": [unit.content_hash() for unit in spec.expand()]}
    rows: list = []
    status = 0
    try:
        if config["mode"] == "run":
            start = time.perf_counter()
            run_spec(spec, jobs=config["jobs"], stream=rows.append)
            out["wall_s"] = time.perf_counter() - start
            out["peak_rss_mb"] = _peak_rss_mb()
            out["accesses"] = sum(
                round(row["instructions"] / MPKI_INSTRUCTIONS_PER_ACCESS)
                for row in rows
            )
        elif config["mode"] == "trace":
            from tracing import Tracer, layer_metrics, task_seconds, traced_run_spec

            tracer = Tracer()
            stored = _store_bytes(artifacts.get_store())
            rows = traced_run_spec(spec, tracer)
            root = next(s for s in tracer.spans if s["name"] == "run")
            out["wall_s"] = root["end"] - root["start"]
            out["task_seconds"] = task_seconds(tracer)
            out["layers"] = layer_metrics(tracer)
            out["layers"]["artifacts.bytes_written"] = (
                _store_bytes(artifacts.get_store()) - stored
            )
            with open(config["spans"], "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(
                        {"workload": config["workload"], **span}
                    ) + "\n")
        else:
            unit = spec.expand()[config["unit"]]
            single = dataclasses.replace(
                spec,
                graphs=(unit.graph,), apps=(unit.app,),
                techniques=(unit.technique,), llc=(unit.llc,),
                policies=(unit.policy,), engine="generic", exclude=(),
            )
            rows = run_spec(single)
    except Exception:  # reported to the parent, which counts the lost rows
        out["error"] = traceback.format_exc()
        status = 1
    out["rows"] = rows
    sys.stdout.write(json.dumps(out) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
