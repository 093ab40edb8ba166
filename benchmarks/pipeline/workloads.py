"""Workloads of the pipeline benchmark and the inputs they need.

Each workload is one experiment spec run end to end through
``repro.sim.spec.run_spec`` by a single client that submits one sweep
and waits for it (a closed loop). Specs are built lazily inside the
child process, so importing this module never imports ``repro``: the
benchmark parent stays free of program state, and the ingest generator
below uses numpy only, so a change to the program cannot change its own
input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

#: Sizes of the generated ingest inputs, ``(vertices, edges)``. The
#: ``.mtx`` file is half the ``.el`` file in both dimensions.
INGEST_SIZE = {"full": (131072, 1048576), "smoke": (4096, 32768)}


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    #: "" (no artifact store), "fresh" (a new empty store per run) or
    #: "populated" (a store filled before timing, read with row caching
    #: off so every replay re-runs on stored graphs, traces and filters).
    store: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "fig10-small", 1, "",
        "Fig. 10 at the default small scale on a skewed and a uniform "
        "graph: trace generation, T-OPT/P-OPT setup and replay mixed",
    ),
    Workload(
        "popt-medium", 1, "",
        "T-OPT and three P-OPT variants at three LLC sizes: the "
        "Rereference Matrix is rebuilt per LLC point, so popt dominates",
    ),
    Workload(
        "ingest-el", 1, "",
        "LRU and DRRIP on generated .el and .mtx files: graph parsing "
        "and CSR build dominate and popt is never called",
    ),
    Workload(
        "store-write", 2, "fresh",
        "cold scenario matrix through the 2-worker pool into an empty "
        "artifact store: every artifact kind is written",
    ),
    Workload(
        "store-read", 2, "populated",
        "the same matrix on a filled store with row caching off: "
        "replays re-run while graph and trace work is bypassed",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def ingest_paths(work: Path) -> Tuple[Path, Path]:
    return work / "inputs" / "ingest.el", work / "inputs" / "ingest.mtx"


def _skewed_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` edges over ``n`` vertices with power-law-like in-degrees.

    Sources are uniform; destinations are cubed uniforms (most edges
    land on few hubs), and a random relabelling scatters the hubs over
    the ID space so the CSR is not trivially local.
    """
    src = rng.integers(0, n, m)
    dst = (n * rng.random(m) ** 3).astype(np.int64)
    relabel = rng.permutation(n)
    return np.stack([relabel[src], relabel[dst]], axis=1)


def write_ingest_inputs(work: Path, seed: int, size: str) -> Dict[str, str]:
    """Write the seeded ``.el`` and ``.mtx`` inputs; return their sha256."""
    n, m = INGEST_SIZE[size]
    el_path, mtx_path = ingest_paths(work)
    el_path.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1E])
    with open(el_path, "w", encoding="ascii") as handle:
        handle.write(f"# vertices {n}\n")
        np.savetxt(handle, _skewed_edges(rng, n, m), fmt="%d")
    half_n, half_m = n // 2, m // 2
    with open(mtx_path, "w", encoding="ascii") as handle:
        handle.write("%%MatrixMarket matrix coordinate pattern general\n")
        handle.write(f"{half_n} {half_n} {half_m}\n")
        np.savetxt(handle, _skewed_edges(rng, half_n, half_m) + 1, fmt="%d")
    digests = {}
    for path in (el_path, mtx_path):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def build_spec(name: str, seed: int, smoke: bool, work: Path):
    """The workload's ``ExperimentSpec`` (imports ``repro``)."""
    from repro.cache.config import scaled_hierarchy
    from repro.sim.spec import ExperimentSpec, fig10_spec, scenario_matrix

    if name == "fig10-small":
        graphs = ("KRON",) if smoke else ("KRON", "URAND")
        return fig10_spec(
            scale="tiny" if smoke else "small", graphs=graphs, seed=seed
        )
    if name == "popt-medium":
        scale = "tiny" if smoke else "medium"
        base = scaled_hierarchy(scale).llc
        return ExperimentSpec(
            name="popt-medium",
            graphs=("KRON",) if smoke else ("KRON", "URAND"),
            apps=("PR",),
            policies=("T-OPT", "P-OPT", "P-OPT-Inter", "P-OPT-SE"),
            llc=tuple(
                (f"x{factor}", factor * base.num_sets, base.num_ways)
                for factor in (1, 2, 4)
            ),
            scale=scale,
            seed=seed,
        )
    if name == "ingest-el":
        el_path, mtx_path = ingest_paths(work)
        files = (el_path,) if smoke else (el_path, mtx_path)
        return ExperimentSpec(
            name="ingest-el",
            graphs=tuple(f"file:{path.as_posix()}" for path in files),
            policies=("LRU", "DRRIP"),
            scale="tiny" if smoke else "medium",
            seed=seed,
        )
    if name in ("store-write", "store-read"):
        return scenario_matrix(
            scale="tiny" if smoke else "small",
            graphs=("KRON",) if smoke else ("DBP", "KRON", "URAND"),
            seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {list(BY_NAME)}")
