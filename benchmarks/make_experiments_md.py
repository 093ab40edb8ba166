"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Run the benchmark suite first (``pytest benchmarks/ --benchmark-only``),
then ``PYTHONPATH=src python benchmarks/make_experiments_md.py``. Each
figure's section takes its title and the paper's result from
:data:`repro.sim.spec.FIGURES` and embeds the recorded results file:
the measured rows, then the measured-vs-paper claims table. The other
sections pair the paper's result with a written verdict.
"""

from __future__ import annotations

import datetime
import platform
from pathlib import Path

from repro.sim.spec import FIGURES

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent.parent / "EXPERIMENTS.md"

#: Tables, ablations and extensions: (result-file id, title, paper's
#: reported result, verdict).
SECTIONS = [
    (
        "table1",
        "Table I — simulation parameters",
        "8-core Beckton-class machine: L1 32KB/8w, L2 256KB/8w, LLC "
        "3MB/core 16-way DRRIP, DRAM 173ns at 2.266GHz.",
        "Encoded as data (`repro.cache.paper_table1()`); scaled profiles "
        "keep the structure and latencies.",
    ),
    (
        "table2",
        "Table II — applications",
        "PR (pull), CC (push), PR-Delta / Radii / MIS (pull-mostly, "
        "frontier bit-vectors, direction switching).",
        "All five implemented as real kernels with matching styles, "
        "irregular element sizes, and transpose directions.",
    ),
    (
        "table3",
        "Table III — input graphs",
        "DBP 18.27M/136.5M, UK-02 18.52M/292.2M, KRON 33.55M/133.5M, "
        "URAND 33.55M/134.2M, HBUBL 21.2M/63.6M.",
        "Represented by scaled synthetic stand-ins of the same "
        "structural classes (see DESIGN.md section 2); paper-scale "
        "metadata retained in the registry.",
    ),
    (
        "table4",
        "Table IV — preprocessing cost",
        "Building the Rereference Matrix costs ~19.8% of one PageRank "
        "execution on average (HBUBL excepted).",
        "Same methodology (wall-clock of our vectorized RM builder vs "
        "our PageRank kernel on this host): preprocessing is a fraction "
        "of one PageRank run and shrinks as scale grows.",
    ),
    (
        "ablation_streaming_first",
        "Ablation — streaming-first victim search (Section V-C)",
        "The next-ref engine reports the first streaming way before "
        "consulting the RM.",
        "Evicting streaming data first never hurts and avoids RM "
        "lookups for ways that cannot benefit.",
    ),
    (
        "ablation_tiebreak",
        "Ablation — DRRIP tie-breaking (Section V-C)",
        "Quantization ties are settled by a baseline policy (DRRIP).",
        "DRRIP tie-breaking matches or beats naive first-way selection.",
    ),
    (
        "ablation_nuca",
        "Ablation — NUCA mapping, static check (Section V-E)",
        "Block-interleaved irregData mapping makes every RM lookup "
        "bank-local.",
        "100% local under the modified mapping vs ~1/numBanks under "
        "default striping.",
    ),
    (
        "ablation_nuca_dynamic",
        "Ablation — NUCA mapping, dynamic model (Section V-E)",
        "Same claim measured on a banked S-NUCA LLC with per-bank "
        "P-OPT engines.",
        "Every replacement-time RM lookup is bank-local under the "
        "modified mapping, with no aggregate locality cost.",
    ),
    (
        "ablation_parallel",
        "Ablation — epoch-serial parallelism (Section V-F)",
        "Multi-threaded P-OPT with a main-thread currVertex shows LLC "
        "miss rates similar to serial execution.",
        "8-thread interleaving stays within a few points of the serial "
        "miss rate on every graph.",
    ),
    (
        "related_deadblock",
        "Extension — dead-block predictors (Section VIII)",
        "\"P-OPT can more accurately identify dead lines\" than "
        "SDBP/Leeway-style prediction.",
        "SDBP and Leeway land in LRU's neighborhood on PageRank; P-OPT "
        "wins decisively.",
    ),
    (
        "future_prefetch",
        "Extension — transpose-driven prefetching (Section VIII "
        "future work)",
        "\"Next references in a graph's transpose could also be used "
        "for timely prefetching\"; also: prefetchers cut latency, not "
        "traffic, while P-OPT cuts traffic.",
        "Built it: the transpose prefetcher covers irregular misses "
        "that next-line/stride cannot touch, but raises total DRAM "
        "traffic; P-OPT is the only mechanism that lowers traffic "
        "itself.",
    ),
]

HEADER = f"""# EXPERIMENTS — paper vs. measured

Assembled {datetime.date.today().isoformat()} with Python \
{platform.python_version()}; each results file names the scale and the \
commit it was recorded at (scale profile `small`: 16 K-vertex graph \
stand-ins, 16 KiB 16-way LLC).
""" + """

Every figure and table of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` on the scaled substrate described
in DESIGN.md (synthetic stand-in graphs of the paper's five structural
classes; LLC scaled so the irregular working set exceeds it by the same
factor as in the paper). Absolute numbers differ by design — the shapes
(who wins, by roughly what factor, where crossovers fall) are the
reproduction targets. Each figure ends with its claims table: the
paper's value, the measured one, and whether the shape check holds
(`benchmarks/bench_figures.py` fails when one does not). Tables below
are verbatim from `benchmarks/results/`.

"""


def figure_label(figure_id: str) -> str:
    """``fig12a`` -> ``Fig. 12(a)``."""
    number, panel = figure_id[3:5], figure_id[5:]
    return f"Fig. {int(number)}" + (f"({panel})" if panel else "")


def main() -> None:
    figures = [
        (figure_id, f"{figure_label(figure_id)} — {figure.title}",
         figure.paper, "")
        for figure_id, figure in FIGURES.items()
    ]
    parts = [HEADER]
    missing = []
    for file_id, title, paper, verdict in figures + SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(f"**Paper:** {paper}\n")
        if verdict:
            parts.append(f"**Measured:** {verdict}\n")
        path = RESULTS / f"{file_id}.txt"
        if path.exists():
            parts.append("```\n" + path.read_text().strip() + "\n```\n")
        else:
            missing.append(file_id)
            parts.append("*(no recorded run — execute the benchmark "
                         "suite first)*\n")
    OUTPUT.write_text("\n".join(parts))
    status = f"wrote {OUTPUT}"
    if missing:
        status += f" (missing results: {', '.join(missing)})"
    print(status)


if __name__ == "__main__":
    main()
