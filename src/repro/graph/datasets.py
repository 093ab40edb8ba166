"""Named input graphs: scaled-down stand-ins for the paper's Table III.

The paper evaluates on five large graphs (18-34 M vertices). Running a
trace-driven cache simulator in Python at that scale is infeasible, so each
name maps to a synthetic generator from the same *structural class* at a
configurable scale, paired with a proportionally scaled cache (see
``repro.cache.config.scaled_hierarchy``). The working-set >> LLC regime —
the property every experiment depends on — is preserved at all scales.

Real graphs enter through ``file:<path>`` specs: any spec string with
the ``file:`` prefix loads the file via :func:`repro.graph.io.load_graph`
(format chosen by extension — ``.el``/``.wel``/``.mtx``/``.sg``/``.npz``)
instead of a generator. ``file:`` specs are accepted everywhere a graph
name is — :func:`load`, experiment specs, and the CLI — with scale and
seed ignored (a file's topology is fixed).

Synthetic-size specs ``NAME@N`` (e.g. ``URAND@65536``) build a named
generator at exactly ``N`` vertices instead of a scale profile's count;
``scale`` is ignored for them (Fig. 11 sweeps graph size this way).

:func:`load` keeps the last :data:`GRAPH_MEMO_SIZE` graphs per process,
with read-only arrays, so a sweep that crosses every app with every
graph builds each graph once. A ``file:`` entry is keyed on the file's
``(abspath, mtime_ns, size)`` signature, so an edited file reloads.

==========  =======================  ==========================================
Paper name  Structural class         Stand-in generator
==========  =======================  ==========================================
DBP         power-law (knowledge     :func:`repro.graph.generators.power_law`
            graph, hubs)
UK-02       community structure      :func:`repro.graph.generators.community`
            (web crawl)
KRON        extreme skew             :func:`repro.graph.generators.rmat`
            (synthetic Kronecker)
URAND       uniform random           :func:`repro.graph.generators.uniform_random`
HBUBL       bounded degree, high     :func:`repro.graph.generators.bounded_degree_mesh`
            diameter
==========  =======================  ==========================================
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import GraphFormatError
from . import generators
from .csr import CSRGraph

__all__ = [
    "GraphSpec",
    "SCALES",
    "PAPER_GRAPHS",
    "EXTENDED_GRAPHS",
    "FILE_PREFIX",
    "GRAPH_MEMO_SIZE",
    "is_file_spec",
    "file_spec_path",
    "graph_names",
    "load",
    "paper_table3",
]

#: Prefix marking a graph spec as file-backed rather than generated.
FILE_PREFIX = "file:"


def is_file_spec(name: str) -> bool:
    """True if ``name`` is a ``file:<path>`` graph spec."""
    return name.startswith(FILE_PREFIX)


def file_spec_path(name: str) -> str:
    """The filesystem path inside a ``file:<path>`` spec."""
    if not is_file_spec(name):
        raise GraphFormatError(f"{name!r} is not a file: graph spec")
    path = name[len(FILE_PREFIX):]
    if not path:
        raise GraphFormatError("empty path in file: graph spec")
    return path

#: Vertex counts per scale profile. "small" is the default used by tests
#: and benchmarks; "tiny" is for unit tests; larger profiles trade runtime
#: for fidelity.
SCALES: Dict[str, int] = {
    "tiny": 1024,
    "small": 16384,
    "medium": 65536,
    "large": 262144,
}


@dataclass(frozen=True)
class GraphSpec:
    """A named graph: structural class + generator + paper-scale metadata."""

    name: str
    structural_class: str
    paper_vertices_m: float
    paper_edges_m: float
    build: Callable[[int, int], CSRGraph]

    def generate(self, scale: str = "small", seed: int = 42) -> CSRGraph:
        """Build the stand-in graph at the given scale profile."""
        if scale not in SCALES:
            raise GraphFormatError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
        return self.build(SCALES[scale], seed)


def _build_dbp(n: int, seed: int) -> CSRGraph:
    return generators.power_law(n, avg_degree=8.0, exponent=2.1, seed=seed)


def _build_uk02(n: int, seed: int) -> CSRGraph:
    return generators.community(
        n,
        num_communities=max(4, n // 256),
        avg_degree=16.0,
        internal_fraction=0.9,
        seed=seed,
    )


def _build_kron(n: int, seed: int) -> CSRGraph:
    scale = max(1, (n - 1).bit_length())
    return generators.rmat(scale, avg_degree=4.0, seed=seed)


def _build_urand(n: int, seed: int) -> CSRGraph:
    return generators.uniform_random(n, avg_degree=4.0, seed=seed)


def _build_hbubl(n: int, seed: int) -> CSRGraph:
    return generators.bounded_degree_mesh(n, degree=6, seed=seed)


PAPER_GRAPHS: Tuple[GraphSpec, ...] = (
    GraphSpec("DBP", "power-law", 18.27, 136.53, _build_dbp),
    GraphSpec("UK-02", "community", 18.52, 292.24, _build_uk02),
    GraphSpec("KRON", "skewed-kronecker", 33.55, 133.51, _build_kron),
    GraphSpec("URAND", "uniform-random", 33.55, 134.22, _build_urand),
    GraphSpec("HBUBL", "bounded-degree", 21.20, 63.58, _build_hbubl),
)


def _build_gpl(n: int, seed: int) -> CSRGraph:
    # GPL: the most skewed input in Fig. 12(a) — a steeper power law.
    return generators.power_law(n, avg_degree=8.0, exponent=1.9, seed=seed)


def _build_arab(n: int, seed: int) -> CSRGraph:
    # ARAB: the second community-structured crawl of Fig. 12(b). Unlike
    # the UK-02 stand-in (ID-contiguous communities, i.e. crawl-ordered),
    # ARAB's vertex IDs are scrambled: community structure exists in the
    # topology but not in the ID space, so identity-order traversals see
    # none of it — the case where HATS-BDFS's dynamic scheduling shines.
    import numpy as np

    contiguous = generators.community(
        n,
        num_communities=max(4, n // 128),
        avg_degree=16.0,
        internal_fraction=0.95,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    return contiguous.relabel(
        rng.permutation(contiguous.num_vertices).astype(np.int32)
    )


def _build_urand64(n: int, seed: int) -> CSRGraph:
    # URAND64: Fig. 13's larger uniform graph (2x URAND's vertices).
    return generators.uniform_random(2 * n, avg_degree=4.0, seed=seed)


#: Additional inputs used by individual experiments (Figs. 12-13).
EXTENDED_GRAPHS: Tuple[GraphSpec, ...] = (
    GraphSpec("GPL", "power-law-steep", 0.0, 0.0, _build_gpl),
    GraphSpec("ARAB", "community-strong", 0.0, 0.0, _build_arab),
    GraphSpec("URAND64", "uniform-random-2x", 0.0, 0.0, _build_urand64),
)

_BY_NAME = {
    spec.name: spec for spec in PAPER_GRAPHS + EXTENDED_GRAPHS
}


def graph_names() -> List[str]:
    """The paper's graph names, in Table III order."""
    return [spec.name for spec in PAPER_GRAPHS]


#: Graphs :func:`load` keeps per process. Sweeps expand units app-major,
#: so an LRU with fewer slots than a spec has graphs would miss on every
#: access; the largest figure spec (Figs. 12a/12b) crosses 6 graphs.
GRAPH_MEMO_SIZE = 8

# Per-process graph LRU: graphs are seed-deterministic and read-only in
# both directions, so every task in a process may share one.
_GRAPH_MEMO: "OrderedDict[Tuple[object, ...], CSRGraph]" = OrderedDict()


def load(name: str, scale: str = "small", seed: int = 42) -> CSRGraph:
    """Load the graph for a spec: a name, ``NAME@N`` or ``file:<path>``.

    For ``file:`` specs the file's topology is what it is — ``scale``
    and ``seed`` are ignored. ``NAME@N`` builds ``NAME``'s generator at
    ``N`` vertices with ``seed``, ignoring ``scale``. The result may be
    shared with earlier and later callers, so its arrays are read-only.
    """
    if is_file_spec(name):
        path = file_spec_path(name)
        try:
            stat = os.stat(path)
        except OSError:
            raise GraphFormatError(
                f"{path}: graph file does not exist"
            ) from None
        key: Tuple[object, ...] = (
            FILE_PREFIX, os.path.abspath(path), stat.st_mtime_ns,
            stat.st_size,
        )
    else:
        key = (name, scale, seed)
    graph = _GRAPH_MEMO.get(key)
    if graph is None:
        graph = _build(name, scale, seed).freeze()
        _GRAPH_MEMO[key] = graph
        while len(_GRAPH_MEMO) > GRAPH_MEMO_SIZE:
            _GRAPH_MEMO.popitem(last=False)
    else:
        _GRAPH_MEMO.move_to_end(key)
    return graph


def _build(name: str, scale: str, seed: int) -> CSRGraph:
    if is_file_spec(name):
        from . import io

        return io.load_graph(file_spec_path(name))
    base, sized, count = name.partition("@")
    try:
        spec = _BY_NAME[base]
    except KeyError:
        raise GraphFormatError(
            f"unknown graph {name!r}; choose from {graph_names()} "
            f"(optionally NAME@<vertices>) or a {FILE_PREFIX}<path> spec"
        ) from None
    if not sized:
        return spec.generate(scale=scale, seed=seed)
    if not count.isdigit() or int(count) < 1:
        raise GraphFormatError(
            f"graph spec {name!r} needs a positive vertex count after '@'"
        )
    return spec.build(int(count), seed)


def paper_table3() -> List[dict]:
    """Table III of the paper as data (paper-scale vertex/edge counts)."""
    return [
        {
            "graph": spec.name,
            "class": spec.structural_class,
            "paper_vertices_M": spec.paper_vertices_m,
            "paper_edges_M": spec.paper_edges_m,
        }
        for spec in PAPER_GRAPHS
    ]
