"""Content-hash-keyed on-disk artifact store for sweep intermediates.

Generalizes the ``build/ckernels`` hash-cache pattern (hash the inputs,
cache the product under the digest, atomic rename so racing workers
converge on one file) to the simulator's expensive intermediates:

- **graphs** — generated CSR arrays, keyed by provenance
  ``(name, scale, seed)``; generation is seed-deterministic, so the
  recipe *is* the content. File-backed graphs (``file:<path>`` specs)
  have no seed-determinism contract — the file can change under the
  same path — so they key by the **content hash of the file** instead
  (see :func:`graph_content_token`).
- **prepared runs** — the full :class:`~repro.apps.base.PreparedRun`
  payload (trace channels, layout spans, per-stream reference CSRs,
  details), keyed by provenance ``(app, graph, scale, seed, technique,
  params)``.
- **private filters** — phase-2 LLC-visible subsequences
  (:class:`~repro.sim.engine.PrivateFilter`), keyed by the *content*
  hash of the trace channels plus the private-level geometry.
- **Rereference Matrices** — P-OPT's preprocessing product, keyed by the
  content hash of the reference graph plus the quantization parameters.
- **result rows** — finished sweep-task rows, keyed by the task's plan
  hash, which is what makes interrupted ``scenario_matrix`` runs
  resumable.

Arrays are stored as individual ``.npy`` files and loaded with
``np.load(..., mmap_mode="r")``, so parallel sweep workers share warm
artifacts zero-copy through the page cache instead of each rebuilding
(or each pickling) multi-megabyte traces.

Invalidation: every key embeds :data:`SCHEMA_VERSION`; bump it when the
serialized layout or the meaning of any keyed field changes. Provenance
keys additionally rely on the repo's seed-determinism contract (the same
``(name, scale, seed)`` always regenerates byte-identical arrays — the
property ``tests/sim/test_parallel.py`` already locks in). CI caches the
store directory keyed by a hash of ``src/repro``, so any source change
starts from a cold store.

The store is *opt-in*: it engages only when :data:`DIR_ENV`
(``REPRO_ARTIFACTS_DIR``) points somewhere, which :func:`configure` sets
process-wide (inherited by pool workers). Every load falls back to a
rebuild on any corruption — a broken entry is a cache miss, never an
error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PolicyError

__all__ = [
    "ArtifactStore",
    "DIR_ENV",
    "SCHEMA_VERSION",
    "configure",
    "get_store",
    "canonical_json",
    "content_digest",
    "trace_sha",
    "graph_sha",
    "file_content_sha",
    "graph_content_token",
    "cached_graph",
    "store_graph",
    "cached_prepared",
    "store_prepared",
    "cached_filter",
    "store_filter",
    "rereference_matrix_for",
    "cached_rows",
    "store_rows",
]

#: Environment variable enabling the store (value = store directory).
DIR_ENV = "REPRO_ARTIFACTS_DIR"

#: Bump on any change to serialized layouts or key semantics.
SCHEMA_VERSION = 1

KIND_GRAPH = "graph"
KIND_PREPARED = "prepared"
KIND_FILTER = "filter"
KIND_MATRIX = "rereference-matrix"
KIND_ROWS = "rows"


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_jsonify
    )


def _jsonify(obj: object) -> object:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not canonically serializable: {type(obj).__name__}")


def content_digest(kind: str, key: Dict[str, object]) -> str:
    """Stable hex digest of an artifact key (sha256 of canonical JSON)."""
    payload = canonical_json(
        {"schema": SCHEMA_VERSION, "kind": kind, "key": key}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _array_sha(*arrays: np.ndarray) -> str:
    """Content hash of numpy arrays (dtype + shape + raw bytes)."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def trace_sha(trace) -> str:
    """Content hash of a :class:`~repro.memory.trace.MemoryTrace`,
    memoized on the (frozen) trace object."""
    cached = getattr(trace, "_content_sha", None)
    if cached is None:
        cached = _array_sha(
            trace.addresses, trace.pcs, trace.writes, trace.vertices
        )
        object.__setattr__(trace, "_content_sha", cached)
    return cached


def graph_sha(graph) -> str:
    """Content hash of a CSR graph's arrays, memoized on the graph."""
    cached = getattr(graph, "_content_sha", None)
    if cached is None:
        cached = _array_sha(graph.offsets, graph.neighbors)
        object.__setattr__(graph, "_content_sha", cached)
    return cached


class ArtifactStore:
    """One on-disk store rooted at ``root``.

    Entries live at ``<root>/<kind>/<digest[:2]>/<digest>/`` as a
    ``meta.json`` plus one ``.npy`` per array channel. Writers stage
    into a sibling temp directory and rename; a concurrent writer losing
    the rename race simply discards its copy (both wrote identical
    content — keys are content/provenance hashes).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.counters: Dict[str, Dict[str, int]] = {}

    def _count(self, kind: str, event: str) -> None:
        bucket = self.counters.setdefault(
            kind, {"hits": 0, "misses": 0, "writes": 0}
        )
        bucket[event] += 1

    def entry_dir(self, kind: str, key: Dict[str, object]) -> Path:
        digest = content_digest(kind, key)
        return self.root / kind / digest[:2] / digest

    def get(
        self, kind: str, key: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Load an entry: ``{"meta": dict, "arrays": {name: ndarray}}``.

        Arrays come back memory-mapped read-only. Any corruption (missing
        meta, unreadable array) is treated as a miss.
        """
        entry = self.entry_dir(kind, key)
        meta_path = entry / "meta.json"
        try:
            payload = json.loads(meta_path.read_text())
            arrays = {
                path.stem: np.load(path, mmap_mode="r")
                for path in sorted(entry.glob("*.npy"))
            }
        except (OSError, ValueError):
            self._count(kind, "misses")
            return None
        for array in arrays.values():
            # mmap_mode="r" already maps read-only; make the contract
            # explicit so a future non-mmap load path cannot silently
            # hand out writable views of store-shared pages. Mutating
            # callers must .copy().
            array.setflags(write=False)
        self._count(kind, "hits")
        return {"meta": payload.get("meta", {}), "arrays": arrays}

    def put(
        self,
        kind: str,
        key: Dict[str, object],
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Write an entry atomically; racing writers converge."""
        entry = self.entry_dir(kind, key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = entry.parent / f".tmp-{os.getpid()}-{entry.name[:16]}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            # No sort_keys: meta may carry result rows whose key order
            # is presentation order (digests canonicalize separately).
            (tmp / "meta.json").write_text(
                json.dumps(
                    {"key": key, "meta": meta or {}}, default=_jsonify
                )
            )
            for name, array in (arrays or {}).items():
                np.save(tmp / f"{name}.npy", np.ascontiguousarray(array))
            try:
                os.rename(tmp, entry)
            except OSError:
                if not entry.exists():  # a real failure, not a lost race
                    raise
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        self._count(kind, "writes")
        return entry

    def stats(self) -> Dict[str, object]:
        """Counters per kind plus totals (CI smoke asserts on these)."""
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for bucket in self.counters.values():
            for event, count in bucket.items():
                totals[event] += count
        return {
            "root": str(self.root),
            "by_kind": {k: dict(v) for k, v in self.counters.items()},
            **totals,
        }


#: Per-process store cache so counters accumulate across call sites
#: (counters are process-local; the on-disk state is content-addressed).
_STORES: Dict[str, ArtifactStore] = {}


def get_store() -> Optional[ArtifactStore]:
    """The ambient store (``REPRO_ARTIFACTS_DIR``), or None when off."""
    root = os.environ.get(DIR_ENV, "").strip()
    if not root:
        return None
    store = _STORES.get(root)
    if store is None:
        store = ArtifactStore(root)
        _STORES[root] = store
    return store


def configure(root) -> Optional[ArtifactStore]:
    """Enable (or, with ``None``, disable) the store process-wide.

    Sets :data:`DIR_ENV` so pool workers — forked or spawned — resolve
    the same store; returns the parent-process handle.
    """
    if root is None:
        os.environ.pop(DIR_ENV, None)
        return None
    os.environ[DIR_ENV] = str(root)
    return get_store()


# ----------------------------------------------------------------------
# Graphs (provenance-keyed; file-backed graphs content-keyed)
# ----------------------------------------------------------------------

#: ``(abspath, mtime_ns, size)`` -> sha256, so repeated sweep tasks over
#: the same graph file hash it once per process, not once per task. An
#: edited file changes its stat signature, so stale entries never hit.
_FILE_SHA_CACHE: Dict[Tuple[str, int, int], str] = {}


def file_content_sha(path) -> str:
    """sha256 of a file's bytes, memoized on ``(path, mtime, size)``.

    Chunked read, so hashing a multi-gigabyte edge list doesn't load it.
    """
    stat = os.stat(path)
    signature = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
    cached = _FILE_SHA_CACHE.get(signature)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 22), b""):
            h.update(block)
    digest = h.hexdigest()
    _FILE_SHA_CACHE[signature] = digest
    return digest


def graph_content_token(name: str) -> Optional[str]:
    """The content hash for a ``file:`` graph spec, else ``None``.

    Named generator graphs are seed-deterministic, so their provenance
    key is already content-stable and this returns ``None`` (keeping
    their store digests unchanged).
    """
    from ..graph import datasets

    if not datasets.is_file_spec(name):
        return None
    return file_content_sha(datasets.file_spec_path(name))


def _graph_key(name: str, scale: str, seed: int) -> Dict[str, object]:
    token = graph_content_token(name)
    if token is not None:
        return {"name": name, "content": token}
    return {"name": name, "scale": scale, "seed": seed}


def cached_graph(store: ArtifactStore, name: str, scale: str, seed: int):
    entry = store.get(KIND_GRAPH, _graph_key(name, scale, seed))
    if entry is None:
        return None
    from ..graph.csr import CSRGraph

    try:
        return CSRGraph(
            offsets=entry["arrays"]["offsets"],
            neighbors=entry["arrays"]["neighbors"],
        )
    except Exception:
        return None


def store_graph(
    store: ArtifactStore, name: str, scale: str, seed: int, graph
) -> None:
    store.put(
        KIND_GRAPH,
        _graph_key(name, scale, seed),
        arrays={"offsets": graph.offsets, "neighbors": graph.neighbors},
        meta={"num_vertices": graph.num_vertices},
    )


# ----------------------------------------------------------------------
# Prepared runs (provenance-keyed)
# ----------------------------------------------------------------------


def _span_fields(span) -> Dict[str, object]:
    return {
        "name": span.name,
        "base": span.base,
        "num_elems": span.num_elems,
        "elem_bits": span.elem_bits,
        "line_size": span.line_size,
        "irregular": span.irregular,
    }


def store_prepared(
    store: ArtifactStore, key: Dict[str, object], prepared
) -> None:
    arrays: Dict[str, np.ndarray] = {
        "trace_addresses": prepared.trace.addresses,
        "trace_pcs": prepared.trace.pcs,
        "trace_writes": prepared.trace.writes,
        "trace_vertices": prepared.trace.vertices,
    }
    streams: List[Dict[str, object]] = []
    for index, stream in enumerate(prepared.irregular_streams):
        arrays[f"ref{index}_offsets"] = stream.reference_graph.offsets
        arrays[f"ref{index}_neighbors"] = stream.reference_graph.neighbors
        streams.append({"span": stream.span.name})
    meta = {
        "app_name": prepared.app_name,
        "details": prepared.details,
        "line_size": prepared.layout.line_size,
        "spans": [_span_fields(span) for span in prepared.layout.spans],
        "streams": streams,
    }
    store.put(KIND_PREPARED, key, arrays=arrays, meta=meta)


def cached_prepared(store: ArtifactStore, key: Dict[str, object]):
    """Rebuild a :class:`PreparedRun` from a stored entry, or None.

    ``reference_result`` is not serialized (nothing on the replay path
    consumes it): the rebuilt run has no ``reference`` and reads
    ``None``. The engine-side caches (filters, decode) start empty
    and re-fill from their own store kinds.
    """
    entry = store.get(KIND_PREPARED, key)
    if entry is None:
        return None
    from ..apps.base import PreparedRun
    from ..graph.csr import CSRGraph
    from ..memory.layout import AddressSpace, ArraySpan
    from ..memory.trace import MemoryTrace
    from ..popt.topt import IrregularStream

    meta = entry["meta"]
    arrays = entry["arrays"]
    try:
        spans = [ArraySpan(**fields) for fields in meta["spans"]]
        layout = AddressSpace.from_spans(spans, line_size=meta["line_size"])
        trace = MemoryTrace(
            addresses=arrays["trace_addresses"],
            pcs=arrays["trace_pcs"],
            writes=arrays["trace_writes"],
            vertices=arrays["trace_vertices"],
        )
        streams = []
        for index, stream_meta in enumerate(meta["streams"]):
            streams.append(IrregularStream(
                span=layout[stream_meta["span"]],
                reference_graph=CSRGraph(
                    offsets=arrays[f"ref{index}_offsets"],
                    neighbors=arrays[f"ref{index}_neighbors"],
                ),
            ))
        return PreparedRun(
            app_name=meta["app_name"],
            layout=layout,
            trace=trace,
            irregular_streams=streams,
            details=dict(meta["details"]),
        )
    except Exception:
        return None


# ----------------------------------------------------------------------
# Private filters (content-keyed by trace hash + private geometry)
# ----------------------------------------------------------------------


def _level_geometry(config) -> Optional[List[int]]:
    if config is None:
        return None
    return [config.num_sets, config.num_ways]


def _filter_store_key(trace, hierarchy_config) -> Dict[str, object]:
    return {
        "trace": trace_sha(trace),
        "l1": _level_geometry(hierarchy_config.l1),
        "l2": _level_geometry(hierarchy_config.l2),
        "line_size": hierarchy_config.line_size,
    }


def _stats_fields(stats) -> Optional[Dict[str, object]]:
    if stats is None:
        return None
    return {
        "name": stats.name,
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
    }


def store_filter(
    store: ArtifactStore, trace, hierarchy_config, filt
) -> None:
    store.put(
        KIND_FILTER,
        _filter_store_key(trace, hierarchy_config),
        arrays={
            "mask": filt.mask,
            "lines": filt.lines,
            "pcs": filt.pcs,
            "writes": filt.writes,
            "vertices": filt.vertices,
            "indices": filt.indices,
        },
        meta={
            "num_accesses": filt.num_accesses,
            "l1_stats": _stats_fields(filt.l1_stats),
            "l2_stats": _stats_fields(filt.l2_stats),
            "l1_hits": filt.l1_hits,
            "l2_hits": filt.l2_hits,
            # Provenance only: what the original build cost. Engine
            # reports count rehydrated filters as reused (0.0 phases).
            "decode_seconds": filt.decode_seconds,
            "filter_seconds": filt.filter_seconds,
        },
    )


def cached_filter(store: ArtifactStore, trace, hierarchy_config):
    entry = store.get(KIND_FILTER, _filter_store_key(trace, hierarchy_config))
    if entry is None:
        return None
    from ..cache.stats import CacheStats
    from .engine import PrivateFilter, filter_key

    meta = entry["meta"]
    arrays = entry["arrays"]

    def stats_from(fields):
        return None if fields is None else CacheStats(**fields)

    try:
        return PrivateFilter(
            key=filter_key(hierarchy_config),
            num_accesses=meta["num_accesses"],
            mask=arrays["mask"],
            l1_stats=stats_from(meta["l1_stats"]),
            l2_stats=stats_from(meta["l2_stats"]),
            l1_hits=meta["l1_hits"],
            l2_hits=meta["l2_hits"],
            lines=arrays["lines"],
            pcs=arrays["pcs"],
            writes=arrays["writes"],
            vertices=arrays["vertices"],
            indices=arrays["indices"],
            decode_seconds=float(meta.get("decode_seconds", 0.0)),
            filter_seconds=float(meta.get("filter_seconds", 0.0)),
        )
    except Exception:
        return None


# ----------------------------------------------------------------------
# Rereference Matrices (content-keyed by reference-graph hash + params)
# ----------------------------------------------------------------------


def rereference_matrix_for(
    reference_graph,
    elems_per_line: int,
    entry_bits: int,
    variant: str,
    num_lines: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
):
    """Build (or load) a Rereference Matrix through the ambient store.

    Drop-in for :func:`repro.popt.rereference.build_rereference_matrix`;
    with no store configured it simply builds.
    """
    from ..popt.rereference import RereferenceMatrix, build_rereference_matrix

    store = store if store is not None else get_store()
    if store is None:
        return build_rereference_matrix(
            reference_graph,
            elems_per_line=elems_per_line,
            entry_bits=entry_bits,
            variant=variant,
            num_lines=num_lines,
        )
    key = {
        "graph": graph_sha(reference_graph),
        "elems_per_line": elems_per_line,
        "entry_bits": entry_bits,
        "variant": variant,
        "num_lines": num_lines,
    }
    entry = store.get(KIND_MATRIX, key)
    if entry is not None:
        meta = entry["meta"]
        try:
            return RereferenceMatrix(
                entries=entry["arrays"]["entries"],
                variant=meta["variant"],
                entry_bits=meta["entry_bits"],
                epoch_size=meta["epoch_size"],
                sub_epoch_size=meta["sub_epoch_size"],
                elems_per_line=meta["elems_per_line"],
                num_vertices=meta["num_vertices"],
            )
        except (KeyError, TypeError, ValueError, PolicyError):
            pass  # a malformed stored entry: rebuild and overwrite it
    matrix = build_rereference_matrix(
        reference_graph,
        elems_per_line=elems_per_line,
        entry_bits=entry_bits,
        variant=variant,
        num_lines=num_lines,
    )
    store.put(
        KIND_MATRIX,
        key,
        arrays={"entries": matrix.entries},
        meta={
            "variant": matrix.variant,
            "entry_bits": matrix.entry_bits,
            "epoch_size": matrix.epoch_size,
            "sub_epoch_size": matrix.sub_epoch_size,
            "elems_per_line": matrix.elems_per_line,
            "num_vertices": matrix.num_vertices,
        },
    )
    return matrix


# ----------------------------------------------------------------------
# Result rows (plan-hash-keyed; what makes sweeps resumable)
# ----------------------------------------------------------------------


def cached_rows(
    store: ArtifactStore, task_key: Dict[str, object]
) -> Optional[List[Dict[str, object]]]:
    entry = store.get(KIND_ROWS, {"task": task_key})
    if entry is None:
        return None
    meta = entry["meta"]
    rows = meta.get("rows")
    return list(rows) if isinstance(rows, list) else None


def store_rows(
    store: ArtifactStore,
    task_key: Dict[str, object],
    rows: List[Dict[str, object]],
) -> None:
    store.put(KIND_ROWS, {"task": task_key}, meta={"rows": rows})
