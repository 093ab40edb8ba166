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

Every kind is looked up through one path, :func:`get_or_build`: the
caller's in-process memo, then the store, then the build, whose product
is written back. A kind is only its codec (:class:`Kind`: key, encode,
decode). A lookup is a miss exactly when reading or decoding the entry
raises one of :data:`BAD_ENTRY_ERRORS`: the bad entry counts as a miss,
never a hit, and is removed, so its rebuild is written in its place and
the next lookup hits. Any other error is a bug and propagates.

The store is *opt-in*: it engages only when :data:`DIR_ENV`
(``REPRO_ARTIFACTS_DIR``) points somewhere, which :func:`configure` sets
process-wide (inherited by pool workers). Without it no store key is
derived, so no content hash runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphFormatError, PolicyError

__all__ = [
    "ArtifactStore", "BAD_ENTRY_ERRORS", "DIR_ENV", "SCHEMA_VERSION",
    "Kind", "GRAPH", "PREPARED", "FILTER", "MATRIX", "ROWS",
    "configure", "get_store", "get_or_build", "lookup", "build_and_store",
    "canonical_json", "content_digest", "trace_sha", "graph_sha",
    "file_content_sha", "graph_content_token",
    "cached_graph", "store_graph", "cached_prepared", "store_prepared",
    "cached_filter", "store_filter", "cached_rows", "store_rows",
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

#: What reading or decoding a bad entry raises (truncated or missing
#: files, a ``meta.json`` missing a field or holding a wrong type, arrays
#: a constructor refuses). A lookup that raises one of these is a miss;
#: ``EOFError`` is numpy's error for a zero-byte ``.npy``.
BAD_ENTRY_ERRORS = (
    OSError, EOFError, ValueError, KeyError, TypeError, GraphFormatError,
    PolicyError,
)


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
    into a sibling temp directory and rename; a writer that finds the
    entry already there keeps it and discards its copy (both wrote
    identical content — keys are content/provenance hashes).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.counters: Dict[str, Dict[str, int]] = {}

    def _bucket(self, kind: str) -> Dict[str, int]:
        return self.counters.setdefault(
            kind, {"hits": 0, "misses": 0, "writes": 0}
        )

    def _count(self, kind: str, event: str) -> None:
        self._bucket(kind)[event] += 1

    def entry_dir(self, kind: str, key: Dict[str, object]) -> Path:
        digest = content_digest(kind, key)
        return self.root / kind / digest[:2] / digest

    def get(
        self, kind: str, key: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Load an entry: ``{"meta": dict, "arrays": {name: ndarray}}``.

        Arrays come back memory-mapped read-only. An entry that is
        absent or does not read (:data:`BAD_ENTRY_ERRORS`) is a miss.
        """
        entry = self.entry_dir(kind, key)
        try:
            meta = json.loads((entry / "meta.json").read_text())["meta"]
            arrays = {
                path.stem: np.load(path, mmap_mode="r")
                for path in sorted(entry.glob("*.npy"))
            }
        except BAD_ENTRY_ERRORS:
            self._count(kind, "misses")
            return None
        for array in arrays.values():
            # mmap_mode="r" already maps read-only; make the contract
            # explicit so a future non-mmap load path cannot silently
            # hand out writable views of store-shared pages. Mutating
            # callers must .copy().
            array.setflags(write=False)
        self._count(kind, "hits")
        return {"meta": meta, "arrays": arrays}

    def put(
        self,
        kind: str,
        key: Dict[str, object],
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Write an entry atomically; never over an existing one.

        A writer that finds the entry present, or loses the rename race
        to a concurrent writer, keeps the entry that is there. Only a
        rename that landed counts as a write.
        """
        entry = self.entry_dir(kind, key)
        if entry.exists():
            return entry
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
            else:
                self._count(kind, "writes")
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        return entry

    def counts_since(
        self, before: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """What the counters moved since ``before`` (a ``stats()``
        ``by_kind`` map)."""
        return {
            kind: {
                event: count - before.get(kind, {}).get(event, 0)
                for event, count in bucket.items()
            }
            for kind, bucket in self.counters.items()
        }

    def add_counts(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Add another process's :meth:`counts_since` to these counters
        (a pool worker's lookups, reported by the parent)."""
        for kind, bucket in delta.items():
            mine = self._bucket(kind)
            for event, count in bucket.items():
                mine[event] += count

    def discard(self, kind: str, key: Dict[str, object]) -> None:
        """Remove an entry, if there is one, so its rebuild can land."""
        shutil.rmtree(self.entry_dir(kind, key), ignore_errors=True)

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
# The one get-or-build path
# ----------------------------------------------------------------------

Arrays = Dict[str, np.ndarray]
Meta = Dict[str, object]


@dataclass(frozen=True)
class Kind:
    """One artifact kind: its directory name and its codec.

    ``key`` maps a lookup's arguments to the entry's store key; it runs
    only when a store is configured. ``encode`` turns a value into
    ``(arrays, meta)`` and ``decode`` turns them back.
    """

    name: str
    key: Callable[..., Dict[str, object]]
    encode: Callable[[Any], Tuple[Arrays, Meta]]
    decode: Callable[[Arrays, Meta], Any]


def _read(store: ArtifactStore, kind: Kind, key: Dict[str, object]):
    """The decoded entry under ``key``, or None on a miss.

    A bad entry is counted as a miss and removed, so the value rebuilt
    for it can be written. An entry that was absent when the lookup
    began is never removed: another worker may have written it since.
    """
    present = store.entry_dir(kind.name, key).is_dir()
    entry = store.get(kind.name, key)
    if entry is not None:
        try:
            return kind.decode(entry["arrays"], entry["meta"])
        except BAD_ENTRY_ERRORS:  # read, but not a value: a miss
            bucket = store.counters[kind.name]
            bucket["hits"] -= 1
            bucket["misses"] += 1
    if present:
        store.discard(kind.name, key)
    return None


def _write(
    store: ArtifactStore, kind: Kind, key: Dict[str, object], value
) -> None:
    arrays, meta = kind.encode(value)
    store.put(kind.name, key, arrays=arrays, meta=meta)


def lookup(kind: Kind, key: Tuple[object, ...]):
    """The store step alone: the stored value, or None (a miss, or no
    store). ``key`` is the argument tuple of ``kind.key``."""
    store = get_store()
    return None if store is None else _read(store, kind, kind.key(*key))


def build_and_store(kind: Kind, key: Tuple[object, ...], build):
    """The build step alone, after a miss: build, then write the value
    if a store is configured."""
    value = build()
    store = get_store()
    if store is not None:
        _write(store, kind, kind.key(*key), value)
    return value


def get_or_build(
    kind: Kind, key: Tuple[object, ...], build: Callable[[], Any],
    memory: Optional[dict] = None, slot: object = None,
    bound: Optional[int] = None,
):
    """Memory, then store, then build: the one lookup of every kind.

    ``memory`` is the caller's in-process memo and ``slot`` the value's
    place in it; with ``bound`` it is an ``OrderedDict`` kept as an LRU
    of that many values. A value read or built is put there.
    """
    if memory is not None:
        value = memory.get(slot)
        if value is not None:
            if bound is not None:
                memory.move_to_end(slot)
            return value
    value = lookup(kind, key)
    if value is None:
        value = build_and_store(kind, key, build)
    if memory is not None:
        memory[slot] = value
        while bound is not None and len(memory) > bound:
            memory.popitem(last=False)
    return value


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


def _encode_graph(graph) -> Tuple[Arrays, Meta]:
    return (
        {"offsets": graph.offsets, "neighbors": graph.neighbors},
        {"num_vertices": graph.num_vertices},
    )


def _decode_graph(arrays: Arrays, meta: Meta):
    from ..graph.csr import CSRGraph

    return CSRGraph(
        offsets=arrays["offsets"], neighbors=arrays["neighbors"]
    ).freeze()


GRAPH = Kind(KIND_GRAPH, _graph_key, _encode_graph, _decode_graph)


def cached_graph(store: ArtifactStore, name: str, scale: str, seed: int):
    return _read(store, GRAPH, _graph_key(name, scale, seed))


def store_graph(
    store: ArtifactStore, name: str, scale: str, seed: int, graph
) -> None:
    _write(store, GRAPH, _graph_key(name, scale, seed), graph)


# ----------------------------------------------------------------------
# Prepared runs (provenance-keyed)
# ----------------------------------------------------------------------


#: A trace's channels, stored as ``trace_<channel>`` arrays.
_TRACE_CHANNELS = ("addresses", "pcs", "writes", "vertices")


def _encode_prepared(prepared) -> Tuple[Arrays, Meta]:
    arrays: Arrays = {
        f"trace_{channel}": getattr(prepared.trace, channel)
        for channel in _TRACE_CHANNELS
    }
    for index, stream in enumerate(prepared.irregular_streams):
        arrays[f"ref{index}_offsets"] = stream.reference_graph.offsets
        arrays[f"ref{index}_neighbors"] = stream.reference_graph.neighbors
    meta = {
        "app_name": prepared.app_name,
        "details": prepared.details,
        "line_size": prepared.layout.line_size,
        "spans": [asdict(span) for span in prepared.layout.spans],
        "streams": [
            {
                "span": stream.span.name,
                "graph_sha": graph_sha(stream.reference_graph),
            }
            for stream in prepared.irregular_streams
        ],
        "trace_sha": trace_sha(prepared.trace),
    }
    return arrays, meta


def _with_sha(obj, sha: object):
    """``obj`` with its content hash memoized as read from an entry's
    meta, so :func:`trace_sha` / :func:`graph_sha` never re-read the
    arrays. A hash that is not a hex digest makes a bad entry."""
    if not (isinstance(sha, str) and len(sha) == 64):
        raise ValueError(f"stored content hash {sha!r} is not a sha256")
    object.__setattr__(obj, "_content_sha", sha)
    return obj


def _decode_prepared(arrays: Arrays, meta: Meta):
    """Rebuild a :class:`PreparedRun` from a stored entry.

    ``reference_result`` is not serialized (nothing on the replay path
    consumes it): the rebuilt run has no ``reference`` and reads
    ``None``. The engine-side caches (filters, matrices) start empty
    and re-fill from their own store kinds. The trace and the reference
    graphs carry the content hashes recorded when the entry was
    written, so keying their filters and matrices reads none of their
    pages; an entry without them is a bad entry.
    """
    from ..apps.base import PreparedRun
    from ..graph.csr import CSRGraph
    from ..memory.layout import AddressSpace, ArraySpan
    from ..memory.trace import MemoryTrace
    from ..popt.topt import IrregularStream

    spans = [ArraySpan(**fields) for fields in meta["spans"]]
    layout = AddressSpace.from_spans(spans, line_size=meta["line_size"])
    trace = _with_sha(MemoryTrace(**{
        channel: arrays[f"trace_{channel}"] for channel in _TRACE_CHANNELS
    }), meta["trace_sha"])
    streams = [
        IrregularStream(
            span=layout[stream_meta["span"]],
            reference_graph=_with_sha(CSRGraph(
                offsets=arrays[f"ref{index}_offsets"],
                neighbors=arrays[f"ref{index}_neighbors"],
            ), stream_meta["graph_sha"]),
        )
        for index, stream_meta in enumerate(meta["streams"])
    ]
    return PreparedRun(
        app_name=meta["app_name"],
        layout=layout,
        trace=trace,
        irregular_streams=streams,
        details=dict(meta["details"]),
    )


#: Keyed by a :class:`~repro.sim.parallel.SweepTask`'s ``artifact_key()``.
PREPARED = Kind(
    KIND_PREPARED, lambda task: task.artifact_key(),
    _encode_prepared, _decode_prepared,
)


def store_prepared(
    store: ArtifactStore, key: Dict[str, object], prepared
) -> None:
    _write(store, PREPARED, key, prepared)


def cached_prepared(store: ArtifactStore, key: Dict[str, object]):
    return _read(store, PREPARED, key)


# ----------------------------------------------------------------------
# Private filters (content-keyed by trace hash + private geometry)
# ----------------------------------------------------------------------


def _level_geometry(config) -> Optional[List[int]]:
    if config is None:
        return None
    return [config.num_sets, config.num_ways]


def _filter_key(trace, hierarchy_config) -> Dict[str, object]:
    return {
        "trace": trace_sha(trace),
        "l1": _level_geometry(hierarchy_config.l1),
        "l2": _level_geometry(hierarchy_config.l2),
        "line_size": hierarchy_config.line_size,
    }


#: A filter's array channels, and the scalars its ``meta`` carries
#: beside the two private-level stats.
_FILTER_ARRAYS = ("mask", "lines", "pcs", "writes", "vertices", "indices")
_FILTER_SCALARS = ("num_accesses", "l1_hits", "l2_hits")


def _encode_filter(filt) -> Tuple[Arrays, Meta]:
    meta = {name: getattr(filt, name) for name in _FILTER_SCALARS}
    for level in ("l1_stats", "l2_stats"):
        stats = getattr(filt, level)
        meta[level] = None if stats is None else asdict(stats)
    # Provenance only: what the original build cost. Engine reports
    # count rehydrated filters as reused (0.0 phases).
    meta["decode_seconds"] = filt.decode_seconds
    meta["filter_seconds"] = filt.filter_seconds
    return {name: getattr(filt, name) for name in _FILTER_ARRAYS}, meta


def _decode_filter(arrays: Arrays, meta: Meta):
    from ..cache.stats import CacheStats
    from .engine import PrivateFilter

    return PrivateFilter(
        **{name: arrays[name] for name in _FILTER_ARRAYS},
        **{name: meta[name] for name in _FILTER_SCALARS},
        **{
            level: None if meta[level] is None
            else CacheStats(**meta[level])
            for level in ("l1_stats", "l2_stats")
        },
        decode_seconds=float(meta.get("decode_seconds", 0.0)),
        filter_seconds=float(meta.get("filter_seconds", 0.0)),
    )


FILTER = Kind(KIND_FILTER, _filter_key, _encode_filter, _decode_filter)


def store_filter(
    store: ArtifactStore, trace, hierarchy_config, filt
) -> None:
    _write(store, FILTER, _filter_key(trace, hierarchy_config), filt)


def cached_filter(store: ArtifactStore, trace, hierarchy_config):
    return _read(store, FILTER, _filter_key(trace, hierarchy_config))


# ----------------------------------------------------------------------
# Rereference Matrices (content-keyed by reference-graph hash + params)
# ----------------------------------------------------------------------


def _matrix_key(
    reference_graph, elems_per_line, entry_bits, variant, num_lines
) -> Dict[str, object]:
    return {
        "graph": graph_sha(reference_graph),
        "elems_per_line": elems_per_line,
        "entry_bits": entry_bits,
        "variant": variant,
        "num_lines": num_lines,
    }


_MATRIX_FIELDS = (
    "variant", "entry_bits", "epoch_size", "sub_epoch_size",
    "elems_per_line", "num_vertices",
)


def _encode_matrix(matrix) -> Tuple[Arrays, Meta]:
    return (
        {"entries": matrix.entries},
        {name: getattr(matrix, name) for name in _MATRIX_FIELDS},
    )


def _decode_matrix(arrays: Arrays, meta: Meta):
    from ..popt.rereference import RereferenceMatrix

    return RereferenceMatrix(
        entries=arrays["entries"],
        **{name: meta[name] for name in _MATRIX_FIELDS},
    )


#: Keyed by ``(reference_graph, elems_per_line, entry_bits, variant,
#: num_lines)``, the arguments of ``build_rereference_matrix``.
MATRIX = Kind(KIND_MATRIX, _matrix_key, _encode_matrix, _decode_matrix)


# ----------------------------------------------------------------------
# Result rows (plan-hash-keyed; what makes sweeps resumable)
# ----------------------------------------------------------------------


def _encode_rows(rows: List[Dict[str, object]]) -> Tuple[Arrays, Meta]:
    return {}, {"rows": rows}


def _decode_rows(arrays: Arrays, meta: Meta) -> List[Dict[str, object]]:
    rows = meta["rows"]
    if not isinstance(rows, list):
        raise TypeError(f"stored rows are a {type(rows).__name__}")
    return list(rows)


#: Keyed by a :class:`~repro.sim.parallel.SweepTask`'s ``rows_key()``.
ROWS = Kind(
    KIND_ROWS, lambda task: {"task": task.rows_key()},
    _encode_rows, _decode_rows,
)


def cached_rows(
    store: ArtifactStore, task_key: Dict[str, object]
) -> Optional[List[Dict[str, object]]]:
    return _read(store, ROWS, {"task": task_key})


def store_rows(
    store: ArtifactStore,
    task_key: Dict[str, object],
    rows: List[Dict[str, object]],
) -> None:
    _write(store, ROWS, {"task": task_key}, rows)
