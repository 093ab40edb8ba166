"""Graph serialization and real-graph ingestion.

Formats:

- ``.el``  — SNAP/GAP-style text edge list (``src dst`` per line).
- ``.wel`` — weighted text edge list (``src dst weight`` per line).
- ``.mtx`` — MatrixMarket coordinate files (pattern/integer/real,
  general or symmetric) as published by SuiteSparse and many archives.
- ``.sg``  — the GAP benchmark suite's serialized binary CSR.
- ``.npz`` — this library's own binary CSR archive.

Text loaders parse in fixed-size byte blocks: each block is normalized
(CRLF and lone ``\\r`` endings, tab or space separators), comment lines
are cut out (found with ``bytes.find``, so only they are visited), and
the surviving text is parsed with one ``np.fromstring(block, dtype,
sep=" ")`` call — no per-line Python loop — guarded against the inputs
it would read silently (see :func:`_parse_tokens`).
The trailing partial line of every block carries into the next, so
blocks always cover whole lines. Each file is read once and never held
as raw text: the blocks' token arrays are concatenated (O(E) memory,
like the build itself) and handed to
:func:`repro.graph.builders.from_edges`, the one CSR build path.

All loaders funnel malformed input into :class:`GraphFormatError` with
the offending path (and line, where known) — never a downstream
``IndexError``. Binary CSR payloads (``.npz``, ``.sg``) pass through
:func:`validate_csr_arrays` before a :class:`CSRGraph` is built.
"""

from __future__ import annotations

import os
import zipfile
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    NoReturn,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..errors import GraphFormatError
from ..sim.constants import narrow
from .builders import from_edges
from .csr import CSRGraph

__all__ = [
    "GRAPH_FORMATS",
    "save_edge_list",
    "load_edge_list",
    "save_weighted_edge_list",
    "load_weighted_edge_list",
    "save_csr",
    "load_csr",
    "save_matrix_market",
    "load_matrix_market",
    "save_gap_binary",
    "load_gap_binary",
    "load_graph",
    "validate_csr_arrays",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Bytes of text parsed per block by the text loaders. Small enough
#: to keep one block cache-resident, large enough to amortize the numpy
#: conversion call.
DEFAULT_CHUNK_BYTES = 1 << 22

#: Edges per ``np.savetxt`` block in the text writers.
_WRITE_BLOCK_EDGES = 1 << 16

#: Comment prefixes tolerated in text edge lists (SNAP uses ``#``,
#: MatrixMarket and some converters use ``%``).
_COMMENT_PREFIXES = (b"#", b"%")

#: An int64 token parsed to either bound is refused: ``np.fromstring``
#: saturates over-long digit runs there instead of raising.
_INT64 = np.iinfo(np.int64)

# GAP .sg serialization: <flag:u8> <num_edges:i64> <num_vertices:i64>
# <offsets:i64[n+1]> <neighbors:i32[m]> and, when the flag marks the
# graph directed, the same pair again for the inverse (in-neighbor)
# direction. Explicit little-endian dtypes keep files portable.
_SG_OFFSET_DTYPE = np.dtype("<i8")
_SG_NEIGHBOR_DTYPE = np.dtype("<i4")


# ----------------------------------------------------------------------
# Shared validation
# ----------------------------------------------------------------------


def _coerce_integral(
    array: np.ndarray, contract: str, what: str, where: str
) -> np.ndarray:
    """Narrow ``array`` to ``contract``'s integral dtype, rejecting
    lossy casts: non-integral values raise :class:`GraphFormatError`,
    values outside the contract's width
    :class:`~repro.errors.WidthContractError`, both naming ``where``."""
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.floating):
        if array.size and not np.all(np.isfinite(array)):
            raise GraphFormatError(f"{where}: non-finite {what}")
        if array.size and not np.array_equal(array, np.trunc(array)):
            raise GraphFormatError(f"{where}: fractional {what}")
    elif not (
        np.issubdtype(array.dtype, np.integer)
        or np.issubdtype(array.dtype, np.bool_)
    ):
        raise GraphFormatError(
            f"{where}: {what} has non-numeric dtype {array.dtype}"
        )
    return narrow(array, contract, where)


def validate_csr_arrays(
    offsets: np.ndarray, neighbors: np.ndarray, where: str = "CSR arrays"
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce raw CSR arrays before building a graph.

    Checks everything a corrupt archive can violate — offsets present,
    1-D, starting at 0, monotonically non-decreasing, ending exactly at
    ``len(neighbors)``, and neighbor IDs non-negative and in range —
    raising :class:`GraphFormatError` tagged with ``where`` (typically
    the file path) instead of letting a later traversal hit a raw
    ``IndexError``. Returns ``(offsets, neighbors)`` narrowed to the
    ``csr.offsets``/``csr.neighbors`` width contracts (int64/int32); a
    value past either raises :class:`~repro.errors.WidthContractError`
    tagged with ``where``.
    """
    offsets = np.asarray(offsets)
    neighbors = np.asarray(neighbors)
    if offsets.ndim != 1 or neighbors.ndim != 1:
        raise GraphFormatError(
            f"{where}: offsets and neighbors must be 1-D arrays"
        )
    offsets = _coerce_integral(offsets, "csr.offsets", "offsets", where)
    neighbors = _coerce_integral(
        neighbors, "csr.neighbors", "neighbor IDs", where
    )
    if len(offsets) == 0:
        raise GraphFormatError(f"{where}: offsets array is empty")
    if offsets[0] != 0:
        raise GraphFormatError(
            f"{where}: offsets must start at 0, got {int(offsets[0])}"
        )
    if len(offsets) > 1 and bool(np.any(np.diff(offsets) < 0)):
        raise GraphFormatError(f"{where}: offsets are not monotonic")
    if int(offsets[-1]) != len(neighbors):
        raise GraphFormatError(
            f"{where}: offsets end at {int(offsets[-1])} but there are "
            f"{len(neighbors)} neighbors"
        )
    num_vertices = len(offsets) - 1
    if len(neighbors):
        low = int(neighbors.min())
        high = int(neighbors.max())
        if low < 0:
            raise GraphFormatError(f"{where}: negative neighbor ID {low}")
        if high >= num_vertices:
            raise GraphFormatError(
                f"{where}: neighbor ID {high} out of range for "
                f"{num_vertices} vertices"
            )
    return offsets, neighbors


def _sorted_segments(offsets: np.ndarray, neighbors: np.ndarray) -> bool:
    """True if every CSR segment's neighbor list is ascending."""
    if len(neighbors) < 2:
        return True
    diffs = np.diff(neighbors.astype(np.int64))
    within = np.ones(len(diffs), dtype=bool)
    boundaries = offsets[1:-1] - 1
    boundaries = boundaries[(boundaries >= 0) & (boundaries < len(diffs))]
    within[boundaries] = False
    return not bool(np.any(diffs[within] < 0))


def _csr_from_validated(
    offsets: np.ndarray, neighbors: np.ndarray
) -> CSRGraph:
    """Build a graph, restoring the sorted-neighbor invariant if the
    external file stored unsorted adjacency lists (T-OPT's transpose
    walks binary-search them)."""
    if not _sorted_segments(offsets, neighbors):
        num_vertices = len(offsets) - 1
        sources = np.repeat(
            np.arange(num_vertices, dtype=np.int64), np.diff(offsets)
        )
        neighbors = neighbors[np.lexsort((neighbors, sources))]
    return CSRGraph(offsets=offsets, neighbors=neighbors)


# ----------------------------------------------------------------------
# Block-wise text tokenization
# ----------------------------------------------------------------------


def _scan_directive(comment: bytes, directives: Dict[str, bytes]) -> None:
    """Record the value token of a ``# vertices N`` comment line; the
    loader judges it (:func:`_directive_vertices`)."""
    parts = comment.lstrip(b"#%").split()
    if len(parts) == 2 and parts[0] == b"vertices":
        directives["vertices"] = parts[1]


def _directive_vertices(
    directives: Dict[str, bytes], default: Optional[int], path: PathLike
) -> Optional[int]:
    """The vertex count the last ``# vertices N`` directive pins, else
    ``default``. The value is judged by the data lines' rule
    (:func:`_parse_tokens`), so ``1_0`` or an out-of-range count is
    refused by path rather than read or ignored."""
    token = directives.get("vertices")
    if token is None:
        return default
    try:
        (value,) = _parse_tokens(token, np.dtype(np.int64)).tolist()
    except (ValueError, OverflowError):
        raise GraphFormatError(
            f"{path}: '# vertices' directive value "
            f"{token.decode('ascii', 'replace')!r} is not an int64 integer"
        ) from None
    return value


def _strip_comments(block: bytes, directives: Dict[str, bytes]) -> bytes:
    """Cut the lines whose first non-blank byte is a comment prefix.

    Only comment lines are visited: ``bytes.find`` jumps to each prefix
    byte and ``rfind`` checks that nothing but blanks precedes it on its
    line, so a block of plain edge lines costs one ``find`` per prefix.
    ``# vertices N`` directives are scanned on the cut lines, in file
    order.
    """
    cuts = []
    for prefix in _COMMENT_PREFIXES:
        at = block.find(prefix)
        while at >= 0:
            start = block.rfind(b"\n", 0, at) + 1
            end = block.find(b"\n", at)
            end = len(block) if end < 0 else end
            if not block[start:at].strip():
                cuts.append((start, at, end))
            at = block.find(prefix, end)
    if not cuts:
        return block
    kept = []
    done = 0
    for start, at, end in sorted(cuts):
        _scan_directive(block[at:end], directives)
        kept.append(block[done:start])
        done = end
    kept.append(block[done:])
    return b"".join(kept)


def _parse_tokens(text: bytes, dtype: np.dtype) -> np.ndarray:
    """Parse whitespace-separated numbers with one ``np.fromstring``.

    ``np.fromstring(..., sep=" ")`` raises ``ValueError`` on junk
    (``x``, ``1_0``, ``5-3``, NUL, ``1e3`` as an int) but reads four
    inputs silently, so each is guarded here:

    - whitespace-only text, read as ``[0]`` (``[-1.]`` for float64),
      yields no tokens;
    - an int64 ``-`` or ``+`` not followed by a digit (``-`` alone reads
      as ``0``, ``1 - 2`` as ``[1, -2]``) raises ``ValueError``;
    - an int64 value at INT64_MAX or INT64_MIN, where over-long digit
      runs saturate, raises ``OverflowError``;
    - float64 text needs no further guard: it parses as
      ``np.array(text.split(), np.float64)`` would.

    The error path judges single tokens with this same function, so a
    refused block always names its bad token.
    """
    if text.isspace():
        return np.empty(0, dtype)
    values = np.fromstring(text, dtype=dtype, sep=" ")
    if dtype != np.int64 or not values.size:
        return values
    if b"-" in text or b"+" in text:
        raw = np.frombuffer(text, dtype=np.uint8)
        signs = np.flatnonzero((raw == ord("-")) | (raw == ord("+")))
        # A sign in the last byte is checked against itself: no digit.
        after = raw[np.minimum(signs + 1, len(raw) - 1)]
        if np.any((after < ord("0")) | (after > ord("9"))):
            raise ValueError("sign without digits")
    if values.max() == _INT64.max or values.min() == _INT64.min:
        raise OverflowError("integer out of the int64 range")
    return values


def _block_tokens(
    block: bytes, directives: Dict[str, bytes], dtype: np.dtype
) -> Optional[np.ndarray]:
    """Tokenize one block of whole lines into a flat numeric array.

    A token that does not parse as ``dtype`` raises ``ValueError`` or
    ``OverflowError`` (see :func:`_parse_tokens`); the caller re-scans
    the file for its line.
    """
    block = block.replace(b"\r", b"\n")  # CRLF / bare-CR dumps
    tokens = _parse_tokens(_strip_comments(block, directives), dtype)
    return tokens if tokens.size else None


def _line_blocks(handle: BinaryIO, chunk_bytes: int) -> Iterator[bytes]:
    """Fixed-size blocks of ``handle`` cut back to whole lines; the
    trailing partial line carries into the next block.

    A block ends at its last LF or CR, so a bare-CR file is cut like an
    LF one. A CRLF pair split between two blocks leaves a lone LF at the
    head of the next block: an empty line, which the parse skips."""
    carry = b""
    while True:
        block = handle.read(chunk_bytes)
        if not block:
            break
        block = carry + block
        cut = block.rfind(b"\n")
        cut = max(cut, block.rfind(b"\r", cut + 1))
        if cut < 0:
            carry = block
            continue
        carry = block[cut + 1:]
        yield block[:cut + 1]
    if carry:
        yield carry


def _data_lines(path: PathLike, start: int) -> Iterator[Tuple[int, bytes]]:
    """``(line_number, stripped_line)`` for every non-blank, non-comment
    line from byte ``start`` on, numbered from the top of the file.

    Lines end at LF, CRLF or a bare CR (``bytes.splitlines``), the
    terminators the block parse honours, so a bare-CR file is numbered
    line by line rather than read as one line."""
    with open(path, "rb") as handle:
        line_number = len(handle.read(start).splitlines())
        for raw in handle:
            for line in raw.splitlines():
                line_number += 1
                stripped = line.strip()
                if stripped and stripped[:1] not in _COMMENT_PREFIXES:
                    yield line_number, stripped


def _raise_bad_token(
    path: PathLike, start: int, dtype: np.dtype
) -> NoReturn:
    """Re-read ``path`` line-by-line to name the first token that does
    not parse as ``dtype``, judged by the block parse's own rule
    (:func:`_parse_tokens`). Only runs on the error path."""
    for line_number, line in _data_lines(path, start):
        for token in line.split():
            text = token.decode("ascii", "replace")
            try:
                _parse_tokens(token, dtype)
            except OverflowError:
                raise GraphFormatError(
                    f"{path}:{line_number}: token {text!r} is out of the "
                    f"int64 range"
                ) from None
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{line_number}: non-numeric token {text!r} "
                    f"in edge data"
                ) from None
    raise GraphFormatError(f"{path}: non-numeric token in edge data")


def _raise_misaligned(
    path: PathLike, columns: int, label: str, start: int = 0
) -> NoReturn:
    """Re-read ``path`` line-by-line to pinpoint the malformed line.

    Only runs on the error path: the fast block tokenizer detects a
    column-count mismatch without line numbers, then this slow pass
    recovers the diagnostic the block parse gave up.
    """
    for line_number, stripped in _data_lines(path, start):
        if len(stripped.split()) != columns:
            raise GraphFormatError(
                f"{path}:{line_number}: expected {label!r}, got "
                f"{stripped.decode('ascii', 'replace')!r}"
            )
    raise GraphFormatError(f"{path}: token count is not a multiple of "
                           f"{columns} ({label!r} lines expected)")


def _token_rows(
    handle: BinaryIO,
    path: PathLike,
    directives: Dict[str, bytes],
    chunk_bytes: int,
    dtype: np.dtype,
    label: str,
) -> np.ndarray:
    """Tokenize the rest of ``handle`` in one pass into an
    ``(E, columns)`` array, ``columns`` being the word count of
    ``label``. Blocks cover whole lines, so a block whose token count is
    not a multiple of ``columns`` holds a malformed line."""
    columns = len(label.split())
    start = handle.tell()
    rows = []
    for block in _line_blocks(handle, chunk_bytes):
        try:
            tokens = _block_tokens(block, directives, dtype)
        except (ValueError, OverflowError):
            _raise_bad_token(path, start, dtype)
        if tokens is None:
            continue
        if tokens.size % columns:
            _raise_misaligned(path, columns, label, start)
        rows.append(tokens.reshape(-1, columns))
    if not rows:
        return np.empty((0, columns), dtype=dtype)
    return np.concatenate(rows)


# ----------------------------------------------------------------------
# Text edge lists (.el / .wel)
# ----------------------------------------------------------------------


def save_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write ``graph`` as a whitespace-separated ``src dst`` text file.

    The format matches the GAP benchmark suite's ``.el`` files. Rows go
    out in buffered ``np.savetxt`` blocks rather than one Python-level
    ``write`` per edge.
    """
    edges = graph.edge_array()
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        for start in range(0, len(edges), _WRITE_BLOCK_EDGES):
            np.savetxt(
                handle, edges[start:start + _WRITE_BLOCK_EDGES], fmt="%d"
            )


def load_edge_list(
    path: PathLike,
    num_vertices: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> CSRGraph:
    """Read a ``src dst`` text file (SNAP / GAP ``.el`` style).

    A ``# vertices N`` comment pins the vertex count; otherwise it is
    inferred from the maximum ID. Blank lines and ``#``/``%`` comments
    are skipped; tabs and CRLF line endings (both appear in real SNAP
    dumps) are tolerated. The file is read once, in ``chunk_bytes``
    blocks (see the module docstring); memory is O(E), never the raw
    text.
    """
    directives: Dict[str, bytes] = {}
    with open(path, "rb") as handle:
        edges = _token_rows(
            handle, path, directives, chunk_bytes, np.dtype(np.int64),
            "src dst",
        )
    return from_edges(
        edges, _directive_vertices(directives, num_vertices, path),
        where=str(path),
    )


def save_weighted_edge_list(
    graph: CSRGraph, weights: Iterable[int], path: PathLike
) -> None:
    """Write ``src dst weight`` lines (the GAP suite's ``.wel`` format).

    ``weights`` holds one integer weight per CSR edge, in edge order.
    """
    weight_array = np.asarray(weights)
    if len(weight_array) != graph.num_edges:
        raise GraphFormatError(
            f"expected {graph.num_edges} weights, got {len(weight_array)}"
        )
    edges = graph.edge_array()
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        for start in range(0, len(edges), _WRITE_BLOCK_EDGES):
            stop = start + _WRITE_BLOCK_EDGES
            np.savetxt(
                handle,
                np.column_stack(
                    [edges[start:stop], weight_array[start:stop]]
                ),
                fmt="%d",
            )


def load_weighted_edge_list(
    path: PathLike,
    num_vertices: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Tuple[CSRGraph, np.ndarray]:
    """Read a ``.wel`` file; returns ``(graph, weights)``.

    Weights come back in the graph's edge order: edges are re-sorted by
    ``(src, dst)`` during CSR construction and each weight follows its
    edge (parallel edges keep file order). Separator/comment/line-ending
    tolerance matches :func:`load_edge_list`.
    """
    directives: Dict[str, bytes] = {}
    with open(path, "rb") as handle:
        rows = _token_rows(
            handle, path, directives, chunk_bytes, np.dtype(np.int64),
            "src dst weight",
        )
    return from_edges(
        rows[:, :2],
        _directive_vertices(directives, num_vertices, path),
        payload=rows[:, 2],
        where=str(path),
    )


# ----------------------------------------------------------------------
# Binary CSR archives (.npz)
# ----------------------------------------------------------------------


def save_csr(graph: CSRGraph, path: PathLike) -> None:
    """Write ``graph`` in binary CSR form (numpy ``.npz``)."""
    np.savez_compressed(
        path, offsets=graph.offsets, neighbors=graph.neighbors
    )


def load_csr(path: PathLike) -> CSRGraph:
    """Read a graph saved by :func:`save_csr`.

    Corrupt archives — truncated zip members, missing arrays, wrong
    dtypes, non-monotonic offsets, out-of-range neighbor IDs — raise
    :class:`GraphFormatError` naming the path, instead of surfacing
    later as a raw ``IndexError`` mid-simulation.
    """
    try:
        with np.load(path) as data:
            if "offsets" not in data or "neighbors" not in data:
                raise GraphFormatError(
                    f"{path}: not a CSR archive (offsets/neighbors missing)"
                )
            offsets = np.array(data["offsets"])
            neighbors = np.array(data["neighbors"])
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise GraphFormatError(f"{path}: unreadable CSR archive ({exc})")
    offsets, neighbors = validate_csr_arrays(offsets, neighbors, str(path))
    return _csr_from_validated(offsets, neighbors)


# ----------------------------------------------------------------------
# MatrixMarket coordinate files (.mtx)
# ----------------------------------------------------------------------

_MTX_FIELDS = ("pattern", "integer", "real")
_MTX_SYMMETRIES = ("general", "symmetric")


#: Bytes the header reader asks for per read.
_HEADER_READ = 1 << 16


def _header_lines(handle: BinaryIO) -> Iterator[Tuple[bytes, int]]:
    """``(line, offset past its terminator)`` for each line from the
    handle's position on. Lines end at LF, CRLF or a bare CR, as in the
    data blocks, and each read is bounded, so a bare-CR file is never
    read whole to find its header."""
    offset = handle.tell()
    carry = b""
    while True:
        raw = handle.readline(_HEADER_READ)
        if raw.endswith(b"\r"):
            raw += handle.read(1)  # keep a CRLF pair in one read
        lines = (carry + raw).splitlines(keepends=True)
        carry = b""
        if raw and lines and not lines[-1].endswith((b"\n", b"\r")):
            carry = lines.pop()
        for line in lines:
            offset += len(line)
            yield line, offset
        if not raw:
            return


def _read_mtx_header(
    handle: BinaryIO, path: PathLike
) -> Tuple[str, str, int, int, int, int]:
    """Parse the banner + size line; returns
    ``(field, symmetry, rows, cols, nnz, data_offset)``, the offset
    being that of the first byte after the size line."""
    lines = _header_lines(handle)
    banner = next(lines, (b"", 0))[0].split()
    if len(banner) != 5 or banner[0].lower() != b"%%matrixmarket":
        raise GraphFormatError(f"{path}: missing MatrixMarket banner")
    kind, layout, field, symmetry = (
        token.decode("ascii", "replace").lower() for token in banner[1:]
    )
    if kind != "matrix" or layout != "coordinate":
        raise GraphFormatError(
            f"{path}: only 'matrix coordinate' MatrixMarket files are "
            f"supported, got '{kind} {layout}'"
        )
    if field not in _MTX_FIELDS:
        raise GraphFormatError(
            f"{path}: unsupported MatrixMarket field {field!r} "
            f"(supported: {', '.join(_MTX_FIELDS)})"
        )
    if symmetry not in _MTX_SYMMETRIES:
        raise GraphFormatError(
            f"{path}: unsupported MatrixMarket symmetry {symmetry!r} "
            f"(supported: {', '.join(_MTX_SYMMETRIES)})"
        )
    for line, data_offset in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith(b"%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"{path}: malformed size line "
                f"{stripped.decode('ascii', 'replace')!r}"
            )
        try:
            rows, cols, nnz = _parse_tokens(
                stripped, np.dtype(np.int64)
            ).tolist()
        except (ValueError, OverflowError):
            raise GraphFormatError(
                f"{path}: non-integer MatrixMarket size line "
                f"{stripped.decode('ascii', 'replace')!r}"
            ) from None
        if rows < 0 or cols < 0 or nnz < 0:
            raise GraphFormatError(f"{path}: negative MatrixMarket sizes")
        return field, symmetry, rows, cols, nnz, data_offset
    raise GraphFormatError(f"{path}: missing MatrixMarket size line")


def _int64_indices(values: np.ndarray) -> np.ndarray:
    """Mask of the float values that cast exactly to int64."""
    return np.isfinite(values) & (values == np.trunc(values)) & (
        np.abs(values) < 2.0 ** 63
    )


def _raise_bad_index(path: PathLike, start: int) -> NoReturn:
    """Re-read ``path`` line-by-line to name the first row or column
    index that is not an int64 integer. Only runs on the error path."""
    for line_number, line in _data_lines(path, start):
        indices = line.split()[:2]
        bad = ~_int64_indices(np.array(indices, dtype=np.float64))
        if bad.any():
            token = indices[int(np.argmax(bad))]
            raise GraphFormatError(
                f"{path}:{line_number}: row/column index "
                f"{token.decode('ascii', 'replace')!r} is not an int64 "
                f"integer"
            )
    raise GraphFormatError(f"{path}: row/column index is not an integer")


def load_matrix_market(
    path: PathLike, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> CSRGraph:
    """Read a MatrixMarket coordinate file as a directed graph.

    Entry ``i j [value]`` becomes edge ``i-1 -> j-1`` (values are
    dropped; ``real`` and ``integer`` fields are accepted so weighted
    matrices ingest as topology, but a ``real`` file's row and column
    indices must still be integers). ``symmetric`` files mirror every
    off-diagonal entry, matching the usual adjacency interpretation.
    Entries go through the same one-pass block tokenizer as the
    edge-list loaders.
    """
    with open(path, "rb") as handle:
        field, symmetry, rows, cols, nnz, data_offset = _read_mtx_header(
            handle, path
        )
        handle.seek(data_offset)
        entries = _token_rows(
            handle, path, {}, chunk_bytes,
            np.dtype(np.float64 if field == "real" else np.int64),
            "i j" if field == "pattern" else "i j value",
        )[:, :2]
    if len(entries) != nnz:
        raise GraphFormatError(
            f"{path}: size line declares {nnz} entries but file holds "
            f"{len(entries)}"
        )
    if field == "real":
        if not _int64_indices(entries).all():
            _raise_bad_index(path, data_offset)
        entries = entries.astype(np.int64)
    pairs = entries - 1  # 1-indexed entries
    if symmetry == "symmetric":
        mirrored = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.vstack([pairs, mirrored[:, ::-1]])
    return from_edges(pairs, max(rows, cols), where=str(path))


def save_matrix_market(
    graph: CSRGraph, path: PathLike, comment: str = ""
) -> None:
    """Write ``graph`` as a ``pattern general`` MatrixMarket file."""
    edges = graph.edge_array()
    with open(path, "w", encoding="ascii") as handle:
        handle.write("%%MatrixMarket matrix coordinate pattern general\n")
        if comment:
            handle.write(f"% {comment}\n")
        handle.write(
            f"{graph.num_vertices} {graph.num_vertices} "
            f"{graph.num_edges}\n"
        )
        for start in range(0, len(edges), _WRITE_BLOCK_EDGES):
            np.savetxt(
                handle,
                edges[start:start + _WRITE_BLOCK_EDGES] + 1,
                fmt="%d",
            )


# ----------------------------------------------------------------------
# GAP serialized binary graphs (.sg)
# ----------------------------------------------------------------------


def _read_exact(
    handle: BinaryIO, dtype: np.dtype, count: int, path: PathLike,
    what: str,
) -> np.ndarray:
    array = np.fromfile(handle, dtype=dtype, count=count)
    if len(array) != count:
        raise GraphFormatError(
            f"{path}: truncated .sg file while reading {what} "
            f"({len(array)}/{count} values)"
        )
    return array


def _read_sg_direction(
    handle: BinaryIO, num_vertices: int, num_edges: int, path: PathLike,
    what: str,
) -> Tuple[np.ndarray, np.ndarray]:
    offsets = _read_exact(
        handle, _SG_OFFSET_DTYPE, num_vertices + 1, path, f"{what} offsets"
    )
    neighbors = _read_exact(
        handle, _SG_NEIGHBOR_DTYPE, num_edges, path, f"{what} neighbors"
    )
    return validate_csr_arrays(offsets, neighbors, str(path))


def load_gap_binary(path: PathLike) -> CSRGraph:
    """Read a GAP-style serialized binary CSR (``.sg``).

    Layout: a directed flag byte, ``int64`` edge and vertex counts, the
    out-direction ``(offsets, neighbors)`` arrays, and — when the flag
    is set — the in-direction pair as well. Both directions pass the
    full CSR validation, and the stored inverse must agree with the out
    direction's degree profile; the returned graph is the out direction
    (its transpose is recomputed on demand rather than trusted).
    """
    with open(path, "rb") as handle:
        flag = handle.read(1)
        if flag not in (b"\x00", b"\x01"):
            raise GraphFormatError(
                f"{path}: not a .sg file (bad directed flag)"
            )
        header = _read_exact(handle, _SG_OFFSET_DTYPE, 2, path, "header")
        num_edges, num_vertices = int(header[0]), int(header[1])
        if num_edges < 0 or num_vertices < 0:
            raise GraphFormatError(f"{path}: negative .sg header counts")
        offsets, neighbors = _read_sg_direction(
            handle, num_vertices, num_edges, path, "out"
        )
        if flag == b"\x01":
            in_offsets, in_neighbors = _read_sg_direction(
                handle, num_vertices, num_edges, path, "in"
            )
            out_degrees = np.diff(offsets)
            in_degrees = np.diff(in_offsets)
            consistent = np.array_equal(
                np.bincount(neighbors, minlength=num_vertices).astype(
                    np.int64, copy=False
                ),
                in_degrees,
            ) and np.array_equal(
                np.bincount(in_neighbors, minlength=num_vertices).astype(
                    np.int64, copy=False
                ),
                out_degrees,
            )
            if not consistent:
                raise GraphFormatError(
                    f"{path}: stored in-direction is not the transpose "
                    f"of the out-direction"
                )
    return _csr_from_validated(offsets, neighbors)


def save_gap_binary(
    graph: CSRGraph, path: PathLike, include_transpose: bool = True
) -> None:
    """Write ``graph`` in GAP-style serialized binary CSR form."""
    with open(path, "wb") as handle:
        handle.write(b"\x01" if include_transpose else b"\x00")
        np.array(
            [graph.num_edges, graph.num_vertices], dtype=_SG_OFFSET_DTYPE
        ).tofile(handle)
        graph.offsets.astype(_SG_OFFSET_DTYPE).tofile(handle)
        graph.neighbors.astype(_SG_NEIGHBOR_DTYPE).tofile(handle)
        if include_transpose:
            transpose = graph.transpose()
            transpose.offsets.astype(_SG_OFFSET_DTYPE).tofile(handle)
            transpose.neighbors.astype(_SG_NEIGHBOR_DTYPE).tofile(handle)


# ----------------------------------------------------------------------
# Auto-dispatch
# ----------------------------------------------------------------------

#: Extension -> loader for :func:`load_graph` (``file:`` dataset specs).
GRAPH_FORMATS: Dict[str, Callable[[PathLike], CSRGraph]] = {
    ".el": load_edge_list,
    ".wel": lambda path: load_weighted_edge_list(path)[0],
    ".mtx": load_matrix_market,
    ".sg": load_gap_binary,
    ".npz": load_csr,
}


def load_graph(path: PathLike) -> CSRGraph:
    """Load a graph file, dispatching on its extension.

    Supports every format in :data:`GRAPH_FORMATS`; this is the loader
    behind ``file:<path>`` dataset specs (see
    :mod:`repro.graph.datasets`).
    """
    text = os.fspath(path)
    if not os.path.exists(text):
        raise GraphFormatError(f"{text}: graph file does not exist")
    suffix = os.path.splitext(text)[1].lower()
    loader = GRAPH_FORMATS.get(suffix)
    if loader is None:
        raise GraphFormatError(
            f"{text}: unsupported graph format {suffix!r} "
            f"(supported: {', '.join(sorted(GRAPH_FORMATS))})"
        )
    return loader(path)
