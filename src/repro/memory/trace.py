"""Memory access traces.

An application run produces a :class:`MemoryTrace`: parallel numpy arrays of
byte addresses, access-site IDs (a stand-in for the program counter, used by
PC-indexed policies like SHiP-PC and Hawkeye), write flags, and the
outer-loop vertex active at each access.

The ``vertex`` channel models the paper's ``update_index`` instruction
(Section V-C): graph software tells the LLC which outer-loop vertex is being
processed so the next-ref engine can evaluate Algorithm 2. Replaying a trace
through the cache hierarchy delivers that value to the policy at every
access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..sim.constants import narrow

__all__ = [
    "AccessKind",
    "MemoryTrace",
    "DecodedTrace",
    "decode_trace",
    "TraceBuilder",
    "concat_traces",
]


class AccessKind:
    """Access-site IDs shared by all kernels (the simulated "PC").

    One ID per static access site; distinct kernels may reuse IDs since a
    run simulates a single kernel at a time.
    """

    OFFSETS = 1       # CSR/CSC offsets array (streaming)
    NEIGHBORS = 2     # CSR/CSC neighbor array (streaming)
    IRREG_DATA = 3    # srcData/dstData irregular indexed access
    DENSE_DATA = 4    # per-outer-vertex streaming access
    FRONTIER = 5      # frontier bit-vector irregular access
    FRONTIER_OUT = 6  # next-frontier write
    BIN_BUFFER = 7    # propagation-blocking bin append (streaming write)
    OTHER = 8

    ALL = (
        OFFSETS,
        NEIGHBORS,
        IRREG_DATA,
        DENSE_DATA,
        FRONTIER,
        FRONTIER_OUT,
        BIN_BUFFER,
        OTHER,
    )


@dataclass(frozen=True)
class MemoryTrace:
    """An immutable sequence of memory accesses (struct-of-arrays)."""

    addresses: np.ndarray  # int64 byte addresses
    pcs: np.ndarray        # uint8 access-site IDs
    writes: np.ndarray     # bool
    vertices: np.ndarray   # int32 current outer-loop vertex per access

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if not (len(self.pcs) == len(self.writes) == len(self.vertices) == n):
            raise SimulationError("trace channels have mismatched lengths")
        object.__setattr__(
            self, "addresses", np.ascontiguousarray(self.addresses, np.int64)
        )
        object.__setattr__(self, "pcs", np.ascontiguousarray(self.pcs, np.uint8))
        object.__setattr__(
            self, "writes", np.ascontiguousarray(self.writes, bool)
        )
        object.__setattr__(
            self,
            "vertices",
            narrow(self.vertices, "trace.vertex", "MemoryTrace"),
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def __getstate__(self) -> dict:
        # The decode memo (``_decoded``) can dwarf the trace itself — it
        # holds line arrays plus materialized Python-list views — and is
        # cheap to rebuild, so pickles (worker task payloads, artifact
        # blobs) carry only the four channels.
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Frozen dataclass: restore through object.__setattr__.
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def __iter__(self) -> Iterator[Tuple[int, int, bool, int]]:
        for i in range(len(self)):
            yield (
                int(self.addresses[i]),
                int(self.pcs[i]),
                bool(self.writes[i]),
                int(self.vertices[i]),
            )

    def slice(self, start: int, stop: int) -> "MemoryTrace":
        """A sub-trace covering accesses [start, stop)."""
        return MemoryTrace(
            addresses=self.addresses[start:stop],
            pcs=self.pcs[start:stop],
            writes=self.writes[start:stop],
            vertices=self.vertices[start:stop],
        )

    def line_addresses(self, line_size: int = 64) -> np.ndarray:
        """Cache-line-granular addresses (address // line_size)."""
        return self.addresses // line_size

    def next_use_indices(self, line_size: int = 64) -> np.ndarray:
        """For each access, the index of the next access to the same line.

        Accesses with no future reference get ``len(trace)`` (infinity).
        This is the oracle Belady's MIN needs: a single backward scan over
        the materialized trace, exactly how offline OPT baselines are built.
        """
        lines = self.line_addresses(line_size)
        n = len(lines)
        next_use = np.full(n, n, dtype=np.int64)
        last_seen: dict = {}
        for i in range(n - 1, -1, -1):
            line = int(lines[i])
            if line in last_seen:
                next_use[i] = last_seen[line]
            last_seen[line] = i
        return next_use

    def save(self, path) -> None:
        """Serialize to a numpy ``.npz`` archive (see :meth:`load`)."""
        np.savez_compressed(
            path,
            addresses=self.addresses,
            pcs=self.pcs,
            writes=self.writes,
            vertices=self.vertices,
        )

    @classmethod
    def load(cls, path) -> "MemoryTrace":
        """Read a trace written by :meth:`save`."""
        with np.load(path) as data:
            missing = {
                "addresses", "pcs", "writes", "vertices"
            } - set(data.files)
            if missing:
                raise SimulationError(
                    f"{path}: not a trace archive (missing {missing})"
                )
            return cls(
                addresses=data["addresses"],
                pcs=data["pcs"],
                writes=data["writes"],
                vertices=data["vertices"],
            )

    def stats(self) -> dict:
        """Per-access-kind counts (useful for tests and reports)."""
        unique, counts = np.unique(self.pcs, return_counts=True)
        return {int(k): int(c) for k, c in zip(unique, counts)}


@dataclass
class DecodedTrace:
    """A trace decoded to cache-line granularity (replay-engine phase 1).

    Holds the line-granular addresses alongside the per-access metadata
    channels, plus a lazily materialized plain-list view for the
    per-access replay loops (list indexing beats numpy scalar access in
    the interpreter's hot loop).
    """

    lines: np.ndarray      # int64 line-granular addresses
    pcs: np.ndarray        # uint8 access-site IDs
    writes: np.ndarray     # bool store flags
    vertices: np.ndarray   # int32 outer-loop vertex per access

    def __post_init__(self) -> None:
        # The decode is memoized on the trace and shared by every replay
        # (and every worker task touching the prepared run), so the
        # channels are read-only from birth; ``pcs``/``writes``/
        # ``vertices`` alias the source trace, freezing those too.
        for channel in (self.lines, self.pcs, self.writes, self.vertices):
            channel.setflags(write=False)
        self._channel_lists: dict = {}

    def __len__(self) -> int:
        return len(self.lines)

    def channel_lists(self, *channels: str) -> Tuple[list, ...]:
        """The named channels as plain Python lists, memoized per channel.

        Callers name only what their loop reads (``"lines"``,
        ``"pcs"``, ``"writes"``, ``"vertices"``), so a consumer that
        never touches, say, the vertex channel never pays its
        ``.tolist()`` boxing pass.
        """
        out = []
        for name in channels:
            cached = self._channel_lists.get(name)
            if cached is None:
                cached = getattr(self, name).tolist()
                self._channel_lists[name] = cached
            out.append(cached)
        return tuple(out)

    def as_lists(self) -> Tuple[list, list, list, list]:
        """(lines, pcs, writes, vertices) as plain Python lists, memoized."""
        return self.channel_lists("lines", "pcs", "writes", "vertices")


def decode_trace(trace: MemoryTrace, line_shift: int) -> DecodedTrace:
    """Decode ``trace`` to line granularity, memoized per (trace, shift).

    Every replay loop (driver, prefetch, multicore, engine) shares this
    decode, so one prepared run pays the address-shift and ``.tolist()``
    conversions once per line size rather than once per policy replay.
    """
    cache = getattr(trace, "_decoded", None)
    if cache is None:
        cache = {}
        object.__setattr__(trace, "_decoded", cache)
    decoded = cache.get(line_shift)
    if decoded is None:
        decoded = DecodedTrace(
            lines=trace.addresses >> line_shift,
            pcs=trace.pcs,
            writes=trace.writes,
            vertices=trace.vertices,
        )
        cache[line_shift] = decoded
    return decoded


class TraceBuilder:
    """Accumulates trace chunks (vectorized) and finalizes a MemoryTrace.

    Kernels append whole numpy chunks (one per loop nest) rather than one
    access at a time, keeping trace generation O(edges) in numpy.
    """

    def __init__(self) -> None:
        self._addresses: List[np.ndarray] = []
        self._pcs: List[np.ndarray] = []
        self._writes: List[np.ndarray] = []
        self._vertices: List[np.ndarray] = []

    def append_chunk(
        self,
        addresses: np.ndarray,
        pc: "int | np.ndarray",
        write: "bool | np.ndarray",
        vertex: "int | np.ndarray",
    ) -> None:
        """Append a chunk of accesses in program order."""
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        n = len(addresses)
        self._addresses.append(addresses)
        self._pcs.append(np.broadcast_to(np.asarray(pc, np.uint8), (n,)))
        self._writes.append(np.broadcast_to(np.asarray(write, bool), (n,)))
        vertex = narrow(vertex, "trace.vertex", "TraceBuilder")
        self._vertices.append(np.broadcast_to(vertex, (n,)))

    def append_access(
        self, address: int, pc: int, write: bool, vertex: int
    ) -> None:
        """Append a single access (convenience for scalar emission)."""
        self.append_chunk(np.array([address]), pc, write, vertex)

    def build(self) -> MemoryTrace:
        """Finalize into an immutable trace."""
        if not self._addresses:
            empty = np.empty(0)
            return MemoryTrace(
                addresses=empty.astype(np.int64),
                pcs=empty.astype(np.uint8),
                writes=empty.astype(bool),
                vertices=empty.astype(np.int32),
            )
        return MemoryTrace(
            addresses=np.concatenate(self._addresses),
            pcs=np.concatenate(self._pcs),
            writes=np.concatenate(self._writes),
            vertices=np.concatenate(self._vertices),
        )


def concat_traces(traces: Sequence[MemoryTrace]) -> MemoryTrace:
    """Concatenate traces in order (e.g., successive kernel iterations)."""
    if not traces:
        return TraceBuilder().build()
    return MemoryTrace(
        addresses=np.concatenate([t.addresses for t in traces]),
        pcs=np.concatenate([t.pcs for t in traces]),
        writes=np.concatenate([t.writes for t in traces]),
        vertices=np.concatenate([t.vertices for t in traces]),
    )
