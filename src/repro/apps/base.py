"""Application framework: graph kernels that emit their access streams.

Each app is a real kernel (it computes correct algorithm results, which
tests verify) that *also* constructs the memory access trace its
edge-processing loops would issue: streaming accesses to the CSR/CSC
offsets and neighbor arrays, per-outer-vertex dense accesses, and the
irregular per-neighbor accesses (``srcData``/``dstData``/frontier) whose
locality the paper is about (Algorithm 1, Section II-A).

An app describes its trace as a sequence of traversals
(:class:`Traversal`) and hands them to :func:`build_trace`, which allocates the trace once and
fills it with the compiled ``k_traversal`` kernel. Without the compiled
library each traversal is built by :func:`traversal_trace`, the numpy
specification: the per-vertex block layout
``[OA] [NA (frontier?) (irreg?)]* [dense]`` computed with prefix sums,
O(edges) numpy work instead of a Python loop per access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError, WidthContractError
from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace, ArraySpan
from ..memory.trace import AccessKind, MemoryTrace
from ..popt.topt import IrregularStream
from ..sim import ckernels
from ..sim.constants import POPT_STREAMING_NEXT_REF, narrow

__all__ = [
    "AppInfo",
    "PerEdgeAccess",
    "PreparedRun",
    "GraphApp",
    "Traversal",
    "build_trace",
    "known_result",
    "traversal_trace",
]


@dataclass(frozen=True)
class AppInfo:
    """Table II metadata for one application."""

    name: str
    execution_style: str        # "pull", "push", or "pull-mostly"
    irreg_elem_bits: int        # srcData/dstData element size
    uses_frontier: bool
    transpose_kind: str         # which direction feeds next-refs (CSR/CSC)

    def as_row(self) -> Dict[str, object]:
        return {
            "app": self.name,
            "style": self.execution_style,
            "irregData": f"{self.irreg_elem_bits}b"
            + (" & 1bit" if self.uses_frontier else ""),
            "transpose": self.transpose_kind,
            "frontier": "Y" if self.uses_frontier else "N",
        }


@dataclass(frozen=True)
class PerEdgeAccess:
    """One irregular access made for every (active) edge.

    ``mask``, when given, is a boolean per-*neighbor-vertex* array; the
    access is only emitted for edges whose neighbor is active (how
    frontier-gated loads behave).
    """

    span: ArraySpan
    pc: int
    write: bool = False
    mask: Optional[np.ndarray] = None


#: ``PreparedRun._reference_value`` before ``reference_result`` is read.
_UNREAD = object()


def _identity(value: object) -> object:
    return value


def known_result(value: object) -> Callable[[], object]:
    """A ``PreparedRun.reference`` for a result the kernel already
    computed while tracing (the frontier apps)."""
    return functools.partial(_identity, value)


@dataclass
class PreparedRun:
    """Everything the simulation driver needs for one kernel run.

    A prepared run is replayed under many LLC policies, so it also hosts
    the replay engine's policy-independent caches: the private-level
    filters (the LLC-visible subsequence per L1/L2 geometry), keyed by
    hierarchy configuration. ``filter_counters`` records how often a
    filter was built vs reused (throughput instrumentation). P-OPT's
    Rereference Matrices and T-OPT's line references depend only on the
    run, never on the cache geometry, so ``matrices``,
    ``kernel_matrices`` and ``line_references`` keep them too.

    ``reference_result`` (the kernel's algorithmic answer, which the
    app tests check) is computed on first read, by calling
    ``reference`` once: no replay reads it, so a sweep never pays for
    it. A run rebuilt from the artifact store has no ``reference`` and
    reads ``None``.
    """

    app_name: str
    layout: AddressSpace
    trace: MemoryTrace
    irregular_streams: List[IrregularStream]
    reference: Optional[Callable[[], object]] = field(
        default=None, repr=False
    )
    details: Dict[str, object] = field(default_factory=dict)
    private_filters: Dict[object, object] = field(
        default_factory=dict, repr=False
    )
    filter_counters: Dict[str, int] = field(
        default_factory=lambda: {"built": 0, "reused": 0}, repr=False
    )
    #: Rereference Matrices built for this run, keyed by (irregular
    #: stream index, entry_bits, variant): every P-OPT replay of the run
    #: (one per LLC geometry) shares them instead of rebuilding.
    matrices: Dict[Tuple[int, int, str], object] = field(
        default_factory=dict, repr=False
    )
    #: Those matrices in the P-OPT kernel's form, one
    #: :class:`~repro.popt.policy.KernelMatrices` per (entry_bits,
    #: variant), shared by every P-OPT replay of the run.
    kernel_matrices: Dict[Tuple[int, str], object] = field(
        default_factory=dict, repr=False
    )
    #: T-OPT's flat, read-only ``(offsets, refs)`` pair over every
    #: irregular stream (:func:`~repro.popt.topt.build_stream_references`),
    #: built by the run's first T-OPT replay and shared by the rest.
    line_references: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    #: Per-(private geometry, LLC geometry) LLC miss counts observed by
    #: sanitized replays; the sanitizer enforces the Belady lower bound
    #: across the policies recorded here.
    sanitizer_records: Dict[object, Dict[str, int]] = field(
        default_factory=dict, repr=False
    )
    _reference_value: object = field(
        default=_UNREAD, init=False, repr=False
    )

    def __post_init__(self) -> None:
        # Next-use indices run up to the trace length; at the streaming
        # sentinel a real distance would tie with a streaming way.
        if len(self.trace) >= POPT_STREAMING_NEXT_REF:
            raise WidthContractError(
                "trace.next_use", len(self.trace),
                f"PreparedRun({self.app_name})",
                f"the trace length below POPT_STREAMING_NEXT_REF "
                f"({POPT_STREAMING_NEXT_REF})",
            )

    @property
    def reference_result(self) -> object:
        """The kernel's result: ``reference()`` on first read, cached."""
        if self._reference_value is _UNREAD:
            self._reference_value = (
                None if self.reference is None else self.reference()
            )
        return self._reference_value

    @property
    def num_accesses(self) -> int:
        return len(self.trace)


class GraphApp:
    """Base class for the five Table II applications (plus PB/PHI)."""

    info: AppInfo

    def prepare(self, graph: CSRGraph, **params) -> PreparedRun:
        """Run the kernel and materialize its trace for simulation."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.info.name


@dataclass(frozen=True, eq=False)
class Traversal:
    """One edge-centric traversal, as :func:`build_trace` emits it.

    ``topology`` is the structure being scanned: the CSC for a pull
    traversal (neighbors are *sources*) or the CSR for a push traversal
    (neighbors are *destinations*). Per outer vertex the trace contains an
    offsets-array read, then per edge a neighbor-array read followed by the
    ``per_edge`` accesses in order (indexed by the neighbor's vertex ID),
    then one dense access indexed by the outer vertex.

    ``order`` overrides the outer-loop iteration order (HATS-BDFS), and
    may visit a *subset* of vertices (sparse-frontier rounds enumerate
    only active vertices); each entry must appear at most once. Every
    access carries its outer vertex plus ``vertex_offset`` in the vertex
    channel (tiled PageRank numbers its iterations globally).
    """

    topology: CSRGraph
    oa_span: ArraySpan
    na_span: ArraySpan
    per_edge: Sequence[PerEdgeAccess] = ()
    dense_span: Optional[ArraySpan] = None
    dense_pc: int = AccessKind.DENSE_DATA
    dense_write: bool = True
    order: Optional[np.ndarray] = None
    vertex_offset: int = 0


def _checked_order(traversal: Traversal) -> np.ndarray:
    """The traversal's outer-loop order as int64, after the checks both
    trace paths rely on: every vertex in range and visited at most
    once, every mask one flag per vertex, and every vertex-channel
    value within the ``trace.vertex`` width."""
    n = traversal.topology.num_vertices
    if traversal.order is None:
        order = np.arange(n, dtype=np.int64)
        low, high = 0, n - 1
    else:
        order = np.ascontiguousarray(traversal.order, dtype=np.int64)
        low, high = (order.min(), order.max()) if len(order) else (0, -1)
        if low < 0 or high >= n:
            raise SimulationError("order contains out-of-range vertices")
        visited = np.zeros(n, dtype=bool)
        visited[order] = True
        if np.count_nonzero(visited) != len(order):
            raise SimulationError("order visits a vertex twice")
    for access in traversal.per_edge:
        if access.mask is not None and np.shape(access.mask) != (n,):
            raise SimulationError(
                f"the mask of per-edge access {access.span.name} has "
                f"shape {np.shape(access.mask)}, expected ({n},)"
            )
    if len(order):
        narrow(
            np.array([low, high], dtype=np.int64) + traversal.vertex_offset,
            "trace.vertex", "traversal_trace",
        )
    return order


def _segmented_edge_ids(
    topology: CSRGraph, order: np.ndarray
) -> np.ndarray:
    """Edge indices grouped by outer vertex in iteration order: they
    index ``topology.neighbors`` and are ordered by the traversal."""
    degrees = topology.degrees()
    ordered_degrees = degrees[order]
    total = int(ordered_degrees.sum())
    if total == 0:
        return np.empty(0, np.int64)
    seg_starts = topology.offsets[:-1][order]
    block_starts = np.zeros(len(order), dtype=np.int64)
    np.cumsum(ordered_degrees[:-1], out=block_starts[1:])
    position = np.arange(total, dtype=np.int64) - np.repeat(
        block_starts, ordered_degrees
    )
    return np.repeat(seg_starts, ordered_degrees) + position


def traversal_trace(
    topology: CSRGraph,
    oa_span: ArraySpan,
    na_span: ArraySpan,
    per_edge: Sequence[PerEdgeAccess],
    dense_span: Optional[ArraySpan] = None,
    dense_pc: int = AccessKind.DENSE_DATA,
    dense_write: bool = True,
    order: Optional[np.ndarray] = None,
) -> MemoryTrace:
    """The access trace of one :class:`Traversal`, built with numpy.

    This is the executable specification of ``k_traversal`` and the path
    :func:`build_trace` takes without the compiled library: the
    per-vertex block layout ``[OA] [NA (per-edge accesses)]* [dense]`` is
    computed with prefix sums, O(edges) numpy work instead of a Python
    loop per access.
    """
    traversal = Traversal(
        topology, oa_span, na_span, per_edge, dense_span, dense_pc,
        dense_write, order,
    )
    return _numpy_trace(traversal, _checked_order(traversal))


def _numpy_trace(traversal: Traversal, order: np.ndarray) -> MemoryTrace:
    topology = traversal.topology
    edge_ids = _segmented_edge_ids(topology, order)
    neighbors = topology.neighbors[edge_ids].astype(np.int64)
    num_edges = len(edge_ids)

    # Which per-edge accesses fire for each edge.
    include: List[np.ndarray] = []
    for access in traversal.per_edge:
        if access.mask is None:
            include.append(np.ones(num_edges, dtype=bool))
        else:
            mask = np.asarray(access.mask, dtype=bool)
            include.append(mask[neighbors])

    edge_sizes = np.ones(num_edges, dtype=np.int64)
    for flags in include:
        edge_sizes += flags

    degrees = topology.degrees()[order]
    dense_span = traversal.dense_span
    has_dense = dense_span is not None
    # Per-vertex block length: OA + its edges' slots + optional dense.
    if num_edges:
        boundaries = np.zeros(len(order), dtype=np.int64)
        np.cumsum(degrees[:-1], out=boundaries[1:])
        vertex_of_edge = np.repeat(
            np.arange(len(order), dtype=np.int64), degrees
        )
        per_vertex_edge_len = np.bincount(
            vertex_of_edge, weights=edge_sizes, minlength=len(order)
        ).astype(np.int64)
    else:
        per_vertex_edge_len = np.zeros(len(order), dtype=np.int64)
    block_len = 1 + per_vertex_edge_len + (1 if has_dense else 0)
    block_starts = np.zeros(len(order), dtype=np.int64)
    np.cumsum(block_len[:-1], out=block_starts[1:])
    total = int(block_starts[-1] + block_len[-1]) if len(order) else 0

    addresses = np.empty(total, dtype=np.int64)
    pcs = np.empty(total, dtype=np.uint8)
    writes = np.zeros(total, dtype=bool)
    vertices = np.repeat(
        (order + traversal.vertex_offset).astype(np.int32), block_len
    )

    # Offsets-array read at each block start.
    addresses[block_starts] = traversal.oa_span.addr_of(order)
    pcs[block_starts] = AccessKind.OFFSETS

    if num_edges:
        # Edge slot base positions: exclusive running sum of edge sizes,
        # rebased to each vertex's block.
        edge_cumsum = np.zeros(num_edges, dtype=np.int64)
        np.cumsum(edge_sizes[:-1], out=edge_cumsum[1:])
        # boundaries[v] < num_edges whenever degrees[v] > 0 (and the
        # repeat count is 0 otherwise), so indexing is safe after a clamp.
        safe_boundaries = np.minimum(boundaries, num_edges - 1)
        rebase = edge_cumsum - np.repeat(
            edge_cumsum[safe_boundaries], degrees
        )
        edge_base = block_starts[vertex_of_edge] + 1 + rebase

        addresses[edge_base] = traversal.na_span.addr_of(edge_ids)
        pcs[edge_base] = AccessKind.NEIGHBORS

        slot_offset = np.ones(num_edges, dtype=np.int64)
        for access, flags in zip(traversal.per_edge, include):
            positions = edge_base[flags] + slot_offset[flags]
            addresses[positions] = access.span.addr_of(neighbors[flags])
            pcs[positions] = access.pc
            if access.write:
                writes[positions] = True
            slot_offset += flags

    if has_dense:
        dense_positions = block_starts + block_len - 1
        addresses[dense_positions] = dense_span.addr_of(order)
        pcs[dense_positions] = traversal.dense_pc
        writes[dense_positions] = traversal.dense_write

    return MemoryTrace(
        addresses=addresses, pcs=pcs, writes=writes, vertices=vertices
    )


# ----------------------------------------------------------------------
# The compiled builder (``k_traversal``)
# ----------------------------------------------------------------------


#: A trace's four channels, in ``k_traversal``'s argument order.
TraceChannels = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_CHANNEL_NAMES = ("addresses", "pcs", "writes", "vertices")


def _slot(span: ArraySpan, pc: int, write: bool, mask_row: int = -1):
    return (span.base, span.elem_bits, int(pc), int(write), mask_row)


def _kernel_inputs(traversal: Traversal, order: np.ndarray) -> tuple:
    """``k_traversal``'s arguments before ``start``: the order, the
    topology, the parameter block (one
    :data:`~repro.sim.constants.TRAVERSAL_SLOT_LAYOUT` slot per access)
    and one mask row per masked per-edge access."""
    slots = [
        _slot(traversal.oa_span, AccessKind.OFFSETS, False),
        _slot(traversal.na_span, AccessKind.NEIGHBORS, False),
    ]
    masks = []
    for access in traversal.per_edge:
        row = -1
        if access.mask is not None:
            row = len(masks)
            masks.append(np.asarray(access.mask, dtype=bool))
        slots.append(_slot(access.span, access.pc, access.write, row))
    if traversal.dense_span is not None:
        slots.append(_slot(
            traversal.dense_span, traversal.dense_pc, traversal.dense_write
        ))
    mask_rows = (
        np.stack(masks).view(np.uint8) if masks
        else np.zeros(1, dtype=np.uint8)
    )
    topology = traversal.topology
    return (
        order, len(order), topology.offsets, topology.neighbors,
        np.array(slots, dtype=np.int64), len(traversal.per_edge),
        int(traversal.dense_span is not None), mask_rows,
        topology.num_vertices, traversal.vertex_offset,
    )


def _k_traversal(
    clib, inputs: tuple, start: int, channels: TraceChannels
) -> int:
    """One ``k_traversal`` call from ``start``; returns its ``out[0]``."""
    out = np.zeros(1, dtype=np.int64)
    clib.k_traversal(*inputs, start, *channels, len(channels[0]), out)
    return int(out[0])


def _channels(length: int) -> TraceChannels:
    """Trace channels of ``length`` accesses, for ``k_traversal`` to
    fill (``writes`` is uint8, viewed as bool once filled)."""
    return (
        np.empty(length, dtype=np.int64),
        np.empty(length, dtype=np.uint8),
        np.empty(length, dtype=np.uint8),
        np.empty(length, dtype=np.int32),
    )


def build_trace(traversals: Sequence[Traversal]) -> MemoryTrace:
    """The trace of ``traversals`` run one after another, in one
    allocation.

    With the compiled library, one sizing call of ``k_traversal`` per
    traversal measures the trace exactly and one fill call per traversal
    writes it in place; channels too short for a traversal raise
    :class:`~repro.errors.SimulationError` naming the kernel. Without
    the library, each traversal takes :func:`traversal_trace`'s numpy
    path, the executable specification, and the pieces are copied into
    the one allocation. Both paths give the same bytes.
    """
    orders = [_checked_order(traversal) for traversal in traversals]
    clib = ckernels.lib()
    if clib is None:
        pieces = [
            _numpy_trace(traversal, order)
            for traversal, order in zip(traversals, orders)
        ]
        channels = _channels(sum(len(piece) for piece in pieces))
        end = 0
        for piece in pieces:
            for channel, name in zip(channels, _CHANNEL_NAMES):
                channel[end:end + len(piece)] = getattr(piece, name)
            end += len(piece)
    else:
        inputs = [
            _kernel_inputs(traversal, order)
            for traversal, order in zip(traversals, orders)
        ]
        sizing = _channels(0)
        channels = _channels(sum(
            -_k_traversal(clib, args, 0, sizing) for args in inputs
        ))
        end = 0
        for args in inputs:
            filled = _k_traversal(clib, args, end, channels)
            if filled < 0:
                raise SimulationError(
                    f"kernel k_traversal needs a trace of {-filled} "
                    f"accesses, was given {len(channels[0])}"
                )
            end = filled
    addresses, pcs, writes, vertices = channels
    return MemoryTrace(
        addresses=addresses, pcs=pcs, writes=writes.view(np.bool_),
        vertices=vertices,
    )
