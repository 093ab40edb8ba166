"""The compiled trace builder (``k_traversal``) against its numpy
specification (``traversal_trace``).

``build_trace`` takes the compiled path when the library loads and the
numpy path otherwise; both must give byte-identical traces. Tests that
compare the two paths need the compiled kernels; the rest run on
whichever path is available, so the file also passes with
``REPRO_CC=/bin/false`` and an empty ``REPRO_CKERNELS_DIR``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base
from repro.apps.base import (
    PerEdgeAccess, Traversal, build_trace, traversal_trace,
)
from repro.errors import SimulationError, WidthContractError
from repro.graph import from_edges
from repro.memory import AddressSpace
from repro.memory.trace import AccessKind
from repro.sim import ckernels
from repro.sim.artifacts import trace_sha
from repro.sim.parallel import APP_FACTORIES, SweepTask, _build_prepared

from .test_trace_reference import reference_trace


@pytest.fixture
def numpy_path(monkeypatch):
    """Run the builder as it runs without the compiled library."""
    monkeypatch.setattr(ckernels, "lib", lambda: None)


def _numpy_build(build):
    """``build()`` on the numpy path, then back to the ambient one."""
    real = ckernels.lib
    ckernels.lib = lambda: None
    try:
        return build()
    finally:
        ckernels.lib = real


def _channels(trace):
    return (trace.addresses, trace.pcs, trace.writes, trace.vertices)


def assert_same_trace(got, expected):
    for channel, want in zip(_channels(got), _channels(expected)):
        assert channel.dtype == want.dtype
        assert np.array_equal(channel, want)
    assert trace_sha(got) == trace_sha(expected)


# ----------------------------------------------------------------------
# Every app under every technique
# ----------------------------------------------------------------------

#: (app, technique) pairs covering every ``APP_FACTORIES`` app and every
#: technique. ``tiling``, ``pb`` and ``phi`` trace their own app
#: whatever the task names, so they run once.
_APP_TECHNIQUES = [
    (app, technique)
    for technique in ("none", "dbg", "hats")
    for app in APP_FACTORIES
] + [("PR", "tiling:4"), ("PR", "tiling:1"), ("PR", "pb"), ("PR", "phi")]


@pytest.mark.needs_ckernels
@pytest.mark.parametrize("app, technique", _APP_TECHNIQUES)
def test_every_app_and_technique_matches_numpy(app, technique):
    task = SweepTask(
        app=app, graph="KRON", scale="tiny", seed=42, policies=("LRU",),
        technique=technique,
    )
    compiled = _build_prepared(task).trace
    spec = _numpy_build(lambda: _build_prepared(task).trace)
    assert len(compiled) > 0
    assert_same_trace(compiled, spec)


# ----------------------------------------------------------------------
# Edge cases, on the path the host has and against the loop nest
# ----------------------------------------------------------------------


def _layout(n, num_edges):
    space = AddressSpace()
    return {
        "oa": space.alloc("oa", n + 1, 64),
        "na": space.alloc("na", max(num_edges, 1), 32),
        "irr": space.alloc("irr", n, 64, irregular=True),
        "bits": space.alloc("bits", n, 1, irregular=True),
        "dense": space.alloc("dense", n, 32),
    }


def _traversal(graph, spans, mask=None, order=None, dense=True, **kw):
    return Traversal(
        topology=graph,
        oa_span=spans["oa"],
        na_span=spans["na"],
        per_edge=[
            PerEdgeAccess(span=spans["bits"], pc=AccessKind.FRONTIER),
            PerEdgeAccess(
                span=spans["irr"], pc=AccessKind.IRREG_DATA, mask=mask,
                write=True,
            ),
        ],
        dense_span=spans["dense"] if dense else None,
        order=order,
        **kw,
    )


def _check_against_loop_nest(traversal):
    trace = build_trace([traversal])
    order = (
        np.arange(traversal.topology.num_vertices)
        if traversal.order is None else traversal.order
    )
    records = reference_trace(
        traversal.topology, traversal.oa_span, traversal.na_span,
        traversal.per_edge, traversal.dense_span, order,
    )
    assert list(trace) == records
    assert_same_trace(trace, traversal_trace(
        traversal.topology, traversal.oa_span, traversal.na_span,
        traversal.per_edge, traversal.dense_span, order=traversal.order,
    ))
    return trace


#: 6 vertices; 2 and 5 have no out-edges, 4 has no in-edges.
_EDGES = [(0, 1), (0, 3), (1, 0), (1, 2), (3, 5), (4, 0), (4, 1), (4, 5)]


@pytest.fixture
def graph():
    return from_edges(_EDGES, num_vertices=6)


class TestEdgeCases:
    def test_empty_order(self, graph):
        spans = _layout(6, graph.num_edges)
        trace = _check_against_loop_nest(
            _traversal(graph, spans, order=np.empty(0, np.int64))
        )
        assert len(trace) == 0

    def test_zero_degree_vertices(self, graph):
        spans = _layout(6, graph.num_edges)
        trace = _check_against_loop_nest(
            _traversal(graph, spans, order=np.array([2, 5]))
        )
        # OA read and dense write only.
        assert trace.pcs.tolist() == [AccessKind.OFFSETS,
                                      AccessKind.DENSE_DATA] * 2

    def test_all_inactive_mask(self, graph):
        spans = _layout(6, graph.num_edges)
        trace = _check_against_loop_nest(
            _traversal(graph, spans, mask=np.zeros(6, bool))
        )
        assert AccessKind.IRREG_DATA not in trace.pcs.tolist()
        assert trace.pcs.tolist().count(AccessKind.FRONTIER) == len(_EDGES)

    def test_subset_order(self, graph):
        # A HATS-style order that visits a subset, out of ID order.
        spans = _layout(6, graph.num_edges)
        mask = np.array([1, 0, 1, 1, 0, 1], bool)
        trace = _check_against_loop_nest(
            _traversal(graph, spans, mask=mask, order=np.array([4, 0, 3]))
        )
        assert sorted(set(trace.vertices.tolist())) == [0, 3, 4]

    def test_one_bit_span(self):
        # 20 vertices of a 1-bit span straddle bytes 0..2.
        n = 20
        graph = from_edges([(0, v) for v in range(n)], num_vertices=n)
        spans = _layout(n, graph.num_edges)
        trace = _check_against_loop_nest(_traversal(graph, spans))
        bits = trace.addresses[trace.pcs == AccessKind.FRONTIER]
        assert (bits - spans["bits"].base).tolist() == [
            v // 8 for v in range(n)
        ]

    def test_no_dense_access(self, graph):
        spans = _layout(6, graph.num_edges)
        _check_against_loop_nest(_traversal(graph, spans, dense=False))

    def test_vertex_offset(self, graph):
        spans = _layout(6, graph.num_edges)
        plain = build_trace([_traversal(graph, spans)])
        shifted = build_trace([_traversal(graph, spans, vertex_offset=12)])
        assert np.array_equal(shifted.vertices, plain.vertices + 12)
        assert np.array_equal(shifted.addresses, plain.addresses)


class TestBuildTrace:
    """``build_trace`` joins traversals in order, in one allocation."""

    def test_traversals_in_order(self, graph):
        spans = _layout(6, graph.num_edges)
        first = _traversal(graph, spans, mask=np.ones(6, bool))
        second = _traversal(graph, spans, order=np.array([3, 1]))
        trace = build_trace([first, second, first])
        pieces = [build_trace([t]) for t in (first, second, first)]
        assert len(trace) == sum(len(piece) for piece in pieces)
        for channel, name in zip(_channels(trace), base._CHANNEL_NAMES):
            assert np.array_equal(
                channel,
                np.concatenate([getattr(p, name) for p in pieces]),
            )

    def test_no_traversals(self):
        trace = build_trace([])
        assert len(trace) == 0
        assert trace.addresses.dtype == np.int64
        assert trace.pcs.dtype == np.uint8
        assert trace.writes.dtype == bool
        assert trace.vertices.dtype == np.int32

    def test_numpy_path(self, graph, numpy_path):
        spans = _layout(6, graph.num_edges)
        _check_against_loop_nest(
            _traversal(graph, spans, mask=np.array([1, 0] * 3, bool))
        )


class TestChecks:
    """Order, mask and width checks run before either path."""

    def test_repeated_vertex(self, graph):
        spans = _layout(6, graph.num_edges)
        with pytest.raises(SimulationError, match="twice"):
            build_trace([_traversal(graph, spans, order=np.array([1, 1]))])

    def test_out_of_range_vertex(self, graph):
        spans = _layout(6, graph.num_edges)
        with pytest.raises(SimulationError, match="out-of-range"):
            build_trace([_traversal(graph, spans, order=np.array([6]))])

    def test_mask_length(self, graph):
        spans = _layout(6, graph.num_edges)
        with pytest.raises(SimulationError, match="mask"):
            build_trace([_traversal(graph, spans, mask=np.ones(5, bool))])

    def test_vertex_offset_past_width(self, graph):
        spans = _layout(6, graph.num_edges)
        with pytest.raises(WidthContractError, match="traversal_trace"):
            build_trace([_traversal(graph, spans, vertex_offset=2**31 - 3)])


@pytest.mark.needs_ckernels
def test_short_output_raises(graph, monkeypatch):
    """Channels one access short: the kernel writes nothing and the
    builder raises, naming the kernel and the lengths."""
    allocate = base._channels

    def one_short(length):
        return allocate(max(length - 1, 0))

    spans = _layout(6, graph.num_edges)
    traversal = _traversal(graph, spans)
    needed = len(build_trace([traversal]))
    monkeypatch.setattr(base, "_channels", one_short)
    with pytest.raises(
        SimulationError,
        match=rf"^kernel k_traversal needs a trace of {needed} accesses, "
              rf"was given {needed - 1}$",
    ):
        build_trace([traversal])


# ----------------------------------------------------------------------
# Random traversals: compiled against numpy
# ----------------------------------------------------------------------


def _random_traversals():
    return st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=80,
            ),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), unique=True, max_size=n),
            st.booleans(),  # masked access
            st.booleans(),  # explicit order
            st.booleans(),  # dense access
            st.integers(0, 3),  # repeats
        )
    )


@pytest.mark.needs_ckernels
@given(_random_traversals())
@settings(max_examples=80, deadline=None)
def test_random_traversals_match_numpy(params):
    n, edges, mask_bits, order, masked, ordered, dense, repeats = params
    graph = from_edges(edges, num_vertices=n, dedup=True)
    spans = _layout(n, graph.num_edges)
    traversal = _traversal(
        graph, spans,
        mask=np.array(mask_bits, bool) if masked else None,
        order=np.array(order, np.int64) if ordered else None,
        dense=dense,
    )
    traversals = [traversal] * repeats
    assert_same_trace(
        build_trace(traversals), _numpy_build(lambda: build_trace(traversals))
    )
