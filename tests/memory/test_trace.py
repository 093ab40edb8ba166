"""Unit tests for memory traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memory import MemoryTrace


def make_trace(addresses, pcs=None, writes=None, vertices=None):
    n = len(addresses)
    return MemoryTrace(
        addresses=np.asarray(addresses, np.int64),
        pcs=np.asarray(pcs if pcs is not None else [1] * n, np.uint8),
        writes=np.asarray(writes if writes is not None else [False] * n),
        vertices=np.asarray(
            vertices if vertices is not None else [0] * n, np.int32
        ),
    )


class TestMemoryTrace:
    def test_length_and_iteration(self):
        t = make_trace([64, 128, 64])
        assert len(t) == 3
        entries = list(t)
        assert entries[0] == (64, 1, False, 0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            MemoryTrace(
                addresses=np.array([1, 2]),
                pcs=np.array([1], np.uint8),
                writes=np.array([False, False]),
                vertices=np.array([0, 0], np.int32),
            )

    def test_line_addresses(self):
        t = make_trace([0, 63, 64, 130])
        assert t.line_addresses().tolist() == [0, 0, 1, 2]

    def test_stats(self):
        t = make_trace([0, 64, 128], pcs=[1, 2, 2])
        assert t.stats() == {1: 1, 2: 2}

    def test_empty(self):
        t = make_trace([])
        assert len(t) == 0
        assert t.next_use_indices().size == 0


class TestNextUse:
    def test_basic(self):
        # lines: A B A B -> next uses: 2, 3, inf, inf
        t = make_trace([0, 64, 0, 64])
        assert t.next_use_indices().tolist() == [2, 3, 4, 4]

    def test_same_line_different_bytes(self):
        t = make_trace([0, 32, 100])
        # 0 and 32 share line 0.
        assert t.next_use_indices().tolist() == [1, 3, 3]

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_forward_scan(self, line_ids):
        t = make_trace([line * 64 for line in line_ids])
        next_use = t.next_use_indices()
        n = len(line_ids)
        for i in range(n):
            expected = n
            for j in range(i + 1, n):
                if line_ids[j] == line_ids[i]:
                    expected = j
                    break
            assert next_use[i] == expected


class TestPickle:
    def test_pickle_drops_decode_memo(self):
        import pickle

        from repro.memory.trace import decode_trace

        t = make_trace(
            list(range(0, 64 * 4096, 64)),
            writes=[i % 3 == 0 for i in range(4096)],
        )
        baseline = len(pickle.dumps(t))
        # Decode twice (two line sizes) and materialize the list views —
        # the memo now dwarfs the channels themselves.
        for shift in (6, 7):
            decode_trace(t, shift).as_lists()
        assert hasattr(t, "_decoded")
        blob = pickle.dumps(t)
        # The pickle carries only the four channels: same size as before
        # the decode (small slack for protocol framing noise).
        assert len(blob) <= baseline + 256
        restored = pickle.loads(blob)
        assert not hasattr(restored, "_decoded")
        assert np.array_equal(restored.addresses, t.addresses)
        assert np.array_equal(restored.pcs, t.pcs)
        assert np.array_equal(restored.writes, t.writes)
        assert np.array_equal(restored.vertices, t.vertices)
        # The restored trace decodes fresh and correctly.
        decoded = decode_trace(restored, 6)
        assert np.array_equal(decoded.lines, restored.addresses >> 6)

    def test_channel_lists_memoized_per_channel(self):
        from repro.memory.trace import decode_trace

        t = make_trace([0, 64, 128, 64])
        decoded = decode_trace(t, 6)
        (lines,) = decoded.channel_lists("lines")
        assert lines == [0, 1, 2, 1]
        # Only the requested channel is materialized...
        assert set(decoded._channel_lists) == {"lines"}
        # ...and repeated requests share the same list object.
        assert decoded.channel_lists("lines")[0] is lines
        assert decoded.as_lists()[0] is lines
