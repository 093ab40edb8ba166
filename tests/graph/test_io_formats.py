"""Round-trip and corruption tests for the graph ingestion layer.

Property tests drive every on-disk format through save -> load and
require the loaded CSR arrays to be bit-identical to the original —
including duplicate edges, self loops, isolated max-ID vertices, empty
graphs, and weight-to-edge attachment across the CSR re-sort. The
corruption tests seed one specific violation per `load_csr` validation
rule and require a `GraphFormatError` naming the path.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edges, io

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@st.composite
def edge_sets(draw, max_vertices=24, max_edges=60):
    """Random directed multigraphs: duplicates and self loops included.

    ``num_vertices`` can exceed every endpoint, covering isolated
    trailing (max-ID) vertices; 0-vertex/0-edge graphs are generated
    too.
    """
    num_vertices = draw(st.integers(min_value=0, max_value=max_vertices))
    if num_vertices == 0:
        return 0, np.empty((0, 2), dtype=np.int64)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.integers(0, num_vertices - 1),
            ),
            max_size=max_edges,
        )
    )
    edges = (
        np.array(pairs, dtype=np.int64)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    return num_vertices, edges


def assert_same_graph(loaded: CSRGraph, original: CSRGraph) -> None:
    assert np.array_equal(loaded.offsets, original.offsets)
    assert np.array_equal(loaded.neighbors, original.neighbors)
    assert loaded.offsets.dtype == original.offsets.dtype
    assert loaded.neighbors.dtype == original.neighbors.dtype


@settings(max_examples=40, deadline=None)
@given(edge_sets())
def test_edge_list_roundtrip(tmp_path_factory, data):
    num_vertices, edges = data
    graph = from_edges(edges, num_vertices=num_vertices)
    path = str(tmp_path_factory.mktemp("el") / "g.el")
    io.save_edge_list(graph, path)
    assert_same_graph(io.load_edge_list(path), graph)
    # Tiny chunk sizes force partial-line carries at every boundary.
    assert_same_graph(io.load_edge_list(path, chunk_bytes=5), graph)


@settings(max_examples=40, deadline=None)
@given(edge_sets(), st.randoms(use_true_random=False))
def test_weighted_roundtrip_preserves_attachment(
    tmp_path_factory, data, rnd
):
    num_vertices, edges = data
    graph = from_edges(edges, num_vertices=num_vertices)
    weights = np.array(
        [rnd.randint(0, 10_000) for _ in range(graph.num_edges)],
        dtype=np.int64,
    )
    path = str(tmp_path_factory.mktemp("wel") / "g.wel")
    io.save_weighted_edge_list(graph, weights, path)
    loaded, loaded_weights = io.load_weighted_edge_list(
        path, chunk_bytes=7
    )
    assert_same_graph(loaded, graph)
    # Weight i belongs to CSR edge i; the loader's re-sort must keep
    # each weight glued to its edge.
    assert np.array_equal(loaded_weights, weights)


@settings(max_examples=40, deadline=None)
@given(edge_sets())
def test_matrix_market_roundtrip(tmp_path_factory, data):
    num_vertices, edges = data
    graph = from_edges(edges, num_vertices=num_vertices)
    path = str(tmp_path_factory.mktemp("mtx") / "g.mtx")
    io.save_matrix_market(graph, path, comment="roundtrip")
    assert_same_graph(io.load_matrix_market(path, chunk_bytes=9), graph)


@settings(max_examples=40, deadline=None)
@given(edge_sets(), st.booleans())
def test_gap_binary_roundtrip(tmp_path_factory, data, include_transpose):
    num_vertices, edges = data
    graph = from_edges(edges, num_vertices=num_vertices)
    path = str(tmp_path_factory.mktemp("sg") / "g.sg")
    io.save_gap_binary(graph, path, include_transpose=include_transpose)
    assert_same_graph(io.load_gap_binary(path), graph)


@settings(max_examples=40, deadline=None)
@given(edge_sets())
def test_csr_archive_roundtrip(tmp_path_factory, data):
    num_vertices, edges = data
    graph = from_edges(edges, num_vertices=num_vertices)
    path = str(tmp_path_factory.mktemp("npz") / "g.npz")
    io.save_csr(graph, path)
    assert_same_graph(io.load_csr(path), graph)


@pytest.mark.parametrize("name, save", [
    ("g.el", io.save_edge_list),
    ("g.wel", lambda graph, path: io.save_weighted_edge_list(
        graph, np.arange(graph.num_edges), path)),
    ("g.mtx", io.save_matrix_market),
], ids=["g.el", "g.wel", "g.mtx"])
def test_each_text_format_reads_its_file_once(
    tmp_path, monkeypatch, name, save
):
    graph = from_edges([[0, 1], [1, 2], [2, 0], [2, 1]], num_vertices=4)
    path = str(tmp_path / name)
    save(graph, path)
    reads = []
    line_blocks = io._line_blocks

    def counted(handle, chunk_bytes):
        reads.append(chunk_bytes)
        return line_blocks(handle, chunk_bytes)

    monkeypatch.setattr(io, "_line_blocks", counted)
    assert_same_graph(io.load_graph(path), graph)
    assert len(reads) == 1


class TestLoadGraphDispatch:
    def test_dispatch_all_extensions(self, tmp_path):
        graph = from_edges([[0, 1], [1, 2], [2, 0]], num_vertices=4)
        savers = {
            ".el": io.save_edge_list,
            ".mtx": io.save_matrix_market,
            ".sg": io.save_gap_binary,
            ".npz": io.save_csr,
        }
        for ext, saver in savers.items():
            path = str(tmp_path / f"g{ext}")
            saver(graph, path)
            assert_same_graph(io.load_graph(path), graph)
        wel = str(tmp_path / "g.wel")
        io.save_weighted_edge_list(
            graph, np.arange(graph.num_edges), wel
        )
        assert_same_graph(io.load_graph(wel), graph)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="does not exist"):
            io.load_graph(str(tmp_path / "nope.el"))

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="unsupported"):
            io.load_graph(str(path))


class TestSeparatorTolerance:
    def test_tabs_and_crlf(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(b"# vertices 5\r\n0\t1\r\n2\t3\r\n")
        graph = io.load_edge_list(str(path))
        assert graph.num_vertices == 5
        assert graph.edge_array().tolist() == [[0, 1], [2, 3]]

    def test_mixed_separators_weighted(self, tmp_path):
        path = tmp_path / "g.wel"
        path.write_bytes(b"0\t1\t7\r\n1 0\t9\n")
        graph, weights = io.load_weighted_edge_list(str(path))
        assert graph.edge_array().tolist() == [[0, 1], [1, 0]]
        assert weights.tolist() == [7, 9]

    def test_directive_overrides_argument(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# vertices 9\n0 1\n")
        assert io.load_edge_list(str(path), num_vertices=4).num_vertices == 9

    def test_percent_comments_skipped(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("% converter noise\n0 1\n")
        assert io.load_edge_list(str(path)).num_edges == 1

    @pytest.mark.parametrize("chunk_bytes", [5, 64, io.DEFAULT_CHUNK_BYTES])
    def test_only_whole_comment_lines_cut(self, tmp_path, chunk_bytes):
        # Indented comments, comments between edges, a '%' inside a
        # '#' comment, and a directive on a '%' line after the edges.
        path = tmp_path / "g.el"
        path.write_bytes(
            b"# SNAP dump, 50% sample\n0 1\n  \t# indented\n1 2\r\n"
            b"%\n2 0\n% vertices 6\n\n3 4"
        )
        graph = io.load_edge_list(str(path), chunk_bytes=chunk_bytes)
        assert graph.num_vertices == 6
        assert graph.edge_array().tolist() == [[0, 1], [1, 2], [2, 0], [3, 4]]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([
            b"0 1", b"5\t6", b"", b"  ", b"#", b"#%", b"  # c",
            b"\t% x", b"% vertices 7", b"# vertices 3", b"1 2 # t",
            b"50% 1", b"3 #4",
        ]), max_size=12),
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
    )
    def test_comment_strip_matches_per_line_filter(self, lines, newline):
        block = newline.join(lines).replace(b"\r", b"\n")
        want_directives = {}
        kept = []
        for line in block.split(b"\n"):  # the per-line reference
            stripped = line.strip()
            if stripped[:1] in (b"#", b"%"):
                io._scan_directive(stripped, want_directives)
            elif stripped:
                kept.append(line)
        directives = {}
        assert io._strip_comments(block, directives).split() == \
            b"\n".join(kept).split()
        assert directives == want_directives

    def test_trailing_comment_is_not_cut(self, tmp_path):
        # Only a line whose first non-blank byte is a prefix is a
        # comment; a '#' after an edge is a malformed token.
        path = tmp_path / "g.el"
        path.write_text("0 1\n1 2 # note\n")
        with pytest.raises(GraphFormatError, match=r"g\.el:2"):
            io.load_edge_list(str(path))


class TestMalformedText:
    def test_odd_tokens_points_at_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1\n0\n2 3\n")
        with pytest.raises(GraphFormatError, match=r"g\.el:2"):
            io.load_edge_list(str(path))

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match="non-numeric"):
            io.load_edge_list(str(path))
        path.write_text("# vertices 3\n0 1\n2 x\n")
        with pytest.raises(GraphFormatError, match=r"g\.el:3: .*'x'"):
            io.load_edge_list(str(path))
        path.write_text("0 1\n2 x\n")
        with pytest.raises(GraphFormatError, match=r"g\.el:2"):
            io.load_edge_list(str(path))

    def test_non_numeric_mtx_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n3 3 2\n1 2\n2 x\n"
        )
        with pytest.raises(GraphFormatError, match=r"m\.mtx:5: .*'x'"):
            io.load_matrix_market(str(path))

    def test_misaligned_mtx_entry_points_past_size_line(self, tmp_path):
        # The 3-token size line of a 2-column pattern file is header,
        # not a malformed entry.
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n1 2\n2\n"
        )
        with pytest.raises(GraphFormatError, match=r"m\.mtx:4"):
            io.load_matrix_market(str(path))

    def test_negative_id_names_the_file(self, tmp_path):
        path = tmp_path / "neg.el"
        path.write_text("-1 2\n")
        with pytest.raises(GraphFormatError,
                           match=r"neg\.el: negative vertex ID"):
            io.load_edge_list(str(path))

    def test_id_past_directive_names_the_file(self, tmp_path):
        path = tmp_path / "big.el"
        path.write_text("# vertices 3\n1 7\n")
        with pytest.raises(GraphFormatError,
                           match=r"big\.el: vertex ID 7 exceeds"):
            io.load_edge_list(str(path))

    def test_mtx_range_errors_name_the_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        header = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n"
        path.write_text(header + "5 1\n")
        with pytest.raises(GraphFormatError,
                           match=r"m\.mtx: vertex ID 4 exceeds"):
            io.load_matrix_market(str(path))
        path.write_text(header + "0 1\n")
        with pytest.raises(GraphFormatError,
                           match=r"m\.mtx: negative vertex ID"):
            io.load_matrix_market(str(path))

    def test_wel_wrong_arity(self, tmp_path):
        path = tmp_path / "g.wel"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="src dst weight"):
            io.load_weighted_edge_list(str(path))

    @pytest.mark.parametrize("value", ["1_0", "99999999999999999999", "x"])
    @pytest.mark.parametrize("loader, suffix", [
        (io.load_edge_list, "el"),
        (lambda path: io.load_weighted_edge_list(path)[0], "wel"),
    ], ids=["el", "wel"])
    def test_directive_value_judged_like_data(
        self, tmp_path, value, loader, suffix
    ):
        # The data lines refuse these tokens; the directive must too,
        # not read `1_0` as 10 or skip a count it cannot parse.
        path = tmp_path / f"d.{suffix}"
        row = "0 1 2" if suffix == "wel" else "0 1"
        path.write_text(f"# vertices {value}\n{row}\n")
        with pytest.raises(
            GraphFormatError,
            match=rf"d\.{suffix}: '# vertices' directive value '{value}' "
                  rf"is not an int64 integer",
        ):
            loader(str(path))

    @pytest.mark.parametrize("size", ["1_0 1_0 1", "3 3 99999999999999999999",
                                      "3 3 1.0"])
    def test_mtx_size_line_judged_like_data(self, tmp_path, size):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            f"{size}\n1 2\n"
        )
        with pytest.raises(
            GraphFormatError,
            match=rf"m\.mtx: non-integer MatrixMarket size line '{size}'",
        ):
            io.load_matrix_market(str(path))

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n", b"\n"],
                             ids=["cr", "crlf", "lf"])
    def test_line_numbers_follow_every_terminator(self, tmp_path, newline):
        # A comment on a later bare-CR line is a comment, not the bad
        # token, and the bad token's line counts each terminator once.
        path = tmp_path / "g.el"
        path.write_bytes(newline.join([b"0 1", b"# c x", b"2 y", b""]))
        with pytest.raises(GraphFormatError,
                           match=r"g\.el:3: non-numeric token 'y'"):
            io.load_edge_list(str(path))
        path.write_bytes(newline.join([b"0 1", b"", b"% c", b"2", b""]))
        with pytest.raises(GraphFormatError, match=r"g\.el:4: expected"):
            io.load_edge_list(str(path))

    def test_crlf_mtx_line_numbers_unchanged(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate pattern general\r\n"
            b"% a comment\r\n3 3 2\r\n1 2\r\n2 x\r\n"
        )
        with pytest.raises(GraphFormatError, match=r"m\.mtx:5: .*'x'"):
            io.load_matrix_market(str(path))


    def test_bare_cr_mtx_line_numbers(self, tmp_path):
        # The CRLF twin above: the header ends at bare CRs too, so the
        # data offset and the error line agree.
        path = tmp_path / "m.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate pattern general\r"
            b"% a comment\r3 3 2\r1 2\r2 x\r"
        )
        with pytest.raises(GraphFormatError, match=r"m\.mtx:5: .*'x'"):
            io.load_matrix_market(str(path))


class TestLineBlocks:
    """Blocks end at the last LF or CR, so every terminator keeps the
    O(E) block bound."""

    LINES = [b"%d %d" % (i, (7 * i) % 800) for i in range(800)]

    def test_bare_cr_file_is_cut_into_bounded_blocks(self, tmp_path):
        path = tmp_path / "cr.el"
        path.write_bytes(b"\r".join(self.LINES) + b"\r")
        with open(path, "rb") as handle:
            blocks = list(io._line_blocks(handle, 64))
        longest_line = max(len(line) + 1 for line in self.LINES)
        assert len(blocks) > 1
        assert max(map(len, blocks)) <= 64 + longest_line

    @pytest.mark.parametrize("chunk_bytes", [64, io.DEFAULT_CHUNK_BYTES])
    def test_bare_cr_file_loads_like_its_lf_twin(self, tmp_path, chunk_bytes):
        cr, lf = tmp_path / "cr.el", tmp_path / "lf.el"
        cr.write_bytes(b"\r".join(self.LINES) + b"\r")
        lf.write_bytes(b"\n".join(self.LINES) + b"\n")
        assert_same_graph(
            io.load_edge_list(str(cr), chunk_bytes=chunk_bytes),
            io.load_edge_list(str(lf)),
        )

    def test_crlf_pair_split_between_blocks(self, tmp_path):
        # At 4-byte blocks the first read is "0 1\r": the block ends at
        # the CR and its LF heads the next block.
        crlf, lf = tmp_path / "crlf.el", tmp_path / "lf.el"
        crlf.write_bytes(b"0 1\r\n2 3\r\n# c\r\n4 5\r\n")
        lf.write_bytes(b"0 1\n2 3\n# c\n4 5\n")
        with open(crlf, "rb") as handle:
            assert next(io._line_blocks(handle, 4)) == b"0 1\r"
        assert_same_graph(
            io.load_edge_list(str(crlf), chunk_bytes=4),
            io.load_edge_list(str(lf)),
        )


#: Separators, filler lines and token spellings a real text dump may
#: mix; every spelling parses to the same int64 value.
_SEPARATORS = [" ", "\t", "  ", " \t "]
_FILLER_LINES = ["", "   ", "\t", "# c", "% 1 2", "  # x 3", "%%", "\t%"]
_SPELLINGS = {
    "plain": str,
    "plus": lambda value: f"+{value}" if value >= 0 else str(value),
    "zeros": lambda value: ("-" if value < 0 else "") + f"00{abs(value)}",
}
_INT64 = np.iinfo(np.int64)


@st.composite
def laid_out_rows(draw, columns):
    """``(rows, text)``: int64 token rows (small vertex IDs, any
    in-range int64 weight) laid out with random separators, CRLF or LF
    endings, blank lines and ``#``/``%`` comments."""
    ids = st.integers(0, 30)
    weights = st.integers(_INT64.min + 1, _INT64.max - 1)
    rows = draw(st.lists(
        st.tuples(*([ids, ids, weights][:columns])), max_size=12
    ))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(_FILLER_LINES), max_size=2))
        tokens = [
            _SPELLINGS[draw(st.sampled_from(sorted(_SPELLINGS)))](value)
            for value in row
        ]
        line = draw(st.sampled_from(["", " ", "\t"])) + tokens[0]
        for token in tokens[1:]:
            line += draw(st.sampled_from(_SEPARATORS)) + token
        lines.append(line + draw(st.sampled_from(["", " ", "\t"])))
    text = "".join(
        line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines
    )
    array = np.array(rows, dtype=np.int64).reshape(-1, columns)
    return array, text.encode("ascii")


class TestTokenizer:
    """The one-call block parse reads exactly what the rows say, and
    refuses by ``path:line`` every input ``np.fromstring`` would
    otherwise read silently."""

    @settings(max_examples=150, deadline=None)
    @given(
        laid_out_rows(columns=2),
        st.sampled_from([1, 3, 7, 16, 64, io.DEFAULT_CHUNK_BYTES]),
    )
    def test_edge_list_matches_from_edges(
        self, tmp_path_factory, laid_out, chunk_bytes
    ):
        rows, text = laid_out
        path = tmp_path_factory.mktemp("tok") / "g.el"
        path.write_bytes(text)
        assert_same_graph(
            io.load_edge_list(str(path), chunk_bytes=chunk_bytes),
            from_edges(rows),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        laid_out_rows(columns=3),
        st.sampled_from([1, 5, 32, io.DEFAULT_CHUNK_BYTES]),
    )
    def test_weighted_edge_list_matches_from_edges(
        self, tmp_path_factory, laid_out, chunk_bytes
    ):
        rows, text = laid_out
        path = tmp_path_factory.mktemp("tok") / "g.wel"
        path.write_bytes(text)
        graph, weights = io.load_weighted_edge_list(
            str(path), chunk_bytes=chunk_bytes
        )
        want_graph, want_weights = from_edges(rows[:, :2], payload=rows[:, 2])
        assert_same_graph(graph, want_graph)
        assert np.array_equal(weights, want_weights)

    @pytest.mark.parametrize("chunk_bytes", [4, io.DEFAULT_CHUNK_BYTES])
    @pytest.mark.parametrize("line, message", [
        (b"-", r"non-numeric token '-'"),
        (b"- 4", r"non-numeric token '-'"),
        (b"3 -", r"non-numeric token '-'"),
        (b"3 99999999999999999999",
         r"token '99999999999999999999' is out of the int64 range"),
        (b"-9223372036854775809 2",
         r"token '-9223372036854775809' is out of the int64 range"),
        (b"5 1_0", r"non-numeric token '1_0'"),
        (b"1\x002 3", r"non-numeric token"),
    ], ids=[
        "lone-sign", "sign-then-blank", "trailing-sign", "20-digit-id",
        "below-int64-min", "underscore", "nul",
    ])
    def test_hazard_names_file_and_line(
        self, tmp_path, line, message, chunk_bytes
    ):
        path = tmp_path / "hazard.el"
        path.write_bytes(b"# vertices 9\n0 1\n" + line + b"\n4 5\n")
        with pytest.raises(GraphFormatError,
                           match=r"hazard\.el:3: " + message):
            io.load_edge_list(str(path), chunk_bytes=chunk_bytes)

    def test_whitespace_only_block_loads(self, tmp_path):
        # At 8-byte chunks the blank run is a block of its own, which
        # np.fromstring alone reads as [0].
        path = tmp_path / "blank.el"
        path.write_bytes(b"0 1\n" + b" " * 40 + b"\n\t\t\n\n2 3\n")
        graph = io.load_edge_list(str(path), chunk_bytes=8)
        assert graph.edge_array().tolist() == [[0, 1], [2, 3]]

    def test_whitespace_only_block_loads_real_mtx(self, tmp_path):
        # float64 reads a blank block as [-1.] without the guard.
        path = tmp_path / "blank.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\n3 3 2\n"
            b"1 2 0.5\n" + b" " * 40 + b"\n\n2 3 -1e3\n"
        )
        graph = io.load_matrix_market(str(path), chunk_bytes=8)
        assert graph.edge_array().tolist() == [[0, 1], [1, 2]]


class TestCorruptArchives:
    """One seeded violation per load_csr validation rule."""

    def _save(self, tmp_path, **arrays):
        path = str(tmp_path / "bad.npz")
        np.savez(path, **arrays)
        return path

    def test_missing_arrays(self, tmp_path):
        path = self._save(tmp_path, foo=np.arange(3))
        with pytest.raises(GraphFormatError, match="offsets/neighbors"):
            io.load_csr(path)

    def test_non_monotonic_offsets(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 2, 1, 3]),
            neighbors=np.zeros(3, dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="not monotonic"):
            io.load_csr(path)

    def test_offsets_end_mismatch(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 1, 5]),
            neighbors=np.zeros(3, dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="offsets end at 5"):
            io.load_csr(path)

    def test_offsets_not_starting_at_zero(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([1, 2]),
            neighbors=np.zeros(1, dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="start at 0"):
            io.load_csr(path)

    def test_out_of_range_neighbor(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 1, 2]),
            neighbors=np.array([0, 7], dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="out of range"):
            io.load_csr(path)

    def test_negative_neighbor(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 1, 2]),
            neighbors=np.array([0, -1], dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="negative neighbor"):
            io.load_csr(path)

    def test_fractional_offsets(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0.0, 0.5, 2.0]),
            neighbors=np.array([0, 1], dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="fractional"):
            io.load_csr(path)

    def test_integral_float_offsets_coerce(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0.0, 1.0, 2.0]),
            neighbors=np.array([1, 0], dtype=np.int64),
        )
        graph = io.load_csr(path)
        assert graph.offsets.dtype == np.int64
        assert graph.neighbors.dtype == np.int32

    def test_unsorted_archive_resorted(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 2, 2]),
            neighbors=np.array([1, 0], dtype=np.int32),
        )
        assert io.load_csr(path).neighbors.tolist() == [0, 1]

    def test_truncated_zip(self, tmp_path):
        graph = from_edges([[0, 1], [1, 0]], num_vertices=2)
        path = str(tmp_path / "t.npz")
        io.save_csr(graph, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(GraphFormatError, match="unreadable"):
            io.load_csr(path)

    def test_error_names_the_path(self, tmp_path):
        path = self._save(
            tmp_path,
            offsets=np.array([0, 2, 1]),
            neighbors=np.zeros(1, dtype=np.int32),
        )
        with pytest.raises(GraphFormatError, match="bad.npz"):
            io.load_csr(path)


class TestCorruptGapBinary:
    def test_bad_flag(self, tmp_path):
        path = tmp_path / "g.sg"
        path.write_bytes(b"\x07" + b"\x00" * 64)
        with pytest.raises(GraphFormatError, match="directed flag"):
            io.load_gap_binary(str(path))

    def test_truncated(self, tmp_path):
        graph = from_edges([[0, 1], [1, 2]], num_vertices=3)
        path = str(tmp_path / "g.sg")
        io.save_gap_binary(graph, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:21])
        with pytest.raises(GraphFormatError, match="truncated"):
            io.load_gap_binary(path)

    def test_out_of_range_neighbor_shares_validation(self, tmp_path):
        graph = from_edges([[0, 1], [1, 2]], num_vertices=3)
        path = str(tmp_path / "g.sg")
        io.save_gap_binary(graph, path, include_transpose=False)
        blob = bytearray(open(path, "rb").read())
        # Out-neighbors start after flag + 2 header ints + 4 offsets.
        start = 1 + 16 + 32
        bad = np.array([99], dtype="<i4").tobytes()
        blob[start:start + 4] = bad
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(GraphFormatError, match="out of range"):
            io.load_gap_binary(path)


class TestMatrixMarketEdgeCases:
    def test_symmetric_mirrors_off_diagonal(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 3\n2 1\n3 1\n2 2\n"
        )
        graph = io.load_matrix_market(str(path))
        assert sorted(map(tuple, graph.edge_array().tolist())) == [
            (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]

    def test_real_values_dropped(self, tmp_path):
        path = tmp_path / "r.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n1 2 0.5\n3 1 -1e3\n"
        )
        graph = io.load_matrix_market(str(path))
        assert sorted(map(tuple, graph.edge_array().tolist())) == [
            (0, 1), (2, 0),
        ]

    @pytest.mark.parametrize("index", ["1.5", "1e300", "inf", "nan"])
    def test_real_non_integral_index_rejected(self, tmp_path, index):
        # The value column may be fractional; row and column indices
        # may not, nor may they overflow int64.
        path = tmp_path / "r.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"% note\n3 3 2\n1 2 0.5\n3 {index} 2.5\n"
        )
        with pytest.raises(
            GraphFormatError, match=rf"r\.mtx:5: .*'{index}' is not"
        ):
            io.load_matrix_market(str(path))

    def test_nnz_mismatch_checked_before_build(self, tmp_path):
        # The entry is out of range too, but the count is reported.
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n9 9\n"
        )
        with pytest.raises(GraphFormatError, match="declares 2"):
            io.load_matrix_market(str(path))

    def test_nnz_mismatch(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 5\n1 2\n"
        )
        with pytest.raises(GraphFormatError, match="declares 5"):
            io.load_matrix_market(str(path))

    @pytest.mark.parametrize("text", [
        b"%%MatrixMarket matrix coordinate pattern general\r3 3 2\r"
        b"1 2\r2 3\r",
        b"%%MatrixMarket matrix coordinate pattern general\n% note\r"
        b"3 3 2\n1 2\n2 3\n",
    ], ids=["bare-cr", "size-line-after-cr-comment"])
    def test_header_lines_end_at_every_terminator(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_bytes(text)
        graph = io.load_matrix_market(str(path))
        assert (graph.num_vertices, graph.num_edges) == (3, 2)
        assert graph.edge_array().tolist() == [[0, 1], [1, 2]]

    def test_missing_banner(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("not a banner\n")
        with pytest.raises(GraphFormatError, match="banner"):
            io.load_matrix_market(str(path))

    def test_array_layout_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n3 3\n1.0\n"
        )
        with pytest.raises(GraphFormatError, match="coordinate"):
            io.load_matrix_market(str(path))


class TestKarateSample:
    """The checked-in real-graph sample CI smokes against."""

    PATH = os.path.join(DATA_DIR, "karate.el")

    def test_loads_with_expected_shape(self):
        graph = io.load_graph(self.PATH)
        assert graph.num_vertices == 34
        assert graph.num_edges == 78

    def test_loads_identically_at_tiny_chunks(self):
        graph = io.load_edge_list(self.PATH)
        tiny = io.load_edge_list(self.PATH, chunk_bytes=3)
        assert_same_graph(tiny, graph)

    def test_datasets_file_spec(self):
        from repro.graph import datasets

        graph = datasets.load(f"file:{self.PATH}")
        assert graph.num_vertices == 34
