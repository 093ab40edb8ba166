"""Mutation tests for the ``dtype`` family and its runtime half.

Static side: one seeded bug per rule, written to ``tmp_path``, with a
pragma-silenced twin proving the suppression channel works — so every
rule is demonstrably *live* (a rule that cannot fire is a rule that
silently stopped protecting the tree). Runtime side: near-capacity
fabrications driven through :func:`check_width_contracts` at the
declared ``WIDTH_CONTRACTS`` boundaries, plus the end-to-end contract
that a ``sanitize=True`` replay exercising the width checks stays
bit-identical to an unsanitized one.
"""

from pathlib import Path
from textwrap import dedent
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import SimlintConfig, run_simlint
from repro.analysis.dtypeflow import Value, dtype_width
from repro.apps import PageRank
from repro.cache import scaled_hierarchy
from repro.errors import SanitizerError
from repro.graph import uniform_random
from repro.graph.csr import CSRGraph
from repro.popt.rereference import build_rereference_matrix
from repro.sim import prepare_run, simulate_prepared
from repro.sim.constants import WIDTH_CONTRACTS
from repro.sim.widthcontracts import (
    check_prepared_contracts,
    check_width_contracts,
)

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_dtype(tmp_path, source, replay_path=frozenset()):
    module = tmp_path / "mod.py"
    module.write_text(dedent(source))
    config = SimlintConfig(families=("dtype",), replay_path=replay_path)
    return run_simlint([module], config)


def rules_of(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# dtype-overflow
# ----------------------------------------------------------------------


class TestOverflow:
    BUGGY = """
        import numpy as np

        def tally(idx, n):
            counts = np.zeros(n, dtype=np.uint8)
            lengths = np.zeros(n, dtype=np.int64)
            counts[idx] = lengths
            return counts
    """

    def test_wide_store_into_narrow_array_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, self.BUGGY)
        assert "dtype-overflow" in rules_of(findings)

    def test_pragma_silences(self, tmp_path):
        silenced = self.BUGGY.replace(
            "counts[idx] = lengths",
            "counts[idx] = lengths  # simlint: allow[dtype-overflow]",
        )
        assert lint_dtype(tmp_path, silenced) == []

    def test_clamped_store_is_clean(self, tmp_path):
        """``np.minimum`` marks the value bounded; the documented guard
        idiom passes without a pragma."""
        assert lint_dtype(tmp_path, self.BUGGY.replace(
            "counts[idx] = lengths",
            "counts[idx] = np.minimum(lengths, 255)",
        )) == []

    def test_accumulation_into_narrow_counter_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, """
            import numpy as np

            def tally(deltas, n):
                counts = np.zeros(n, dtype=np.uint16)
                counts += deltas
                return counts
        """)
        assert "dtype-overflow" in rules_of(findings)

    def test_contract_bound_attribute_store_fires(self, tmp_path):
        """A store into a field named by ``WIDTH_CONTRACTS[...].binds``
        is checked against the contract's declared dtype even though
        the attribute itself has no inferable dtype."""
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "constants.py").write_text(dedent("""
            WIDTH_CONTRACTS = {
                "rm.entries": {
                    "dtype": ("uint8", "uint16"),
                    "max_bits": 16,
                    "binds": ("RereferenceMatrix.entries",),
                    "holds": "RM entries",
                    "guard": "clamped at encode time",
                },
            }
        """))
        module = tmp_path / "mod.py"
        module.write_text(dedent("""
            import numpy as np

            def poison(matrix, rows):
                wide = np.cumsum(rows.astype(np.int64))
                matrix.entries = wide
        """))
        findings = run_simlint(
            [module, sim / "constants.py"],
            SimlintConfig(families=("dtype",), replay_path=frozenset()),
        )
        assert "dtype-overflow" in rules_of(findings)
        (finding,) = [f for f in findings if f.rule == "dtype-overflow"]
        assert "rm.entries" in finding.message


# ----------------------------------------------------------------------
# dtype-implicit-upcast
# ----------------------------------------------------------------------


class TestImplicitUpcast:
    BUGGY = """
        import numpy as np

        def replay(n):
            tags = np.zeros(n, dtype=np.int32)
            ages = np.zeros(n, dtype=np.int64)
            return tags + ages
    """
    HOT = frozenset({"replay"})

    def test_mixed_width_arithmetic_on_hot_path_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, self.BUGGY, replay_path=self.HOT)
        assert "dtype-implicit-upcast" in rules_of(findings)

    def test_pragma_silences(self, tmp_path):
        silenced = self.BUGGY.replace(
            "return tags + ages",
            "return tags + ages  # simlint: allow[dtype-implicit-upcast]",
        )
        assert lint_dtype(tmp_path, silenced, replay_path=self.HOT) == []

    def test_cold_function_is_out_of_scope(self, tmp_path):
        """The rule is a memory-bandwidth rule; it only polices hot
        (replay-path / worker-reachable) functions."""
        assert lint_dtype(tmp_path, self.BUGGY) == []

    def test_aligned_widths_are_clean(self, tmp_path):
        assert lint_dtype(
            tmp_path, self.BUGGY.replace("np.int32", "np.int64"),
            replay_path=self.HOT,
        ) == []


# ----------------------------------------------------------------------
# dtype-narrowing-cast
# ----------------------------------------------------------------------


class TestNarrowingCast:
    BUGGY = """
        import numpy as np

        def shrink(n):
            totals = np.cumsum(np.arange(n, dtype=np.int64))
            return totals.astype(np.int16)
    """

    def test_unguarded_narrowing_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, self.BUGGY)
        assert "dtype-narrowing-cast" in rules_of(findings)

    def test_pragma_silences(self, tmp_path):
        silenced = self.BUGGY.replace(
            "return totals.astype(np.int16)",
            "return totals.astype(np.int16)  "
            "# simlint: allow[dtype-narrowing-cast]",
        )
        assert lint_dtype(tmp_path, silenced) == []

    def test_clamped_source_is_clean(self, tmp_path):
        assert lint_dtype(tmp_path, self.BUGGY.replace(
            "return totals.astype(np.int16)",
            "return np.minimum(totals, 1000).astype(np.int16)",
        )) == []

    def test_widening_cast_is_clean(self, tmp_path):
        assert lint_dtype(
            tmp_path, self.BUGGY.replace("np.int16", "np.float64")
        ) == []


# ----------------------------------------------------------------------
# dtype-unspecified
# ----------------------------------------------------------------------


class TestUnspecified:
    BUGGY = """
        import numpy as np

        def prepare(n):
            return np.arange(n)
    """
    HOT = frozenset({"prepare"})

    def test_platform_default_arange_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, self.BUGGY, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)

    def test_pragma_silences(self, tmp_path):
        silenced = self.BUGGY.replace(
            "return np.arange(n)",
            "return np.arange(n)  # simlint: allow[dtype-unspecified]",
        )
        assert lint_dtype(tmp_path, silenced, replay_path=self.HOT) == []

    def test_pinned_dtype_is_clean(self, tmp_path):
        assert lint_dtype(
            tmp_path,
            self.BUGGY.replace("np.arange(n)",
                               "np.arange(n, dtype=np.int64)"),
            replay_path=self.HOT,
        ) == []

    def test_cold_module_is_out_of_scope(self, tmp_path):
        assert lint_dtype(tmp_path, self.BUGGY) == []

    def test_bare_bincount_fires_and_cast_is_the_fix(self, tmp_path):
        source = """
            import numpy as np

            def prepare(values, n):
                return np.bincount(values, minlength=n)
        """
        findings = lint_dtype(tmp_path, source, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)
        fixed = source.replace(
            "np.bincount(values, minlength=n)",
            "np.bincount(values, minlength=n).astype(np.int64)",
        )
        assert lint_dtype(tmp_path, fixed, replay_path=self.HOT) == []

    def test_weighted_bincount_is_clean(self, tmp_path):
        """``weights=`` makes bincount float64 on every platform."""
        assert lint_dtype(tmp_path, """
            import numpy as np

            def prepare(values, contrib, n):
                return np.bincount(values, weights=contrib, minlength=n)
        """, replay_path=self.HOT) == []

    def test_integer_full_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, """
            import numpy as np

            def prepare(n):
                return np.full(n, 7)
        """, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)


# ----------------------------------------------------------------------
# The flow engine's building blocks
# ----------------------------------------------------------------------


class TestLattice:
    def test_unknown_is_top(self):
        assert not Value().known()
        assert Value(dtype="int64").known()

    def test_widths(self):
        assert dtype_width("uint8") == 8
        assert dtype_width("int64") == 64
        assert dtype_width("intp") == 64
        assert dtype_width("not-a-dtype") is None


# ----------------------------------------------------------------------
# Runtime half: check_width_contracts at the declared boundaries
# ----------------------------------------------------------------------


def tiny_graph():
    return uniform_random(128, avg_degree=4.0, seed=11)


class TestWidthContractRegistry:
    def test_schema(self):
        for name, spec in WIDTH_CONTRACTS.items():
            assert isinstance(spec["dtype"], tuple), name
            assert spec["dtype"], name
            assert isinstance(spec["max_bits"], int), name
            assert spec["holds"], name
            assert spec["guard"], name

    def test_binds_name_real_fields(self):
        bound = [
            b for spec in WIDTH_CONTRACTS.values()
            for b in spec.get("binds", ())
        ]
        assert "RereferenceMatrix.entries" in bound
        assert "CSRGraph.offsets" in bound
        assert "CSRGraph.neighbors" in bound


class TestCheckWidthContracts:
    def test_healthy_matrix_passes(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        report = check_width_contracts(matrix=matrix)
        assert report["checks"] >= 2
        assert report["rm_entries_max"] < 1 << 8
        assert report["rm_num_epochs"] == matrix.num_epochs

    def test_entry_exceeding_encoding_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=4
        )
        matrix.entries[0, 0] = np.uint8(1 << 4)  # one past the ceiling
        with pytest.raises(SanitizerError, match=r"rm\.entries"):
            check_width_contracts(matrix=matrix)

    def test_wrong_storage_dtype_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        wide = SimpleNamespace(
            entry_bits=matrix.entry_bits,
            entries=matrix.entries.astype(np.uint16),
            num_epochs=matrix.num_epochs,
        )
        with pytest.raises(SanitizerError, match="storage dtype"):
            check_width_contracts(matrix=wide)

    def test_healthy_graph_passes(self):
        report = check_width_contracts(graph=tiny_graph())
        assert report["csr_num_edges"] >= 1
        assert report["num_vertices"] == 128

    def test_graph_with_widened_neighbors_fails(self):
        graph = tiny_graph()
        fake = SimpleNamespace(
            offsets=graph.offsets,
            neighbors=graph.neighbors.astype(np.int64),
            num_vertices=graph.num_vertices,
        )
        with pytest.raises(SanitizerError, match=r"csr\.neighbors"):
            check_width_contracts(graph=fake)

    def test_trace_at_streaming_sentinel_fails(self):
        """The exact boundary: a trace of length 2^30 would make a real
        next-use index collide with POPT_STREAMING_NEXT_REF."""
        with pytest.raises(SanitizerError, match=r"trace\.next_use"):
            check_width_contracts(trace_length=1 << 30)

    def test_trace_just_under_the_sentinel_passes(self):
        report = check_width_contracts(trace_length=(1 << 30) - 1)
        assert report["trace_length"] == (1 << 30) - 1

    def test_errors_name_the_contract(self):
        with pytest.raises(SanitizerError, match=r"width-contracts\["):
            check_width_contracts(trace_length=1 << 40)


# ----------------------------------------------------------------------
# End-to-end: sanitize=True runs the width checks, bit-identically
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def prepared_run():
    return prepare_run(PageRank(), uniform_random(256, avg_degree=5.0,
                                                  seed=3))


class TestSanitizedWidthChecks:
    def test_prepared_contracts_pass_on_real_run(self, prepared_run):
        report = check_prepared_contracts(prepared_run)
        assert report["checks"] >= 1
        assert report["trace_length"] == len(prepared_run.trace)

    def test_sanitized_replay_reports_width_contracts(self, prepared_run):
        result = simulate_prepared(
            prepared_run, "P-OPT", scaled_hierarchy("tiny"), sanitize=True
        )
        report = result.details["width_contracts"]
        # Replay setup checks plus the per-matrix pass at RM build time.
        assert report["checks"] >= 2
        assert report["rm_entries_max"] < 1 << 8

    def test_unsanitized_replay_skips_width_checks(self, prepared_run):
        result = simulate_prepared(
            prepared_run, "P-OPT", scaled_hierarchy("tiny")
        )
        assert "width_contracts" not in result.details

    def test_bit_identical_to_unsanitized(self, prepared_run):
        hierarchy = scaled_hierarchy("tiny")
        for name in ("LRU", "P-OPT"):
            clean = simulate_prepared(prepared_run, name, hierarchy)
            sane = simulate_prepared(
                prepared_run, name, hierarchy, sanitize=True
            )
            assert clean.levels == sane.levels, name
            assert clean.cycles == sane.cycles, name


# ----------------------------------------------------------------------
# The shipped tree honors its own contracts
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_dtype_clean(self):
        config = SimlintConfig(families=("dtype",))
        assert run_simlint([SRC_REPRO], config) == []
