"""Smoke + shape tests for the figures, Table IV and the paper tables.

``benchmarks/bench_figures.py`` checks the paper's claims at ``small``;
here figures run at ``tiny`` scale on calls the golden cases
(``tests/sim/test_spec.py``) do not make, to verify wiring, row schemas,
and the invariants that hold at any scale.
"""

import pytest

from repro.errors import ReservationError, SimulationError
from repro.sim import experiments as exp
from repro.sim import parallel
from repro.sim.spec import FIGURES, geomean
from repro.sim.tables import (
    format_table,
    table1_rows,
    table2_rows,
    table3_rows,
)


class TestTables:
    def test_table1_components(self):
        rows = table1_rows()
        components = [row["component"] for row in rows]
        assert components == ["L1(D/I)", "L2", "LLC", "DRAM"]
        llc = rows[2]
        assert "24576KB" in llc["geometry"]
        assert llc["policy"] == "DRRIP"

    def test_table2_apps(self):
        rows = table2_rows()
        assert [row["app"] for row in rows] == [
            "PR", "CC", "PR-Delta", "Radii", "MIS",
        ]
        by_app = {row["app"]: row for row in rows}
        assert by_app["PR"]["style"] == "pull"
        assert by_app["CC"]["style"] == "push"
        assert by_app["CC"]["transpose"] == "CSC"
        assert by_app["Radii"]["frontier"] == "Y"

    def test_table3_graphs(self):
        rows = table3_rows()
        assert [row["graph"] for row in rows] == [
            "DBP", "UK-02", "KRON", "URAND", "HBUBL",
        ]
        assert rows[2]["paper_vertices_M"] == 33.55

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}], title="T")
        assert "T" in text and "a" in text and "x" in text
        assert format_table([], title="E").startswith("E")


class TestGeomean:
    def test_values(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)


@pytest.mark.slow
class TestHarnessSmoke:
    """Each figure runs end-to-end at tiny scale with one or two graphs."""

    def test_fig02(self):
        rows = FIGURES["fig02"].run(scale="tiny", graphs=("URAND",))
        assert len(rows) == 1
        assert {"LRU", "DRRIP", "SHiP-PC", "SHiP-Mem", "Hawkeye"} <= set(
            rows[0]
        )

    def test_fig04(self):
        rows = FIGURES["fig04"].run(scale="tiny", graphs=("URAND",))
        assert "T-OPT" in rows[0]

    def test_fig07(self):
        rows = FIGURES["fig07"].run(scale="tiny", graphs=("DBP",))
        assert "P-OPT-INTER+INTRA" in rows[0]

    def test_fig10(self):
        rows = FIGURES["fig10"].run(
            scale="tiny", graphs=("URAND",), apps=("PR",)
        )
        assert rows[0]["app"] == "PR"
        assert "P-OPT_speedup_vs_DRRIP" in rows[0]

    def test_fig10_radii_skips_hbubl(self):
        rows = FIGURES["fig10"].run(
            scale="tiny", graphs=("HBUBL",), apps=("Radii",)
        )
        assert rows == []

    def test_fig11(self):
        rows = FIGURES["fig11"].run(vertex_counts=(1024, 2048), scale="tiny")
        assert len(rows) == 2
        assert rows[0]["P-OPT_ways"] is not None

    def test_fig11_reservation_overflow_becomes_a_cell(self, monkeypatch):
        # The spec path replays in run_task; a ReservationError there
        # becomes the unit's error row, which the reporter turns into
        # Fig. 11's overflow cell.
        real = parallel.simulate_prepared

        def overflowing(prepared, policy, hierarchy, **kwargs):
            if policy == "P-OPT":
                raise ReservationError(
                    "P-OPT: Rereference Matrix needs 17 of 16 LLC ways"
                )
            return real(prepared, policy, hierarchy, **kwargs)

        monkeypatch.setattr(parallel, "simulate_prepared", overflowing)
        (row,) = FIGURES["fig11"].run(vertex_counts=(1024,), scale="tiny")
        assert row["P-OPT_missred"] is None
        assert row["P-OPT_ways"].startswith("P-OPT: Rereference Matrix")
        assert row["P-OPT-SE_missred"] is not None

    @pytest.mark.parametrize(
        "error", [ValueError("bug"), SimulationError("miswired driver")]
    )
    def test_fig11_other_errors_propagate(self, monkeypatch, error):
        real = parallel.simulate_prepared

        def broken(prepared, policy, hierarchy, **kwargs):
            if policy == "P-OPT":
                raise error
            return real(prepared, policy, hierarchy, **kwargs)

        monkeypatch.setattr(parallel, "simulate_prepared", broken)
        with pytest.raises(type(error)):
            FIGURES["fig11"].run(vertex_counts=(1024,), scale="tiny")

    def test_fig12a(self):
        rows = FIGURES["fig12a"].run(scale="tiny", graphs=("DBP",))
        assert "GRASP_missred" in rows[0]

    def test_fig12b(self):
        rows = FIGURES["fig12b"].run(scale="tiny", graphs=("UK-02",))
        assert "HATS-BDFS_missred" in rows[0]

    def test_fig13(self):
        rows = FIGURES["fig13"].run(
            scale="tiny", graphs=("URAND",), tile_counts=(1, 2)
        )
        assert len(rows) == 2
        untiled = rows[0]
        assert untiled["DRRIP_norm_misses"] == pytest.approx(1.0)

    def test_fig14(self):
        rows = FIGURES["fig14"].run(scale="tiny", graphs=("DBP",))
        assert rows[0]["PB+DRRIP"] == pytest.approx(1.0)
        assert "PHI+P-OPT" in rows[0]

    def test_fig15(self):
        rows = FIGURES["fig15"].run(
            scale="tiny", graphs=("URAND",), entry_bit_choices=(4, 8)
        )
        assert "4b_tie_rate" in rows[0]

    def test_fig16(self):
        rows = FIGURES["fig16"].run(
            scale="tiny",
            graphs=("URAND",),
            set_counts=(8, 16),
            way_counts=(8,),
        )
        sweeps = {row["sweep"] for row in rows}
        assert sweeps == {"capacity", "associativity"}

    def test_table4(self):
        rows = exp.table4_preprocessing(scale="tiny", graphs=("URAND",))
        assert rows[0]["popt_preprocessing_s"] >= 0
        assert rows[0]["pagerank_execution_s"] > 0

    def test_table4_times_each_side_repeatedly(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            exp, "build_rereference_matrix",
            lambda graph, **kwargs: calls.append("rm"),
        )
        monkeypatch.setattr(
            exp, "pagerank_reference", lambda graph: calls.append("pr")
        )
        exp.table4_preprocessing(scale="tiny", graphs=("URAND",))
        repeats = exp.TABLE4_REPEATS
        assert repeats > 1
        assert calls == ["rm"] * repeats + ["pr"] * repeats
