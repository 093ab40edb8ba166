"""Tests for the command-line interface."""

import pytest

from repro.cli import APP_FACTORIES, EXPERIMENTS, main


class TestCLI:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "DRRIP" in out
        assert "Table III" in out

    def test_graphs(self, capsys):
        assert main(["graphs", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in ("DBP", "UK-02", "KRON", "URAND", "HBUBL"):
            assert name in out

    def test_run(self, capsys):
        code = main(
            ["run", "--app", "PR", "--graph", "URAND",
             "--scale", "tiny", "--policy", "DRRIP"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "llc_miss_rate" in out

    def test_run_popt_extra_columns(self, capsys):
        main(["run", "--app", "PR", "--graph", "URAND",
              "--scale", "tiny", "--policy", "P-OPT"])
        out = capsys.readouterr().out
        assert "tie_rate" in out and "bytes_streamed" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--app", "PR", "--graph", "URAND",
             "--scale", "tiny", "--policies", "LRU,DRRIP"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup_vs_LRU" in out

    def test_experiment(self, capsys):
        code = main(["experiment", "table4", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "popt_preprocessing_s" in out

    def test_figure_prints_rows_then_claims(self, capsys, monkeypatch):
        import dataclasses

        from repro import cli
        from repro.sim.spec import fig13_spec

        figure = dataclasses.replace(
            cli.ENTRIES["fig13"],
            spec=lambda scale: fig13_spec(
                scale=scale, graphs=("URAND",), tile_counts=(1, 2)
            ),
        )
        monkeypatch.setattr(cli, "ENTRIES", {"fig13": figure})
        assert main(["experiment", "fig13", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        rows, claims = out.split("fig13: paper claims\n")
        assert "DRRIP_norm_misses" in rows
        assert claims.split()[:7] == ["claim", "|", "paper", "|",
                                      "measured", "|", "holds"]
        assert len(claims.splitlines()) == 2 + len(figure.claims)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "NOPE"])

    def test_registries_complete(self):
        assert set(APP_FACTORIES) >= {
            "PR", "CC", "PR-Delta", "Radii", "MIS", "BFS", "SSSP", "kCore",
        }
        assert set(EXPERIMENTS) >= {
            "fig02", "fig04", "fig07", "fig10", "fig11", "fig12a",
            "fig12b", "fig13", "fig14", "fig15", "fig16", "table4",
        }
