"""Declarative experiment-spec tests.

Three pillars:

- **Golden regression** — every :data:`ENTRIES` figure and study
  must emit rows bit-identical (values *and* key order) to
  fixtures whose miss rates match the hand-rolled pre-spec
  implementations (``tests/sim/golden/``), also in
  a fresh process with jumping clocks, reseeded global RNGs and another
  ``PYTHONHASHSEED``; every claim of a figure measures its golden rows.
- **Plan determinism** — ``expand()`` and the per-unit content hashes
  must be stable across processes (and across ``PYTHONHASHSEED``), since
  artifact keys derive from them.
- **Execution identity** — ``run_spec(jobs=N)`` equals ``jobs=1``, and
  reporters are pure functions of the row stream.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import artifacts
from repro.sim import spec as spec_module
from repro.sim.spec import (
    ENTRIES,
    FIGURES,
    STUDIES,
    ExperimentSpec,
    fig02_spec,
    fig10_spec,
    run_spec,
    scenario_matrix,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: ``FIGURES[id].run`` kwargs matching how each golden fixture was
#: captured from the pre-spec implementation (all at tiny scale).
GOLDEN_CASES = {
    "fig02": {"scale": "tiny", "graphs": ("URAND", "DBP")},
    "fig04": {"scale": "tiny", "graphs": ("URAND",)},
    "fig07": {"scale": "tiny", "graphs": ("URAND", "DBP")},
    "fig10": {"scale": "tiny", "graphs": ("URAND", "KRON"),
              "apps": ("PR", "CC")},
    "fig11": {"scale": "tiny", "vertex_counts": (4096, 65536)},
    "fig12a": {"scale": "tiny", "graphs": ("DBP", "URAND")},
    "fig12b": {"scale": "tiny", "graphs": ("UK-02", "URAND")},
    "fig13": {"scale": "tiny", "graphs": ("URAND",), "tile_counts": (1, 2)},
    "fig14": {"scale": "tiny", "graphs": ("DBP",)},
    "fig15": {"scale": "tiny", "graphs": ("URAND", "DBP"),
              "entry_bit_choices": (4, 8, 16)},
    "fig16": {"scale": "tiny", "graphs": ("URAND",),
              "set_counts": (8, 16), "way_counts": (8,)},
}

#: ``STUDIES[id].run`` kwargs of each study's golden fixture (at tiny
#: scale; the miss rates equal those of the hand-written benches the
#: studies replaced).
STUDY_CASES = {
    "ablation_victims": {"scale": "tiny", "graphs": ("DBP", "KRON")},
    "ablation_parallel": {"scale": "tiny", "graphs": ("URAND", "DBP")},
    "related_deadblock": {"scale": "tiny", "graphs": ("UK-02", "KRON")},
}

#: Every entry's golden case: the figures, then the studies.
ALL_CASES = {**GOLDEN_CASES, **STUDY_CASES}


#: Figures whose goldens were captured from hand-written loops that the
#: spec layer replaced last; they also run under a worker pool below.
POOLED_CASES = (
    "fig07", "fig11", "fig12a", "fig12b", "fig15", *STUDY_CASES,
)


#: Runs every golden case in a fresh interpreter whose clocks jump and
#: whose global RNGs are seeded away from their defaults, then writes
#: the rows as JSON. A fresh process, because the in-process graph memo
#: and row caches would serve a repeated run.
PERTURBED_GOLDEN_SCRIPT = """
import ast, itertools, json, random, sys, time

import numpy as np

jumps = itertools.cycle((0.25, 1e4, 3.5e-7, 86400.0, 0.0, 42.125))
now = [1.7e9]


def jumping_clock():
    now[0] += next(jumps)
    return now[0]


time.perf_counter = time.time = time.monotonic = jumping_clock
seed = int(sys.argv[1])
random.seed(seed)
np.random.seed(seed)

from repro.sim.spec import ENTRIES

cases = ast.literal_eval(sys.stdin.read())
rows = {figure: ENTRIES[figure].run(**kwargs)
        for figure, kwargs in cases.items()}
with open(sys.argv[2], "w") as handle:
    json.dump(rows, handle)
"""


def golden_rows(figure):
    return json.loads((GOLDEN_DIR / f"{figure}_tiny.json").read_text())


def assert_golden(figure, jobs=1):
    golden = golden_rows(figure)
    rows = ENTRIES[figure].run(jobs=jobs, **ALL_CASES[figure])
    assert rows == golden
    # Key *order* matters too: format_table derives its columns
    # from insertion order, so a reordered dict is a changed table.
    for row, want in zip(rows, golden):
        assert list(row.keys()) == list(want.keys())


class TestGoldenRegression:
    @pytest.mark.parametrize("figure", sorted(ALL_CASES))
    def test_rows_bit_identical_to_pre_spec_harness(self, figure):
        assert_golden(figure)

    @pytest.mark.parametrize("figure", POOLED_CASES)
    def test_jobs_2_rows_equal_serial_rows(self, figure):
        assert_golden(figure, jobs=2)

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_rows_ignore_clocks_rngs_and_hash_seed(
        self, hash_seed, tmp_path
    ):
        """Every replay is a pure function of trace, configuration and
        policy: jumping clocks, reseeded global RNGs and a different
        ``PYTHONHASHSEED`` leave all golden rows bit-identical."""
        env = {
            key: value for key, value in os.environ.items()
            if key != artifacts.DIR_ENV
        }
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        env["PYTHONHASHSEED"] = hash_seed
        out = tmp_path / "rows.json"
        proc = subprocess.run(
            [sys.executable, "-c", PERTURBED_GOLDEN_SCRIPT,
             str(1000 + int(hash_seed)), str(out)],
            input=repr(ALL_CASES), capture_output=True, text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(out.read_text())
        # items() lists compare values and key order together.
        mismatched = [
            figure for figure in sorted(ALL_CASES)
            if [list(row.items()) for row in rows[figure]] != [
                list(row.items()) for row in golden_rows(figure)
            ]
        ]
        assert not mismatched, f"rows changed: {mismatched}"


class TestSpecValidation:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", graphs=(), policies=("LRU",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", graphs=("URAND",), policies=())

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", graphs=("URAND",),
                           policies=("LRU",), order=("graph", "app"))

    def test_unknown_exclude_axis_rejected(self):
        with pytest.raises(ValueError, match="'x'.*'graphs'"):
            ExperimentSpec(name="x", graphs=("URAND",), policies=("LRU",),
                           exclude=((("graphs", "URAND"),),))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="'x'.*graph"):
            ExperimentSpec(name="x", graphs=("URAND", "URAND"),
                           policies=("LRU", "LRU"))
        with pytest.raises(ValueError, match="'x'.*policy"):
            ExperimentSpec(name="x", graphs=("URAND",),
                           policies=("LRU", "LRU"))

    def test_unknown_app_and_technique_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", graphs=("URAND",),
                           policies=("LRU",), apps=("NOPE",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", graphs=("URAND",),
                           policies=("LRU",), techniques=("blocked",))


class TestPlanExpansion:
    def test_policy_is_innermost_axis(self):
        spec = ExperimentSpec(
            name="x", graphs=("URAND", "KRON"),
            policies=("LRU", "DRRIP"), scale="tiny",
        )
        units = spec.expand()
        assert [(u.graph, u.policy) for u in units] == [
            ("URAND", "LRU"), ("URAND", "DRRIP"),
            ("KRON", "LRU"), ("KRON", "DRRIP"),
        ]

    def test_exclude_filters_bound_units(self):
        spec = ExperimentSpec(
            name="x", graphs=("URAND", "KRON"), policies=("LRU",),
            scale="tiny",
            exclude=((("graph", "KRON"),),),
        )
        assert [u.graph for u in spec.expand()] == ["URAND"]

    def test_exclude_on_policy(self):
        spec = ExperimentSpec(
            name="x", graphs=("URAND", "KRON"),
            policies=("LRU", "DRRIP"), scale="tiny",
            exclude=((("graph", "KRON"), ("policy", "DRRIP")),),
        )
        assert [(u.graph, u.policy) for u in spec.expand()] == [
            ("URAND", "LRU"), ("URAND", "DRRIP"), ("KRON", "LRU"),
        ]

    def test_replay_axis_keys_only_when_set(self):
        spec = ExperimentSpec(
            name="x", graphs=("URAND",), policies=("P-OPT",),
            replay=(None, (4, False)), scale="tiny",
        )
        default, quantized = spec.expand()
        assert "replay" not in default.key()
        assert quantized.key()["replay"] == [4, False]
        plain, replayed = spec.tasks()
        assert (plain.replay, replayed.replay) == (None, (4, False))
        assert "replay" not in plain.rows_key()
        assert replayed.rows_key()["replay"] == [4, False]

    @pytest.mark.parametrize("factory, digest", [
        (fig02_spec, "2a263c609404affa"),
        (fig10_spec, "faea885377b97393"),
        (scenario_matrix, "5dcc162798e62b7c"),
        (STUDIES["ablation_victims"].spec, "d72e1dcea7c0b6a9"),
        (STUDIES["ablation_parallel"].spec, "a5d574de61174961"),
        (STUDIES["related_deadblock"].spec, "390fdd8938044e1f"),
    ])
    def test_default_plan_digests_pinned(self, factory, digest):
        """Units without a replay point keep their pre-replay-axis keys
        (artifact-store rows and benchmark plans depend on them); the
        studies' plans are pinned alike."""
        assert factory().plan_digest()[:16] == digest

    def test_tasks_group_consecutive_same_prepare(self):
        spec = ExperimentSpec(
            name="x", graphs=("URAND",),
            policies=("LRU", "DRRIP", "OPT"), scale="tiny",
            chunk_size=2,
        )
        tasks = spec.tasks()
        assert [t.policies for t in tasks] == [
            ("LRU", "DRRIP"), ("OPT",)
        ]
        assert all(t.graph == "URAND" for t in tasks)

    def test_expansion_deterministic_across_processes(self):
        """Unit hashes and the plan digest survive hash randomization.

        Artifact keys derive from these hashes; if they varied with
        ``PYTHONHASHSEED`` the cache would never warm across runs.
        """
        script = (
            "from repro.sim.spec import fig02_spec\n"
            "spec = fig02_spec(scale='tiny', graphs=('URAND', 'DBP'))\n"
            "units = spec.expand()\n"
            "print(spec.plan_digest())\n"
            "print(','.join(u.content_hash() for u in units))\n"
        )
        outs = set()
        for seed in ("0", "1", "271828"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={
                    "PYTHONPATH": str(
                        Path(__file__).resolve().parents[2] / "src"
                    ),
                    "PYTHONHASHSEED": seed,
                },
                check=True,
            )
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_plan_digest_tracks_spec_changes(self):
        base = fig02_spec(scale="tiny", graphs=("URAND",))
        same = fig02_spec(scale="tiny", graphs=("URAND",))
        other = fig02_spec(scale="tiny", graphs=("DBP",))
        assert base.plan_digest() == same.plan_digest()
        assert base.plan_digest() != other.plan_digest()


class TestRunSpec:
    def test_jobs_identity_and_streaming(self):
        spec = fig02_spec(scale="tiny", graphs=("URAND",))
        streamed = []
        serial = run_spec(spec, jobs=1, stream=streamed.append)
        fanned = run_spec(spec, jobs=2)
        assert serial == fanned
        assert streamed == serial

    def test_report_rows_is_pure(self):
        spec = fig02_spec(scale="tiny", graphs=("URAND",))
        rows = run_spec(spec)
        report = FIGURES["fig02"].report
        assert report(spec, rows) == report(spec, list(rows))


class TestRowsCache:
    def test_store_rows_equal_uncached_rows(self, tmp_path):
        """Two LLC points with one geometry but different labels (the
        capacity and associativity sweeps cross at 8 sets x 16 ways)
        must not share cached rows."""
        kwargs = {"scale": "tiny", "graphs": ("URAND",),
                  "set_counts": (8, 16), "way_counts": (16,)}
        plain = FIGURES["fig16"].run(**kwargs)
        artifacts.configure(tmp_path / "store")
        try:
            stored = FIGURES["fig16"].run(**kwargs)
        finally:
            artifacts.configure(None)
        assert len(plain) == 3
        assert stored == plain


class TestScenarioMatrix:
    def test_matrix_crosses_all_axes(self):
        spec = scenario_matrix(
            scale="tiny", graphs=("URAND",),
            techniques=("none", "tiling:4"), llc_factors=(1, 2),
        )
        units = spec.expand()
        # 1 graph x 2 techniques x 1 app x 2 LLC points x 4 policies
        assert len(units) == 16
        assert {u.technique for u in units} == {"none", "tiling:4"}
        assert len({u.llc for u in units}) == 2
        assert {u.policy for u in units} == {
            "LRU", "DRRIP", "T-OPT", "P-OPT"
        }

    def test_unit_hashes_unique(self):
        spec = scenario_matrix(scale="tiny", graphs=("URAND",))
        hashes = [u.content_hash() for u in spec.expand()]
        assert len(hashes) == len(set(hashes))


class TestFigures:
    def test_exactly_the_paper_figures(self):
        assert list(FIGURES) == list(GOLDEN_CASES)
        assert list(STUDIES) == list(STUDY_CASES)
        assert dict(ENTRIES) == {**FIGURES, **STUDIES}
        assert list(ENTRIES) == list(ALL_CASES)
        for figure_id, figure in ENTRIES.items():
            assert figure.id == figure_id
            assert figure.spec().name == figure_id

    def test_duplicate_id_rejected(self):
        figure = FIGURES["fig02"]
        with pytest.raises(ValueError, match="'fig02' is defined twice"):
            spec_module._figure_table(figure, FIGURES["fig04"], figure)

    @pytest.mark.parametrize("figure", sorted(ALL_CASES))
    def test_claims_measure_golden_rows(self, figure):
        """Every claim reads the reported columns it names, and only the
        graphs, tile counts and bit widths the rows hold (Fig. 13's hold
        tiles 1 and 2 only). A claim whose graphs are absent does not
        apply; at tiny scale the others may fail."""
        not_applicable = {
            "fig12b": ["HATS-BDFS on ARAB"],
            "fig14": ["PHI gain over PB, DBP - HBUBL"],
        }.get(figure, [])
        checked = ENTRIES[figure].check(golden_rows(figure))
        assert len(checked) == len(ENTRIES[figure].claims)
        for row in checked:
            assert list(row) == ["claim", "paper", "measured", "holds"]
            assert row["holds"] in (True, False, None)
            absent = row["claim"] in not_applicable
            assert (row["measured"] is None) == absent
            assert (row["holds"] is None) == absent
