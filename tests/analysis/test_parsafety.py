"""Mutation tests for the ``par`` worker-purity family.

Each test seeds exactly the defect class one ``par`` rule exists for —
inside a module with a real ``ProcessPoolExecutor`` worker boundary —
and asserts the rule fires, fires on the right line, and is silenced
only by an explained ``# simlint: allow[...]`` pragma. The final tests
pin the CI contract: the shipped tree lints clean under ``par``.
"""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import RULE_FAMILIES, SimlintConfig, run_simlint
from repro.analysis.astutil import load_module
from repro.analysis.parsafety import (
    PAR_RULES,
    check_parsafety,
    par_status_lines,
)
from repro.analysis.purity import CallGraph

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Worker boundary shared by every fixture: ``work`` is the submit
#: target, so it (and everything it calls) is worker-reachable.
POOL = """
    from concurrent.futures import ProcessPoolExecutor

    def sweep(tasks):
        with ProcessPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, tasks))
"""


def write_fixture(tmp_path, body):
    """POOL boilerplate + the test body, each dedented independently."""
    module = tmp_path / "mod.py"
    module.write_text(dedent(POOL) + dedent(body))
    return module


def lint_par(tmp_path, body, allowlist=None):
    module = write_fixture(tmp_path, body)
    if allowlist is not None:
        return check_parsafety([load_module(module)], allowlist=allowlist)
    return run_simlint([module], SimlintConfig(families=("par",)))


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestGlobalMutation:
    def test_subscript_store_into_module_dict(self, tmp_path):
        findings = lint_par(tmp_path, """
            RESULTS = {}

            def work(task):
                RESULTS[task] = task * 2
                return task
        """)
        assert rules_of(findings) == {"par-global-mutation"}

    def test_global_statement(self, tmp_path):
        findings = lint_par(tmp_path, """
            COUNT = 0

            def work(task):
                global COUNT
                COUNT += 1
                return task
        """)
        assert "par-global-mutation" in rules_of(findings)

    def test_append_on_module_list(self, tmp_path):
        findings = lint_par(tmp_path, """
            LOG = []

            def work(task):
                LOG.append(task)
                return task
        """)
        assert rules_of(findings) == {"par-global-mutation"}

    def test_transitive_reachability(self, tmp_path):
        # The bug sits in a helper the worker calls, not the worker.
        findings = lint_par(tmp_path, """
            SEEN = set()

            def record(task):
                SEEN.add(task)

            def work(task):
                record(task)
                return task
        """)
        assert rules_of(findings) == {"par-global-mutation"}

    def test_unreachable_mutation_not_flagged(self, tmp_path):
        # Same mutation outside the worker-reachable set is the
        # coordinator's business, not par's.
        findings = lint_par(tmp_path, """
            TOTALS = {}

            def work(task):
                return task * 2

            def tally(rows):
                TOTALS["sum"] = sum(rows)
        """)
        assert findings == []

    def test_registered_cache_is_allowed(self, tmp_path):
        findings = lint_par(tmp_path, """
            CACHE = {}

            def work(task):
                CACHE[task] = task * 2
                return CACHE[task]
        """, allowlist={"mod.CACHE"})
        assert findings == []

    def test_local_shadow_not_flagged(self, tmp_path):
        findings = lint_par(tmp_path, """
            RESULTS = {}

            def work(task):
                RESULTS = {}
                RESULTS[task] = task * 2
                return RESULTS[task]
        """)
        assert findings == []


class TestSharedArrayWrite:
    def test_store_into_mmap_load(self, tmp_path):
        findings = lint_par(tmp_path, """
            import numpy as np

            def work(path):
                arr = np.load(path, mmap_mode="r")
                arr[0] = 1
                return int(arr.sum())
        """)
        assert rules_of(findings) == {"par-shared-array-write"}

    def test_augassign_on_accessor_product(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(filt):
                next_use = filt.compact_next_use()
                next_use += 1
                return next_use
        """)
        assert rules_of(findings) == {"par-shared-array-write"}

    def test_copy_is_the_escape_hatch(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(filt):
                next_use = filt.compact_next_use().copy()
                next_use += 1
                return next_use
        """)
        assert findings == []

    def test_setflags_reenable_flagged(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(store, key):
                arr = cached_filter(store, key, None)
                arr.setflags(write=True)
                return arr
        """)
        assert rules_of(findings) == {"par-shared-array-write"}

    def test_sort_on_shared_array(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(prepared, config):
                filt = get_private_filter(prepared, config)
                lines = filt.lines
                lines.sort()
                return lines
        """)
        assert "par-shared-array-write" in rules_of(findings)


class TestForkUnsafe:
    def test_module_scope_environ_read(self, tmp_path):
        findings = lint_par(tmp_path, """
            import os

            DEBUG = os.environ.get("REPRO_DEBUG", "")

            def work(task):
                return task
        """)
        assert rules_of(findings) == {"par-fork-unsafe"}

    def test_worker_mutates_environ(self, tmp_path):
        findings = lint_par(tmp_path, """
            import os

            def work(task):
                os.environ["REPRO_SCALE"] = str(task)
                return task
        """)
        assert rules_of(findings) == {"par-fork-unsafe"}

    def test_module_scope_rng(self, tmp_path):
        findings = lint_par(tmp_path, """
            import random

            RNG = random.Random(42)

            def work(task):
                return task
        """)
        assert rules_of(findings) == {"par-fork-unsafe"}

    def test_environ_read_inside_worker_is_fine(self, tmp_path):
        findings = lint_par(tmp_path, """
            import os

            def work(task):
                return os.environ.get("REPRO_SCALE", "small"), task
        """)
        assert findings == []


class TestUnseededRng:
    def test_global_random_draw_in_worker(self, tmp_path):
        findings = lint_par(tmp_path, """
            import random

            def work(task):
                return task + random.random()
        """)
        assert rules_of(findings) == {"par-unseeded-rng"}


class TestNonatomicWrite:
    def test_raw_open_under_artifact_root(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(store, row):
                out = store.root / "rows" / "r.json"
                with open(out, "w") as handle:
                    handle.write(row)
                return out
        """)
        assert rules_of(findings) == {"par-nonatomic-write"}

    def test_write_text_under_root(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(store, row):
                out = store.root / "rows" / "r.json"
                out.write_text(row)
                return out
        """)
        assert rules_of(findings) == {"par-nonatomic-write"}

    def test_tmp_rename_staging_is_clean(self, tmp_path):
        findings = lint_par(tmp_path, """
            import os

            def work(store, row):
                out = store.root / "rows" / "r.json"
                tmp = store.root / "rows" / ".tmp-r.json"
                with open(tmp, "w") as handle:
                    handle.write(row)
                os.rename(tmp, out)
                return out
        """)
        assert findings == []

    def test_read_under_root_is_clean(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(store):
                out = store.root / "rows" / "r.json"
                with open(out) as handle:
                    return handle.read()
        """)
        assert findings == []


class TestAllowlistStale:
    def test_registered_name_without_binding(self, tmp_path):
        findings = lint_par(tmp_path, """
            def work(task):
                return task
        """, allowlist={"mod.GONE"})
        assert rules_of(findings) == {"par-allowlist-stale"}

    def test_registered_name_with_binding_is_clean(self, tmp_path):
        findings = lint_par(tmp_path, """
            CACHE = {}

            def work(task):
                return task
        """, allowlist={"mod.CACHE"})
        assert findings == []


#: One (source, rule) pair per rule, each with a ``{pragma}`` slot on
#: the offending line: empty -> fires, allow-pragma -> silenced.
_PRAGMA_CASES = [
    ("""
        RESULTS = {{}}

        def work(task):
            RESULTS[task] = task * 2{pragma}
            return task
    """, "par-global-mutation"),
    ("""
        import numpy as np

        def work(path):
            arr = np.load(path, mmap_mode="r")
            arr[0] = 1{pragma}
            return int(arr.sum())
    """, "par-shared-array-write"),
    ("""
        import os

        DEBUG = os.environ.get("REPRO_DEBUG", ""){pragma}

        def work(task):
            return task
    """, "par-fork-unsafe"),
    ("""
        import random

        def work(task):
            return task + random.random(){pragma}
    """, "par-unseeded-rng"),
    ("""
        def work(store, row):
            out = store.root / "r.json"
            out.write_text(row){pragma}
            return out
    """, "par-nonatomic-write"),
]


class TestPragmas:
    @pytest.mark.parametrize(
        "source, rule", _PRAGMA_CASES, ids=[c[1] for c in _PRAGMA_CASES]
    )
    def test_fires_without_pragma(self, tmp_path, source, rule):
        findings = lint_par(tmp_path, source.format(pragma=""))
        assert rule in rules_of(findings)

    @pytest.mark.parametrize(
        "source, rule", _PRAGMA_CASES, ids=[c[1] for c in _PRAGMA_CASES]
    )
    def test_explained_pragma_silences(self, tmp_path, source, rule):
        pragma = f"  # simlint: allow[{rule}] -- exercised by the suite"
        findings = lint_par(tmp_path, source.format(pragma=pragma))
        assert rule not in rules_of(findings)


class TestEntryPoints:
    def test_pool_submit_target_discovered(self, tmp_path):
        module = write_fixture(tmp_path, """
            def work(task):
                return task
        """)
        graph = CallGraph([load_module(module)])
        targets = {entry.target for entry in graph.entry_points()}
        assert targets == {"work"}

    def test_status_lines_name_the_entry_points(self, tmp_path):
        module = write_fixture(tmp_path, """
            def work(task):
                return task
        """)
        lines = par_status_lines([load_module(module)])
        assert any("work @" in line for line in lines)
        assert any("worker-reachable" in line for line in lines)

    def test_no_pool_no_entry_points(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("def plain(x):\n    return x\n")
        lines = par_status_lines([load_module(module)])
        assert lines == [
            "par: no worker-boundary entry points in scanned files"
        ]


class TestShippedTree:
    def test_par_family_clean_on_shipped_tree(self):
        findings = run_simlint(
            [SRC_REPRO], SimlintConfig(families=("par",))
        )
        assert findings == []

    def test_par_rules_are_known(self):
        assert "par" in RULE_FAMILIES
        assert set(PAR_RULES) == {
            "par-global-mutation",
            "par-shared-array-write",
            "par-fork-unsafe",
            "par-unseeded-rng",
            "par-nonatomic-write",
            "par-allowlist-stale",
        }

    def test_shipped_entry_points_resolved(self):
        from repro.analysis.runner import _load_modules

        modules, parse_findings = _load_modules([SRC_REPRO])
        assert parse_findings == []
        graph = CallGraph(modules)
        described = [e.describe() for e in graph.entry_points()]
        # One pool loop ships: run_spec's map over run_task.
        assert len(described) == 1, described
        assert described[0].startswith("run_task @ ")
        assert "spec.py" in described[0]
