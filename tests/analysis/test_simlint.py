"""Mutation tests for simlint: seed one bug per rule, assert it fires.

Each test writes a small module to ``tmp_path`` containing exactly the
defect class a rule exists for, runs :func:`repro.analysis.run_simlint`
over it, and asserts the expected rule (and only sensible rules) fired.
The final tests pin the contract the CI lint job relies on: the shipped
tree itself lints clean.
"""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (
    DEFAULT_REPLAY_PATH,
    RULE_FAMILIES,
    SimlintConfig,
    main,
    run_simlint,
)
from repro.analysis.findings import Finding, format_findings

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_source(tmp_path, source, families=RULE_FAMILIES, replay_path=None):
    """Write ``source`` as one module and return the finding rules."""
    module = tmp_path / "mod.py"
    module.write_text(dedent(source))
    config = SimlintConfig(
        families=families,
        replay_path=(
            replay_path if replay_path is not None else DEFAULT_REPLAY_PATH
        ),
    )
    return run_simlint([module], config)


def rules_of(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# policy: ReplacementPolicy contract conformance
# ----------------------------------------------------------------------


class TestPolicyContract:
    def test_mutable_class_default(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class Buggy(ReplacementPolicy):
                name = "Buggy"
                table = []

                def choose_victim(self, set_idx, ctx):
                    return 0
        """)
        assert "policy-mutable-class-default" in rules_of(findings)

    def test_mutable_default_via_constructor_call(self, tmp_path):
        findings = lint_source(tmp_path, """
            import collections
            from repro.policies.base import ReplacementPolicy

            class Buggy(ReplacementPolicy):
                name = "Buggy"
                history = collections.defaultdict(list)

                def choose_victim(self, set_idx, ctx):
                    return 0
        """)
        assert "policy-mutable-class-default" in rules_of(findings)

    def test_missing_choose_victim(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class Buggy(ReplacementPolicy):
                name = "Buggy"
        """)
        assert "policy-missing-victim" in rules_of(findings)

    def test_missing_name(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class Buggy(ReplacementPolicy):
                def choose_victim(self, set_idx, ctx):
                    return 0
        """)
        assert "policy-name-missing" in rules_of(findings)

    def test_duplicate_names(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class One(ReplacementPolicy):
                name = "Twin"

                def choose_victim(self, set_idx, ctx):
                    return 0

            class Two(ReplacementPolicy):
                name = "Twin"

                def choose_victim(self, set_idx, ctx):
                    return 1
        """)
        assert "policy-name-duplicate" in rules_of(findings)

    def test_per_set_state_in_init(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class Buggy(ReplacementPolicy):
                name = "Buggy"

                def __init__(self):
                    super().__init__()
                    self.bits = [[0] * self.num_ways
                                 for _ in range(self.num_sets)]

                def choose_victim(self, set_idx, ctx):
                    return 0
        """)
        assert "policy-init-set-state" in rules_of(findings)

    def test_indirect_subclass_is_checked(self, tmp_path):
        """The contract applies through intermediate base classes."""
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class _Shared(ReplacementPolicy):
                pass

            class Buggy(_Shared):
                name = "Buggy"
        """)
        assert "policy-missing-victim" in rules_of(findings)

    def test_abstract_underscore_class_exempt(self, tmp_path):
        """_-prefixed helpers need no name/choose_victim of their own."""
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class _Base(ReplacementPolicy):
                pass
        """)
        assert rules_of(findings) == set()

    def test_conforming_policy_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.policies.base import ReplacementPolicy

            class Fine(ReplacementPolicy):
                name = "Fine"

                def reset(self):
                    self.stack = [
                        list(range(self.num_ways))
                        for _ in range(self.num_sets)
                    ]

                def choose_victim(self, set_idx, ctx):
                    return self.stack[set_idx][0]
        """)
        assert rules_of(findings) == set()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_random(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random

            def choose(ways):
                return random.randrange(ways)
        """)
        assert "determinism-random" in rules_of(findings)

    def test_unseeded_numpy_default_rng(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def noise():
                return np.random.default_rng().integers(10)
        """)
        assert "determinism-random" in rules_of(findings)

    def test_seeded_rng_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def noise(seed):
                return np.random.default_rng(seed).integers(10)
        """)
        assert "determinism-random" not in rules_of(findings)

    def test_wall_clock(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = time.time()
        """)
        assert "determinism-time" in rules_of(findings)

    def test_set_iteration_order(self, tmp_path):
        findings = lint_source(tmp_path, """
            def drain(pending):
                live = {1, 2, 3}
                order = []
                for item in live:
                    order.append(item)
                return order
        """)
        assert "determinism-set-order" in rules_of(findings)

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def drain(pending):
                live = {1, 2, 3}
                order = []
                for item in sorted(live):
                    order.append(item)
                return order
        """)
        assert "determinism-set-order" not in rules_of(findings)


# ----------------------------------------------------------------------
# hotpath
# ----------------------------------------------------------------------


class TestHotPath:
    def test_tolist_in_replay_function(self, tmp_path):
        findings = lint_source(tmp_path, """
            def replay(trace):
                lines = trace.lines.tolist()
                return lines
        """)
        assert "hotpath-tolist" in rules_of(findings)

    def test_scalar_boxing_in_loop(self, tmp_path):
        findings = lint_source(tmp_path, """
            def replay(lines):
                total = 0
                for line in lines:
                    total += int(line)
                return total
        """)
        assert "hotpath-scalar-box" in rules_of(findings)

    def test_append_in_loop(self, tmp_path):
        findings = lint_source(tmp_path, """
            def replay(lines):
                out = []
                for line in lines:
                    out.append(line)
                return out
        """)
        assert "hotpath-append" in rules_of(findings)

    def test_only_replay_path_functions_are_checked(self, tmp_path):
        findings = lint_source(tmp_path, """
            def summarize(rows):
                out = []
                for row in rows:
                    out.append(int(row))
                return out
        """)
        assert rules_of(findings) == set()

    def test_replay_path_override(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def summarize(rows):
                out = []
                for row in rows:
                    out.append(row)
                return out
            """,
            replay_path=frozenset({"summarize"}),
        )
        assert "hotpath-append" in rules_of(findings)

    def test_method_qualified_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Engine:
                def run(self, lines):
                    out = []
                    for line in lines:
                        out.append(line)
                    return out
            """,
            replay_path=frozenset({"Engine.run"}),
        )
        assert "hotpath-append" in rules_of(findings)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = time.time()  # simlint: allow[determinism-time]
        """)
        assert rules_of(findings) == set()

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                # simlint: allow[determinism-time]
                result["when"] = time.time()
        """)
        assert rules_of(findings) == set()

    def test_family_prefix_pragma(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = time.time()  # simlint: allow[determinism]
        """)
        assert rules_of(findings) == set()

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = time.time()  # simlint: allow[hotpath]
        """)
        assert "determinism-time" in rules_of(findings)

    def test_multiple_rules_in_one_pragma(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            import time

            def stamp(result):
                result["when"] = time.time()  # simlint: allow[determinism-time, determinism-random]
                result["salt"] = random.random()  # simlint: allow[determinism-random, determinism-time]
        """)
        assert rules_of(findings) == set()

    def test_pragma_on_multiline_statement_anchors_offending_line(
        self, tmp_path
    ):
        # Inside a multi-line statement the pragma must sit on the line
        # the finding anchors to — the offending expression's own line —
        # not on the statement's opening or closing line.
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = (
                    time.time()  # simlint: allow[determinism-time]
                )
        """)
        assert rules_of(findings) == set()
        findings = lint_source(tmp_path, """
            import time

            def stamp(result):
                result["when"] = (
                    time.time()
                )  # simlint: allow[determinism-time]
        """)
        assert "determinism-time" in rules_of(findings)

    def test_unknown_rule_pragma_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f():
                return 1  # simlint: allow[no-such-rule]
        """)
        assert rules_of(findings) == {"pragma-unknown"}
        assert "no-such-rule" in findings[0].message

    def test_known_rule_and_star_pragmas_are_not_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f():
                return 1  # simlint: allow[determinism-time]

            def g():
                return 2  # simlint: allow[*]
        """)
        assert rules_of(findings) == set()

    def test_pragma_syntax_in_docstring_is_not_validated(self, tmp_path):
        # Docstrings documenting the pragma syntax are prose, not
        # suppressions — only real comments are validated.
        findings = lint_source(tmp_path, '''
            def f():
                """Use ``# simlint: allow[made-up-rule]`` to suppress."""
                return 1
        ''')
        assert rules_of(findings) == set()


# ----------------------------------------------------------------------
# registry drift (runs against the real registry)
# ----------------------------------------------------------------------


class TestRegistryDrift:
    POLICIES_DIR = SRC_REPRO / "policies"

    def lint_registry(self):
        return run_simlint(
            [self.POLICIES_DIR], SimlintConfig(families=("registry",))
        )

    def test_real_registry_is_clean(self):
        assert self.lint_registry() == []

    def test_broken_factory_is_reported(self, monkeypatch):
        from repro.policies import registry

        def broken(ctx):
            raise ValueError("intentionally broken")

        monkeypatch.setitem(registry._FACTORIES, "ZZZ-Broken", broken)
        findings = self.lint_registry()
        assert "registry-construct" in rules_of(findings)
        assert any("ZZZ-Broken" in f.message for f in findings)

    def test_factory_returning_non_policy_is_reported(self, monkeypatch):
        from repro.policies import registry

        monkeypatch.setitem(
            registry._FACTORIES, "ZZZ-Object", lambda ctx: object()
        )
        findings = self.lint_registry()
        assert "registry-construct" in rules_of(findings)

    def test_unregistered_class_is_reported(self, monkeypatch):
        from repro.policies import registry

        # Dropping LRU's registration leaves the class orphaned.
        factories = dict(registry._FACTORIES)
        del factories["LRU"]
        monkeypatch.setattr(registry, "_FACTORIES", factories)
        findings = self.lint_registry()
        assert "registry-unreachable" in rules_of(findings)
        assert any("LRU" in f.message for f in findings)

    def test_skipped_when_registry_not_scanned(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("x = 1\n")
        assert run_simlint(
            [module], SimlintConfig(families=("registry",))
        ) == []


# ----------------------------------------------------------------------
# runner / CLI
# ----------------------------------------------------------------------


class TestRunner:
    def test_parse_error_is_a_finding(self, tmp_path):
        module = tmp_path / "broken.py"
        module.write_text("def oops(:\n")
        findings = run_simlint([module])
        assert rules_of(findings) == {"parse-error"}

    def test_findings_sorted_and_formatted(self):
        findings = [
            Finding(rule="b", path="z.py", line=2, message="two"),
            Finding(rule="a", path="a.py", line=9, message="one"),
        ]
        text = format_findings(findings)
        assert text.splitlines() == [
            "a.py:9: [a] one",
            "z.py:2: [b] two",
        ]

    def test_main_exit_one_on_findings(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(module)]) == 1
        out = capsys.readouterr().out
        assert "determinism-time" in out

    def test_main_skip_family(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(module), "--skip", "determinism"]) == 0

    def test_dtype_family_is_unknown(self, capsys):
        """Width contracts are enforced at runtime where values are
        narrowed; there is no static ``dtype`` family to select."""
        with pytest.raises(SystemExit) as info:
            main(["--family", "dtype"])
        assert info.value.code == 2
        assert "invalid choice: 'dtype'" in capsys.readouterr().err

    def test_abi_family_is_unknown(self, capsys):
        """The kernel dialect is enforced by the compiler, the linker
        and the loader; there is no static ``abi`` family to select."""
        with pytest.raises(SystemExit) as info:
            main(["--family", "abi"])
        assert info.value.code == 2
        assert "invalid choice: 'abi'" in capsys.readouterr().err

    def test_kernels_family_reports_ckernels(self, capsys):
        assert main([str(SRC_REPRO / "sim"), "--family", "kernels"]) == 0
        assert "ckernels:" in capsys.readouterr().out
        assert main([str(SRC_REPRO / "sim"), "--skip", "kernels"]) == 0
        assert "ckernels:" not in capsys.readouterr().out

    def test_main_exit_zero_on_clean_tree(self, capsys):
        """The shipped package lints clean — the CI lint job's contract."""
        assert main([str(SRC_REPRO)]) == 0
        out = capsys.readouterr().out
        assert "simlint: OK" in out
        assert "ckernels:" in out

    def test_run_simlint_clean_on_shipped_tree(self):
        assert run_simlint([SRC_REPRO]) == []

    def test_findings_are_diff_stable(self, tmp_path):
        """Multi-family output is totally ordered by (path, line, rule,
        message) and exact duplicates collapse, so re-running with a
        different family order can never reshuffle a CI diff."""
        for name, body in (
            ("b_mod.py", "import time\n\ndef f():\n"
                         "    return time.time()\n"),
            ("a_mod.py", "import time, random\n\ndef g():\n"
                         "    return time.time() + random.random()\n"),
        ):
            (tmp_path / name).write_text(body)
        first = run_simlint([tmp_path])
        # Scanning the same files twice (overlapping path arguments)
        # must not duplicate findings.
        again = run_simlint([tmp_path, tmp_path / "a_mod.py"])
        assert first == again
        keys = [(f.path, f.line, f.rule, f.message) for f in first]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_same_site_distinct_messages_survive(self):
        """Dedup is exact-identity: two findings differing only in
        message (two wall-clock reads on one line) both survive."""
        from repro.analysis.runner import _stable_findings

        pair = [
            Finding(rule="r", path="p.py", line=3, message="argument 1"),
            Finding(rule="r", path="p.py", line=3, message="argument 0"),
            Finding(rule="r", path="p.py", line=3, message="argument 0"),
        ]
        stable = _stable_findings(pair)
        assert [f.message for f in stable] == ["argument 0", "argument 1"]

    def test_main_json_output(self, tmp_path, capsys):
        import json

        module = tmp_path / "mod.py"
        module.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(module), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["determinism"] >= 1
        assert report["scanned_files"] == 1
        (finding,) = [
            f for f in report["findings"]
            if f["rule"] == "determinism-time"
        ]
        assert finding["family"] == "determinism"
        assert finding["path"].endswith("mod.py")
        assert isinstance(finding["line"], int)
        assert "message" in finding

    def test_main_json_clean_tree_exits_zero(self, tmp_path, capsys):
        import json

        module = tmp_path / "mod.py"
        module.write_text("x = 1\n")
        assert main([str(module), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"] == []
        assert report["counts"] == {}


# ----------------------------------------------------------------------
# kernels: replay-kernel dispatch coverage
# ----------------------------------------------------------------------


class TestKernelRules:
    def test_kernel_resolve_fires_on_drift(self, monkeypatch):
        # Dropping a KERNEL_TABLE entry a policy still advertises must
        # produce kernel-resolve findings on the real module.
        from repro.sim import kernels as kernels_module

        monkeypatch.delitem(kernels_module.KERNEL_TABLE, "lru")
        findings = run_simlint(
            [SRC_REPRO / "sim" / "kernels.py"],
            SimlintConfig(families=("kernels",)),
        )
        assert "kernel-resolve" in rules_of(findings)

    def test_real_kernels_module_resolves_clean(self):
        findings = run_simlint(
            [SRC_REPRO / "sim" / "kernels.py"],
            SimlintConfig(families=("kernels",)),
        )
        assert findings == []
