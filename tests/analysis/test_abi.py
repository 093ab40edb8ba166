"""Mutation tests for the ``abi`` family: the C kernel dialect.

Each test starts from a known-good two-file fixture (``kernels.c`` and
the ``ckernels.py`` loader under a ``sim/`` directory, mirroring the
shipped layout) that lints clean, applies exactly one dialect violation,
and asserts the expected ``abi-*`` rule fires with a file/line finding.
The final test pins the shipped tree clean under the family.
"""

from pathlib import Path
from textwrap import dedent

from repro.analysis import SimlintConfig, run_simlint

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

C_BASE = """\
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

static i64 clamp(i64 x, i64 hi)
{
    return x < hi ? x : hi;
}

void k_lru(const i64 *lines, const u8 *writes, i64 n,
           i64 *ws, i64 *out)
{
    i64 k;
    ws[0] = 0;
    for (k = 0; k < n; k++)
        ws[0] += lines[k] + (i64)writes[k];
    out[0] = clamp(ws[0], TOPT_NEVER);
}

void k_opt(const i64 *lines, const u8 *writes, i64 n, double scale,
           const double *draws, i64 *ws, i64 *out)
{
    i64 k;
    ws[0] = RM_VARIANT_INTER_ONLY;
    for (k = 0; k < n; k++)
        ws[0] += lines[k] + (i64)(scale * draws[k]) + (i64)writes[k];
    out[0] = clamp(ws[0], TOPT_NEVER);
}
"""

CKERNELS_BASE = """\
from pathlib import Path

_SOURCE = Path(__file__).with_name("kernels.c")
"""

MALLOC_C = C_BASE.replace(
    "    i64 k;\n    ws[0] = 0;",
    "    i64 k;\n    i64 *tmp = (i64 *)malloc(8);\n    ws[0] = tmp[0];",
)


def lint_abi(tmp_path, c=C_BASE, ck=CKERNELS_BASE):
    """Write the fixture under ``sim/`` and run only the abi family."""
    sim = tmp_path / "sim"
    sim.mkdir(exist_ok=True)
    if c is not None:
        (sim / "kernels.c").write_text(dedent(c))
    (sim / "ckernels.py").write_text(dedent(ck))
    return run_simlint([sim], SimlintConfig(families=("abi",)))


def rules_of(findings):
    return {finding.rule for finding in findings}


def line_of(source, needle):
    """1-based line of the first fixture line containing ``needle``."""
    for lineno, line in enumerate(dedent(source).splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"fixture has no line containing {needle!r}")


def only(findings, rule):
    picked = [f for f in findings if f.rule == rule]
    assert picked, f"expected a {rule} finding, got {findings}"
    return picked


class TestBaseline:
    def test_baseline_fixture_is_clean(self, tmp_path):
        assert lint_abi(tmp_path) == []

    def test_scope_requires_sim_directory(self, tmp_path):
        # The same files outside a sim/ directory never engage the
        # family: the rules model one specific module layout.
        (tmp_path / "kernels.c").write_text(MALLOC_C)
        (tmp_path / "ckernels.py").write_text(CKERNELS_BASE)
        findings = run_simlint(
            [tmp_path], SimlintConfig(families=("abi",))
        )
        assert findings == []


class TestCHygiene:
    def test_malloc_fires(self, tmp_path):
        findings = lint_abi(tmp_path, c=MALLOC_C)
        hits = only(findings, "abi-c-hygiene")
        malloc_line = line_of(MALLOC_C, "malloc(8)")
        assert any(
            f.line == malloc_line and "heap allocation" in f.message
            and "malloc" in f.message for f in hits
        )

    def test_external_call_fires(self, tmp_path):
        mutated = C_BASE.replace(
            "out[0] = clamp(ws[0], TOPT_NEVER);\n}\n\nvoid k_opt",
            "out[0] = qsort_helper(ws[0]);\n}\n\nvoid k_opt",
        )
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "abi-c-hygiene")
        assert any(
            "external function qsort_helper()" in f.message
            for f in hits
        )

    def test_literal_loop_bound_fires(self, tmp_path):
        mutated = C_BASE.replace("(k = 0; k < n; k++)\n        ws[0] +="
                                 " lines[k] + (i64)writes[k];",
                                 "(k = 0; k < 8; k++)\n        ws[0] +="
                                 " lines[k] + (i64)writes[k];")
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "abi-c-hygiene")
        assert any(
            "numeric literal 8" in f.message and
            f.line == line_of(mutated, "k < 8") for f in hits
        )

    def test_mutable_file_scope_state_fires(self, tmp_path):
        mutated = C_BASE.replace(
            "static i64 clamp",
            "static i64 call_count;\n\nstatic i64 clamp",
        )
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "abi-c-hygiene")
        assert any(
            "mutable file-scope object 'call_count'" in f.message
            for f in hits
        )

    def test_const_file_scope_table_is_allowed(self, tmp_path):
        mutated = C_BASE.replace(
            "static i64 clamp",
            "static const i64 lut[2] = {0, 1};\n\nstatic i64 clamp",
        )
        findings = lint_abi(tmp_path, c=mutated)
        assert "abi-c-hygiene" not in rules_of(findings)

    def test_extra_include_fires(self, tmp_path):
        mutated = C_BASE.replace(
            "#include <stdint.h>",
            "#include <stdint.h>\n#include <stdlib.h>",
        )
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "abi-c-hygiene")
        assert any(
            "#include <stdlib.h>" in f.message for f in hits
        )


    def test_object_like_define_fires(self, tmp_path):
        # A local copy of a registry constant would shadow its -D flag.
        mutated = C_BASE.replace(
            "typedef uint8_t u8;",
            "typedef uint8_t u8;\n#define TOPT_NEVER ((i64)1 << 39)",
        )
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "abi-c-hygiene")
        assert any(
            "#define TOPT_NEVER" in f.message and
            f.line == line_of(mutated, "#define TOPT_NEVER") for f in hits
        )


class TestCPragmas:
    def test_same_line_c_pragma_suppresses(self, tmp_path):
        mutated = C_BASE.replace(
            "    i64 k;\n    ws[0] = 0;",
            "    i64 k;\n    i64 *tmp = (i64 *)malloc(8);"
            "  /* simlint: allow[abi-c-hygiene] */\n"
            "    ws[0] = tmp[0];",
        )
        findings = lint_abi(tmp_path, c=mutated)
        assert "abi-c-hygiene" not in rules_of(findings)

    def test_standalone_c_pragma_covers_next_line(self, tmp_path):
        mutated = C_BASE.replace(
            "    i64 k;\n    ws[0] = 0;",
            "    i64 k;\n    /* simlint: allow[abi-c-hygiene] */\n"
            "    i64 *tmp = (i64 *)malloc(8);\n    ws[0] = tmp[0];",
        )
        findings = lint_abi(tmp_path, c=mutated)
        assert "abi-c-hygiene" not in rules_of(findings)

    def test_family_token_suppresses_in_c(self, tmp_path):
        mutated = MALLOC_C.replace(
            "malloc(8);", "malloc(8);  /* simlint: allow[abi] */"
        )
        findings = lint_abi(tmp_path, c=mutated)
        assert findings == []

    def test_unknown_rule_in_c_pragma_is_flagged(self, tmp_path):
        mutated = C_BASE.replace(
            "typedef int64_t i64;",
            "/* simlint: allow[abi-bogus] */\ntypedef int64_t i64;",
        )
        findings = lint_abi(tmp_path, c=mutated)
        hits = only(findings, "pragma-unknown")
        assert any(
            f.path.endswith("kernels.c") and "abi-bogus" in f.message
            for f in hits
        )


class TestParseRule:
    def test_unparsable_c_fires(self, tmp_path):
        findings = lint_abi(tmp_path, c="void k_lru(@@@\n")
        assert "abi-parse" in rules_of(findings)

    def test_missing_c_file_fires(self, tmp_path):
        findings = lint_abi(tmp_path, c=None)
        hits = only(findings, "abi-parse")
        assert any("cannot read kernels.c" in f.message for f in hits)


class TestShippedTree:
    def test_shipped_sim_package_is_abi_clean(self):
        findings = run_simlint(
            [SRC_REPRO / "sim"], SimlintConfig(families=("abi",))
        )
        assert findings == []
