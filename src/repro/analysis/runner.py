"""simlint runner: discover files, execute rules, report findings.

``python -m repro.analysis [paths...]`` is the command-line entry; the
:func:`run_simlint` API is what the tests drive. Rules are pure functions
from parsed modules to findings, so adding a rule is adding one function
to :data:`RULE_SETS`.
"""

from __future__ import annotations

import argparse
import io
import json
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence

from .astutil import _PRAGMA, SourceModule, iter_python_files, load_module
from .contract import check_policy_contracts
from .determinism import check_determinism
from .findings import Finding, format_findings
from .hotpath import DEFAULT_REPLAY_PATH, check_hot_paths
from .kernelcov import check_kernels
from .parsafety import PAR_RULES, check_parsafety, par_status_lines
from .registry_drift import check_registry

__all__ = ["SimlintConfig", "run_simlint", "main", "KNOWN_RULES"]

RULE_FAMILIES = (
    "policy", "determinism", "hotpath", "registry", "kernels", "par",
)

#: Every rule id a suppression pragma may legally name. Pragmas naming
#: anything else are flagged (``pragma-unknown``) rather than silently
#: ignored — a typo in a suppression is a latent re-enabled finding,
#: which is worse than noise.
KNOWN_RULES = frozenset(
    (
        "parse-error",
        "pragma-unknown",
        "policy-init-set-state",
        "policy-missing-victim",
        "policy-mutable-class-default",
        "policy-name-duplicate",
        "policy-name-missing",
        "determinism-random",
        "determinism-set-order",
        "determinism-time",
        "hotpath-append",
        "hotpath-scalar-box",
        "hotpath-tolist",
        "registry-construct",
        "registry-order",
        "registry-unreachable",
        "kernel-popt-coverage",
        "kernel-resolve",
    )
    + PAR_RULES
    + RULE_FAMILIES
)


@dataclass
class SimlintConfig:
    """Tunable knobs: which functions are replay-path, which rule
    families run."""

    replay_path: FrozenSet[str] = DEFAULT_REPLAY_PATH
    families: Sequence[str] = field(default_factory=lambda: RULE_FAMILIES)


def _load_modules(paths: Sequence[Path]) -> tuple:
    modules: List[SourceModule] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse-error",
                path=str(path),
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            ))
    return modules, findings


def _pragma_comments(source: str):
    """(line, tokens) per suppression pragma found in a *real* comment.

    Validation goes through :mod:`tokenize` rather than the line map so
    docstrings and string literals that merely *mention* the pragma
    syntax (this package documents it a lot) are not validated as
    pragmas."""
    try:
        readline = io.StringIO(source).readline
        for tok in tokenize.generate_tokens(readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(tok.string)
            if match is None:
                continue
            tokens = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if tokens:
                yield tok.start[0], tokens
    except tokenize.TokenError:
        return


def _check_pragmas(
    modules: Sequence[SourceModule], findings: List[Finding]
) -> None:
    """Unknown rule tokens in allow-pragmas are findings, not no-ops."""
    for module in modules:
        for line, tokens in _pragma_comments(module.source):
            if "pragma-unknown" in tokens:
                continue
            for token in sorted(tokens):
                if token in KNOWN_RULES or token == "*":
                    continue
                findings.append(Finding(
                    rule="pragma-unknown",
                    path=module.display_path,
                    line=line,
                    message=f"allow-pragma names unknown rule "
                            f"{token!r}",
                ))


def run_simlint(
    paths: Sequence[Path],
    config: Optional[SimlintConfig] = None,
) -> List[Finding]:
    """Run every enabled rule over the given files/directories."""
    config = config if config is not None else SimlintConfig()
    modules, findings = _load_modules([Path(p) for p in paths])
    families = set(config.families)
    _check_pragmas(modules, findings)
    if "policy" in families:
        findings.extend(check_policy_contracts(modules))
    if "determinism" in families:
        findings.extend(check_determinism(modules))
    if "hotpath" in families:
        findings.extend(check_hot_paths(modules, config.replay_path))
    if "registry" in families:
        findings.extend(check_registry(modules))
    if "kernels" in families:
        findings.extend(check_kernels(modules))
    if "par" in families:
        findings.extend(check_parsafety(modules))
    return _stable_findings(findings)


def _stable_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic (file, line, rule, message) order, de-duplicated.

    Overlapping scope walks (and two families observing one site) may
    emit the same finding twice; :class:`Finding` is a frozen dataclass,
    so exact duplicates collapse through the set and the total sort
    makes multi-family output byte-stable regardless of family
    execution order — CI diffs never churn on ordering. Findings that
    differ only in message (e.g. ``time.time()`` and
    ``time.perf_counter()`` on one line) all survive.
    """
    return sorted(
        set(findings), key=lambda f: (f.path, f.line, f.rule, f.message)
    )


def _default_target() -> Path:
    """Lint the package this tool ships in when no path is given."""
    return Path(__file__).resolve().parents[1]


def _ckernels_status() -> str:
    """One-line compiled-kernel availability report.

    No lint checks ``kernels.c``: the loader derives the ABI
    (signatures from ``kernels.c``, constants from ``C_DEFINES``), the
    freestanding link refuses external calls and the section check
    refuses mutable state. This line reports whether that build and
    load actually succeed — and if not, why (the recorded compiler,
    linker, section or signature diagnostic), so a broken toolchain or
    an out-of-dialect kernel is never a silent generic-engine fallback.
    """
    from ..sim import ckernels

    if ckernels.available():
        return "ckernels: compiled kernels available"
    reason = ckernels.build_error() or "unknown failure"
    return f"ckernels: compiled kernels UNAVAILABLE ({reason})"


#: Rule-id prefix -> family (longest prefix wins; core rules own none).
_FAMILY_PREFIXES = (
    ("determinism-", "determinism"),
    ("registry-", "registry"),
    ("hotpath-", "hotpath"),
    ("policy-", "policy"),
    ("kernel-", "kernels"),
    ("par-", "par"),
)


def _family_of(rule: str) -> str:
    for prefix, family in _FAMILY_PREFIXES:
        if rule.startswith(prefix):
            return family
    return "core"


def _count_by_family(findings: Sequence[Finding]) -> dict:
    counts: dict = {}
    for finding in findings:
        family = _family_of(finding.rule)
        counts[family] = counts.get(family, 0) + 1
    return counts


def _family_counts(findings: Sequence[Finding]) -> str:
    return ", ".join(
        f"{family}: {count}"
        for family, count in sorted(_count_by_family(findings).items())
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: simulator-specific static analysis "
                    "(policy contracts, registry drift, determinism, "
                    "hot-path hygiene, kernel dispatch, "
                    "worker purity)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--skip", action="append", default=[], choices=RULE_FAMILIES,
        metavar="FAMILY",
        help="disable a rule family (repeatable); families: "
             + ", ".join(RULE_FAMILIES),
    )
    parser.add_argument(
        "--disable", action="append", dest="skip", default=[],
        choices=RULE_FAMILIES, metavar="FAMILY",
        help="alias for --skip",
    )
    parser.add_argument(
        "--family", action="append", default=[], choices=RULE_FAMILIES,
        metavar="FAMILY",
        help="run only the named family (repeatable; overrides --skip)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the all-clear summary line",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable findings on stdout (for CI "
             "annotation tooling); the exit code is unchanged",
    )
    args = parser.parse_args(argv)

    paths = args.paths if args.paths else [_default_target()]
    if args.family:
        families = tuple(
            f for f in RULE_FAMILIES if f in set(args.family)
        )
    else:
        families = tuple(
            f for f in RULE_FAMILIES if f not in set(args.skip)
        )
    findings = run_simlint(paths, SimlintConfig(families=families))

    def status_lines() -> List[str]:
        lines: List[str] = []
        if "par" in families:
            modules, _ = _load_modules([Path(p) for p in paths])
            lines.extend(par_status_lines(modules))
        if "kernels" in families:
            lines.append(_ckernels_status())
        return lines

    if args.json:
        scanned = len(iter_python_files([Path(p) for p in paths]))
        report = {
            "findings": [
                {**f.as_dict(), "family": _family_of(f.rule)}
                for f in findings
            ],
            "counts": {
                family: count
                for family, count in sorted(
                    _count_by_family(findings).items()
                )
            },
            "families": list(families),
            "scanned_files": scanned,
            "status": status_lines(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if findings else 0

    if findings:
        print(format_findings(findings))
        print(
            f"simlint: {len(findings)} finding(s) "
            f"[{_family_counts(findings)}]"
        )
        for line in status_lines():
            print(line)
        return 1
    if not args.quiet:
        scanned = len(iter_python_files([Path(p) for p in paths]))
        print(
            f"simlint: OK ({scanned} files, "
            f"families: {', '.join(families)})"
        )
        for line in status_lines():
            print(line)
    return 0
