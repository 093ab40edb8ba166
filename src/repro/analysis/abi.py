"""``abi`` rule family: the C dialect of the compiled replay kernels.

``kernels.c`` needs no cross-language drift checks: its constants are
passed in as ``-D`` flags from :data:`repro.sim.constants.C_DEFINES`,
and :mod:`repro.sim.ckernels` derives every kernel's ctypes signature
from the C definitions when it loads them. What a compiler does not
check is the determinism discipline of the dialect, so the rules here
cover that:

- ``abi-parse`` — ``kernels.c`` failed the dialect parser
  (:mod:`repro.analysis.cparse`); everything the parser cannot model is
  reported rather than skipped.
- ``abi-c-hygiene`` — the C dialect contract: no heap allocation or
  other external calls, no mutable file-scope state, no numeric-literal
  loop bounds, no includes beyond ``stdint.h``, and no object-like
  ``#define`` (constants arrive as ``-D`` flags, so a local copy could
  only shadow the registry).

The rules run without a compiler. Suppression: a C comment containing
``simlint: allow[...]`` (the Python pragma syntax); pragmas naming
unknown rules are flagged.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Set

from .astutil import SourceModule, sim_module
from .cparse import CSource, parse_c_file
from .findings import Finding

__all__ = ["check_abi", "ABI_RULES"]

ABI_RULES = ("abi-parse", "abi-c-hygiene")

#: The only headers the kernel dialect may include.
_ALLOWED_INCLUDES = frozenset({"stdint.h"})

#: Heap/libc calls called out by name (clearer message than the generic
#: external-call wording).
_BANNED_CALLS = frozenset({"malloc", "calloc", "realloc", "free"})


def _check_parse(csource: CSource, findings: List[Finding]) -> None:
    for line, message in csource.errors:
        if csource.allows(line, "abi-parse"):
            continue
        findings.append(Finding(
            rule="abi-parse",
            path=csource.path,
            line=line,
            message=message,
        ))


def _check_hygiene(csource: CSource, findings: List[Finding]) -> None:
    rule = "abi-c-hygiene"
    defined = {fn.name for fn in csource.functions}
    defined.update(d.name for d in csource.defines if d.function_like)
    for callee, line in csource.calls:
        if callee in defined or csource.allows(line, rule):
            continue
        if callee in _BANNED_CALLS:
            message = f"heap allocation is banned in the kernel " \
                      f"dialect: {callee}()"
        else:
            message = f"call to external function {callee}() — kernels " \
                      f"may only call functions/macros defined in this " \
                      f"file"
        findings.append(Finding(
            rule=rule, path=csource.path, line=line, message=message,
        ))
    for name, line, is_const in csource.file_globals:
        if is_const or csource.allows(line, rule):
            continue
        findings.append(Finding(
            rule=rule, path=csource.path, line=line,
            message=f"mutable file-scope object {name!r} — kernels "
                    f"must be stateless between calls",
        ))
    for line, literal in csource.literal_loop_bounds:
        if csource.allows(line, rule):
            continue
        findings.append(Finding(
            rule=rule, path=csource.path, line=line,
            message=f"for-loop condition uses numeric literal "
                    f"{literal} — every loop bound must derive from a "
                    f"parameter",
        ))
    for include, line in csource.includes:
        if include in _ALLOWED_INCLUDES or csource.allows(line, rule):
            continue
        findings.append(Finding(
            rule=rule, path=csource.path, line=line,
            message=f"#include <{include}> is outside the kernel "
                    f"dialect (only stdint.h is allowed)",
        ))
    for define in csource.defines:
        if define.function_like or csource.allows(define.line, rule):
            continue
        findings.append(Finding(
            rule=rule, path=csource.path, line=define.line,
            message=f"#define {define.name} — kernel constants come "
                    f"from constants.C_DEFINES as -D flags, so kernels.c "
                    f"defines only macros",
        ))


def check_c_pragmas(
    csource: CSource, known: Set[str], findings: List[Finding]
) -> None:
    """Flag unknown rule tokens in C allow-pragmas (mirrors the
    runner's Python-side check)."""
    for line, tokens in csource.pragma_sites:
        for token in sorted(tokens):
            if token in known or token == "*":
                continue
            if "pragma-unknown" in tokens:
                continue
            findings.append(Finding(
                rule="pragma-unknown",
                path=csource.path,
                line=line,
                message=f"allow-pragma names unknown rule {token!r}",
            ))


def check_abi(
    modules: Sequence[SourceModule],
    known_rules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run the ``abi`` family over the scanned modules.

    The rules engage only when ``sim/ckernels.py`` (the loader that
    compiles ``kernels.c``) is among the scanned files; ``kernels.c``
    is read from disk next to it.
    """
    findings: List[Finding] = []
    ckernels = sim_module(modules, "ckernels.py")
    if ckernels is None:
        return findings
    csource = parse_c_file(Path(ckernels.path).with_name("kernels.c"))
    _check_parse(csource, findings)
    _check_hygiene(csource, findings)
    if known_rules is not None:
        check_c_pragmas(csource, known_rules, findings)
    return findings
