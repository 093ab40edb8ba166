"""Hot-path hygiene (simlint rule family ``hotpath``).

The replay engine (PR 1) pays decode and private-level filtering once so
that the per-policy LLC loop touches only plain Python lists. These rules
keep the regressions the refactor removed from creeping back into the
functions on that path:

- ``hotpath-tolist`` — ``.tolist()`` inside a replay-path function: the
  decode phase (:func:`repro.memory.trace.decode_trace`) already owns
  array-to-list conversion; per-replay copies undo the sharing.
- ``hotpath-scalar-box`` — per-element ``int()``/``float()``/``bool()``
  calls inside a loop: boxing numpy scalars per access was the single
  biggest pre-PR-1 cost.
- ``hotpath-append`` — ``list.append`` inside a loop: per-access list
  growth belongs in the vectorized decode/filter phases.

Which functions count as replay-path is configuration
(:data:`DEFAULT_REPLAY_PATH`): module-level functions match by name,
methods by ``Class.method``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Tuple

from .astutil import SourceModule, dotted_name, pragma_allows
from .findings import Finding

__all__ = [
    "DEFAULT_REPLAY_PATH",
    "check_hot_paths",
]

#: The per-access functions of the replay fast path. ``Class.method``
#: for methods, bare names for module-level functions.
DEFAULT_REPLAY_PATH: FrozenSet[str] = frozenset({
    "SetAssociativeCache.access",
    "SetAssociativeCache.access_at",
    "SetAssociativeCache._fill",
    "SetAssociativeCache.install",
    "CacheHierarchy.access_line",
    "CacheHierarchy.access",
    "MultiCoreHierarchy.access",
    "BankedLLC.access",
    "ReplayEngine.run",
    "replay",
    "replay_with_prefetcher",
    "replay_multicore",
})

_BOXING_CALLS = {"int", "float", "bool"}


def _replay_functions(
    tree: ast.Module, replay_path: FrozenSet[str]
) -> List[Tuple[str, ast.FunctionDef]]:
    """(qualname, node) for every configured function in the module."""
    out: List[Tuple[str, ast.FunctionDef]] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in replay_path:
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                qualname = f"{node.name}.{stmt.name}"
                if qualname in replay_path:
                    out.append((qualname, stmt))
    return out


def scan_replay_function(
    module: SourceModule,
    qualname: str,
    func: ast.FunctionDef,
    findings: List[Finding],
) -> None:
    """Emit hot-path findings for one function."""
    def emit(rule: str, lineno: int, message: str) -> None:
        if not pragma_allows(module, rule, lineno):
            findings.append(Finding(
                rule=rule, path=module.display_path, line=lineno,
                message=message,
            ))

    def walk(node: ast.AST, loop_depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are their own (cold) scope
            child_depth = loop_depth
            if isinstance(child, (ast.For, ast.While)):
                child_depth += 1
            if isinstance(child, ast.Call):
                name = dotted_name(child.func)
                if isinstance(child.func, ast.Attribute):
                    if child.func.attr == "tolist":
                        emit(
                            "hotpath-tolist", child.lineno,
                            f"{qualname} calls .tolist(); the decoded "
                            "trace already provides shared lists",
                        )
                    elif child.func.attr == "append" and loop_depth > 0:
                        emit(
                            "hotpath-append", child.lineno,
                            f"{qualname} appends per iteration inside its "
                            "replay loop; build arrays in the decode/"
                            "filter phase instead",
                        )
                elif (
                    name in _BOXING_CALLS and loop_depth > 0
                ):
                    emit(
                        "hotpath-scalar-box", child.lineno,
                        f"{qualname} boxes a scalar with {name}() inside "
                        "its replay loop; convert once during decode",
                    )
            walk(child, child_depth)

    walk(func, 0)


def check_hot_paths(
    modules: List[SourceModule],
    replay_path: FrozenSet[str] = DEFAULT_REPLAY_PATH,
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for qualname, func in _replay_functions(module.tree, replay_path):
            scan_replay_function(module, qualname, func, findings)
    return findings
