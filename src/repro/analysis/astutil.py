"""Shared AST plumbing for the simlint rules.

Each scanned file is parsed once into a :class:`SourceModule` (AST plus
the per-line suppression pragmas); the rules walk the shared trees. The
class index resolves inheritance *by name across the scanned file set* —
simlint is a project-local linter, so policies subclassing each other
across ``src/repro/policies/`` modules resolve without imports.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = [
    "SourceModule",
    "ClassInfo",
    "ClassIndex",
    "load_module",
    "iter_python_files",
    "dotted_name",
    "pragma_allows",
]

#: A ``simlint: allow`` comment (rule names in square brackets,
#: comma-separated) suppresses the named rules on its line — or, when
#: the pragma stands alone, on the following line.
_PRAGMA = re.compile(r"#\s*simlint:\s*allow\[([^\]]*)\]")
_PRAGMA_ONLY = re.compile(r"^\s*#\s*simlint:\s*allow\[[^\]]*\]\s*$")


@dataclass
class SourceModule:
    """One parsed source file plus its suppression pragmas."""

    path: Path
    source: str
    tree: ast.Module
    #: line number -> rule tokens allowed on that line ("*" allows all).
    allowed: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        return str(self.path)


def load_module(path: Path) -> SourceModule:
    """Parse one file; raises SyntaxError on unparsable sources."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        tokens = {
            token.strip() for token in match.group(1).split(",")
            if token.strip()
        }
        if not tokens:
            continue
        allowed.setdefault(lineno, set()).update(tokens)
        if _PRAGMA_ONLY.match(line):
            # A standalone pragma comment covers the next line too.
            allowed.setdefault(lineno + 1, set()).update(tokens)
    return SourceModule(path=path, source=source, tree=tree, allowed=allowed)


def pragma_allows(module: SourceModule, rule: str, lineno: int) -> bool:
    """Is ``rule`` suppressed at ``lineno``?

    A token matches the exact rule id, a rule-family prefix
    (``determinism`` covers ``determinism-time``), or ``*`` for all.
    """
    tokens = module.allowed.get(lineno)
    if not tokens:
        return False
    for token in tokens:
        if token == "*" or token == rule or rule.startswith(token + "-"):
            return True
    return False


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under the given files/directories, de-duplicated
    and sorted (deterministic report order)."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            seen.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Class indexing (policy-contract rule support)
# ----------------------------------------------------------------------


@dataclass
class ClassInfo:
    """AST facts about one class definition."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: List[str]
    methods: Dict[str, ast.FunctionDef]
    #: class-body ``name = value`` assignments.
    class_assigns: Dict[str, ast.expr]

    @property
    def lineno(self) -> int:
        return self.node.lineno


class ClassIndex:
    """All classes across the scanned modules, inheritance by name."""

    def __init__(self, modules: Iterable[SourceModule]) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = []
                for base in node.bases:
                    base_name = dotted_name(base)
                    if base_name is not None:
                        bases.append(base_name.rsplit(".", 1)[-1])
                methods: Dict[str, ast.FunctionDef] = {}
                class_assigns: Dict[str, ast.expr] = {}
                for stmt in node.body:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and isinstance(stmt, ast.FunctionDef):
                        methods[stmt.name] = stmt
                    elif isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                class_assigns[target.id] = stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        if (
                            isinstance(stmt.target, ast.Name)
                            and stmt.value is not None
                        ):
                            class_assigns[stmt.target.id] = stmt.value
                # First definition wins; duplicate class names across
                # modules are rare and the contract rule reports on the
                # one it indexed.
                self.classes.setdefault(
                    node.name,
                    ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        bases=bases,
                        methods=methods,
                        class_assigns=class_assigns,
                    ),
                )

    def ancestors(self, name: str) -> List[ClassInfo]:
        """Known ancestors of ``name`` in MRO-ish order (no duplicates)."""
        out: List[ClassInfo] = []
        seen: Set[str] = {name}
        queue = list(self.classes[name].bases) if name in self.classes else []
        while queue:
            base = queue.pop(0)
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.bases)
        return out

    def ancestor_names(self, name: str) -> Set[str]:
        """Every base name reachable from ``name``, including bases whose
        definitions were not scanned (e.g. the imported root class)."""
        seen: Set[str] = set()
        queue = list(self.classes[name].bases) if name in self.classes else []
        while queue:
            base = queue.pop(0)
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is not None:
                queue.extend(info.bases)
        return seen

    def is_subclass_of(self, name: str, root: str) -> bool:
        return root in self.ancestor_names(name)
