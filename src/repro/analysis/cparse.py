"""Minimal C fact extractor for the ``abi`` hygiene rules.

``kernels.c`` is deliberately trivial C — header-free functions over
``i64``/``u8``/``double`` scalars and pointers, no structs, no function
pointers — so a dependency-free tokenizer covers it completely. This
module parses that dialect into the facts the hygiene rule needs
(defined functions and macros, call sites, file-scope objects,
``for``-loop bounds, includes), without ever invoking a compiler: the
``abi`` family must run on machines with no toolchain at all.

Anything outside the dialect (an unrecognized character or file-scope
construct) is reported as a parse error rather than guessed at, so
extending ``kernels.c`` beyond what the checker understands is itself a
lint finding (``abi-parse``), never a silent hole in coverage.

Suppression mirrors the Python side: a C comment containing
``simlint: allow[rule]`` applies to the lines it spans, and a comment
standing alone on its line(s) covers the following line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Sequence, Tuple

__all__ = [
    "CFunction",
    "CDefine",
    "CSource",
    "parse_c_file",
    "parse_c_source",
]

#: Base-type spellings of the dialect (never object or function names).
_TYPE_NAMES = frozenset(
    {"i64", "int64_t", "u8", "uint8_t", "double", "void"}
)

#: Tokens that may appear in a cast or declaration but are not names.
_QUALIFIERS = frozenset({"const", "static", "signed", "unsigned"})

_KEYWORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "sizeof", "goto", "typedef",
    "struct", "union", "enum", "static", "const",
})

_PRAGMA = re.compile(r"simlint:\s*allow\[([^\]]*)\]")

_TOKEN = re.compile(
    r"(?P<comment>/\*.*?\*/|//[^\n]*)"
    r"|(?P<directive>\#(?:[^\n\\]+|\\\n|\\)*)"
    r"|(?P<num>0[xX][0-9a-fA-F]+[uUlL]*|\d+\.\d+|\d+[uUlL]*)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<str>\"(?:[^\"\\]|\\.)*\"|'(?:[^'\\]|\\.)*')"
    r"|(?P<punct><<|>>|&&|\|\||[<>!=+\-*/%&|^]=|\+\+|--|->"
    r"|[()\[\]{},;:?~<>=+\-*/%&|^.!])"
    r"|(?P<ws>\s+)",
    re.DOTALL,
)

_DEFINE = re.compile(
    r"#\s*define\s+(?P<name>[A-Za-z_]\w*)(?P<fnlike>\()?", re.ASCII
)

_INCLUDE = re.compile(r"#\s*include\s*[<\"]([^>\"]+)[>\"]")


@dataclass(frozen=True)
class CFunction:
    """One file-scope function definition (or prototype)."""

    name: str
    line: int


@dataclass(frozen=True)
class CDefine:
    """One ``#define`` (object-like or function-like)."""

    name: str
    line: int
    function_like: bool


@dataclass
class CSource:
    """Everything the ``abi`` hygiene rules need to know about one C file."""

    path: str
    functions: List[CFunction] = field(default_factory=list)
    defines: List[CDefine] = field(default_factory=list)
    includes: List[Tuple[str, int]] = field(default_factory=list)
    #: (callee, line) for every call expression inside a body or macro.
    calls: List[Tuple[str, int]] = field(default_factory=list)
    #: (name, line, is_const) for every file-scope object definition.
    file_globals: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: (line, literal) for every numeric literal in a for-loop condition.
    literal_loop_bounds: List[Tuple[int, str]] = field(default_factory=list)
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: line -> allow-pragma tokens active on that line.
    allowed: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: one (line, tokens) entry per pragma *comment* (no next-line
    #: propagation) — what pragma validation iterates.
    pragma_sites: List[Tuple[int, FrozenSet[str]]] = field(
        default_factory=list
    )

    def allows(self, line: int, rule: str) -> bool:
        """Same semantics as :func:`repro.analysis.astutil.pragma_allows`:
        exact rule id, family prefix, or ``*``."""
        tokens = self.allowed.get(line)
        if not tokens:
            return False
        for token in tokens:
            if token == "*" or token == rule:
                return True
            if rule.startswith(token + "-"):
                return True
        return False


class _Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Tok({self.kind}, {self.text!r}, {self.line})"


def _scan(text: str, first_line: int = 1) -> Tuple[
    List[_Tok], List[_Tok], List[_Tok], List[Tuple[int, str]]
]:
    """Split raw C into (code tokens, comments, directives, errors)."""
    tokens: List[_Tok] = []
    comments: List[_Tok] = []
    directives: List[_Tok] = []
    errors: List[Tuple[int, str]] = []
    line = first_line
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            errors.append((line, f"unrecognized character {text[pos]!r}"))
            pos += 1
            continue
        kind = match.lastgroup or "ws"
        value = match.group()
        if kind == "comment":
            comments.append(_Tok(kind, value, line))
        elif kind == "directive":
            directives.append(_Tok(kind, value, line))
        elif kind != "ws":
            tokens.append(_Tok(kind, value, line))
        line += value.count("\n")
        pos = match.end()
    return tokens, comments, directives, errors


def _parse_directives(
    directives: Sequence[_Tok], out: CSource
) -> List[_Tok]:
    """Parse includes/defines; returns comments embedded in directive
    lines (the directive token runs to end-of-line, so a trailing
    ``/* simlint: allow[...] */`` on a ``#define`` lands here, not in
    the top-level comment stream)."""
    embedded: List[_Tok] = []
    for tok in directives:
        include = _INCLUDE.match(tok.text)
        if include:
            out.includes.append((include.group(1), tok.line))
            continue
        define = _DEFINE.match(tok.text)
        if define is None:
            continue
        function_like = bool(define.group("fnlike"))
        out.defines.append(
            CDefine(define.group("name"), tok.line, function_like)
        )
        body = tok.text[define.end():].replace("\\\n", " \n")
        tokens, comments, _, errors = _scan(body, tok.line)
        embedded.extend(comments)
        out.errors.extend(errors)
        if function_like:
            # The replacement text still gets the body fact collectors:
            # a banned call or literal loop bound hiding in a macro is
            # the same hygiene violation as one in a function body.
            _collect_body_facts(tokens, out)
    return embedded


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

def _collect_pragmas(text: str, comments: Sequence[_Tok], out: CSource) -> None:
    lines = text.split("\n")

    def _is_blank(line_no: int, before: str, after: str) -> bool:
        raw = lines[line_no - 1] if 0 < line_no <= len(lines) else ""
        head = raw.split(before, 1)[0] if before in raw else ""
        tail = raw.rsplit(after, 1)[-1] if after in raw else ""
        return not head.strip() and not tail.strip()

    for comment in comments:
        match = _PRAGMA.search(comment.text)
        if not match:
            continue
        tokens = frozenset(
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        )
        if not tokens:
            continue
        start = comment.line
        end = start + comment.text.count("\n")
        covered = set(range(start, end + 1))
        first = comment.text.split("\n", 1)[0]
        last = comment.text.rsplit("\n", 1)[-1]
        if _is_blank(start, first, "*/") and _is_blank(end, "/*", last):
            # Comment stands alone: it covers the following line.
            covered.add(end + 1)
        out.pragma_sites.append((start, tokens))
        for line in sorted(covered):
            merged = out.allowed.get(line, frozenset()) | tokens
            out.allowed[line] = merged


# ----------------------------------------------------------------------
# Declarations and body facts
# ----------------------------------------------------------------------

def _parse_function(header: Sequence[_Tok], out: CSource) -> None:
    open_idx = next(
        i for i, tok in enumerate(header) if tok.text == "("
    )
    if open_idx == 0 or header[open_idx - 1].kind != "id":
        out.errors.append(
            (header[0].line, "unrecognized file-scope declaration")
        )
        return
    name_tok = header[open_idx - 1]
    out.functions.append(CFunction(name=name_tok.text, line=name_tok.line))


def _handle_statement(stmt: Sequence[_Tok], out: CSource) -> None:
    """A top-level statement terminated by ``;`` (not a function body)."""
    if not stmt:
        return
    texts = [t.text for t in stmt]
    if texts[0] in ("typedef", "struct", "union", "enum"):
        return
    if "(" in texts:
        _parse_function(stmt, out)
        return
    # File-scope object definition.
    name = ""
    for tok in stmt:
        if tok.kind == "id" and tok.text not in _TYPE_NAMES \
                and tok.text not in _QUALIFIERS:
            name = tok.text
            break
    out.file_globals.append((name, stmt[0].line, "const" in texts))


def _collect_body_facts(tokens: Sequence[_Tok], out: CSource) -> None:
    """Call sites and for-loop bound literals, at any nesting depth."""
    for i, tok in enumerate(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if (
            tok.kind == "id"
            and tok.text not in _KEYWORDS
            and tok.text not in _TYPE_NAMES
            and nxt is not None
            and nxt.text == "("
        ):
            prev = tokens[i - 1] if i > 0 else None
            # `(i64) name(...)`-style casts never occur, but a previous
            # type token would mean a local function-pointer decl; the
            # dialect has none, so any id(… is a call or macro use.
            if prev is None or prev.text != "#":
                out.calls.append((tok.text, tok.line))
        if tok.text == "for" and nxt is not None and nxt.text == "(":
            depth = 0
            semis = 0
            for inner in tokens[i + 1:]:
                if inner.text == "(":
                    depth += 1
                elif inner.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif inner.text == ";" and depth == 1:
                    semis += 1
                elif semis == 1 and inner.kind == "num":
                    # Numeric literal in the loop *condition*.
                    out.literal_loop_bounds.append((inner.line, inner.text))


def _parse_top_level(tokens: Sequence[_Tok], out: CSource) -> None:
    stmt: List[_Tok] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.text == ";":
            _handle_statement(stmt, out)
            stmt = []
            i += 1
        elif tok.text == "{":
            if any(t.text == "(" for t in stmt):
                _parse_function(stmt, out)
                depth = 1
                i += 1
                body_start = i
                while i < n and depth:
                    if tokens[i].text == "{":
                        depth += 1
                    elif tokens[i].text == "}":
                        depth -= 1
                    i += 1
                _collect_body_facts(tokens[body_start:i - 1], out)
                stmt = []
            else:
                # Brace initializer: swallow it into the statement.
                depth = 1
                stmt.append(tok)
                i += 1
                while i < n and depth:
                    if tokens[i].text == "{":
                        depth += 1
                    elif tokens[i].text == "}":
                        depth -= 1
                    stmt.append(tokens[i])
                    i += 1
        else:
            stmt.append(tok)
            i += 1
    if stmt:
        out.errors.append(
            (stmt[0].line, "unterminated file-scope declaration")
        )


def parse_c_source(text: str, path: str = "<string>") -> CSource:
    """Parse C source text into the :class:`CSource` IR."""
    out = CSource(path=path)
    tokens, comments, directives, errors = _scan(text)
    out.errors.extend(errors)
    embedded = _parse_directives(directives, out)
    _collect_pragmas(text, comments + embedded, out)
    _parse_top_level(tokens, out)
    return out


def parse_c_file(path: Path) -> CSource:
    """Parse a C file; I/O errors become ``abi-parse``-able errors."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        out = CSource(path=str(path))
        out.errors.append((1, f"cannot read {path.name}: {exc}"))
        return out
    return parse_c_source(text, str(path))
