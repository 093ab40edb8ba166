"""Worker-purity rules (simlint rule family ``par``).

The sweep fabric (:mod:`repro.sim.parallel`, :mod:`repro.sim.spec`)
fans tasks over ``ProcessPoolExecutor`` workers that share one
content-hash artifact store and, under ``fork``, a snapshot of the
parent's module state. Code reachable from the worker boundary
(:class:`~repro.analysis.purity.CallGraph`) must therefore be pure
apart from the documented per-process caches registered in
:mod:`repro.sim.worker_state`. Five rules enforce that contract:

- ``par-global-mutation`` — worker-reachable code mutating
  module-level or class-level state (``global``, subscript/augmented
  stores, ``append``/``update``/… calls) that is not a registered
  cache. Cross-worker, such mutations silently diverge; cross-task
  within one worker, they leak state between sweep units.
- ``par-shared-array-write`` — in-place numpy mutation of arrays that
  flow from artifact-store loads or memoized
  ``PrivateFilter``/``PreparedRun`` accessors. Those arrays can alias
  ``mmap_mode="r"`` pages or LRU-shared buffers; writing through them
  corrupts a sibling policy's replay. ``.copy()`` is the escape hatch.
- ``par-fork-unsafe`` — state captured at import time of a module that
  hosts worker-reachable code (module-scope ``os.environ`` reads, open
  file handles, RNG construction): correct under ``fork`` by accident,
  silently different under ``spawn``. Also flags ``os.environ``
  mutation inside workers (invisible to every other process).
- ``par-unseeded-rng`` — process-global RNG draws behind the pool
  boundary: per-worker RNG state makes results depend on task
  placement.
- ``par-nonatomic-write`` — writes under the artifact root (paths
  derived from ``.root`` / ``entry_dir``) that bypass the tmp+rename
  protocol; racing workers would observe torn entries. Staging through
  a ``*tmp*``-named path is the sanctioned shape.

Plus one registry-hygiene rule, mirroring ``spec-coverage``:

- ``par-allowlist-stale`` — a registered cache name whose module is
  scanned but no longer defines the binding (the allowlist and the
  code drifted apart).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .astutil import SourceModule, dotted_name, pragma_allows
from .determinism import _random_finding
from .findings import Finding
from .purity import CallGraph, FunctionInfo, module_dotted_name

__all__ = ["check_parsafety", "par_status_lines", "PAR_RULES"]

PAR_RULES = (
    "par-global-mutation",
    "par-shared-array-write",
    "par-fork-unsafe",
    "par-unseeded-rng",
    "par-nonatomic-write",
    "par-allowlist-stale",
)

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse",
    "move_to_end",
}

#: Calls whose result aliases store-backed or cache-shared arrays.
_TAINT_SOURCE_CALLS = {
    "cached_graph", "cached_prepared", "cached_filter",
    "rereference_matrix_for", "get_private_filter", "decode_trace",
}

#: Memoized accessor methods whose products are shared across replays.
_TAINT_ACCESSOR_ATTRS = {
    "as_lists", "compact_next_use", "set_partition_arrays",
    "set_index_array", "set_partition_vertices", "stream_membership",
    "decoded",
}

#: ndarray methods that mutate in place.
_ARRAY_MUTATORS = {
    "sort", "fill", "put", "itemset", "partition", "resize", "byteswap",
}

#: numpy module-level functions whose first argument is written.
_NP_INPLACE_FNS = {"put", "copyto", "place", "putmask"}

#: Path-writing calls checked against the artifact-root taint.
_PATH_WRITERS = {"write_text", "write_bytes"}


def _live_allowlist() -> FrozenSet[str]:
    """The registered cache names, with every registering module loaded.

    Mirrors how ``registry`` and ``spec-coverage`` import the live
    registries: the linter's allowlist is the runtime's, never a copy.
    """
    try:
        from ..policies import registry as _registry  # noqa: F401
        from ..sim import artifacts as _artifacts  # noqa: F401
        from ..sim import ckernels as _ckernels  # noqa: F401
        from ..sim import parallel as _parallel  # noqa: F401
        from ..sim import spec as _spec  # noqa: F401
        from ..sim.worker_state import registered_cache_names
    except Exception:
        return frozenset()
    return registered_cache_names()


# ----------------------------------------------------------------------
# Per-function fact gathering
# ----------------------------------------------------------------------


def _local_names(fn: ast.AST) -> Set[str]:
    """Names bound inside the function (params + any assignment form)."""
    out: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            out.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
    return out


def _call_last_name(call: ast.Call) -> str:
    name = dotted_name(call.func)
    return name.rsplit(".", 1)[-1] if name else ""


def _is_np_load_mmap(call: ast.Call) -> bool:
    name = dotted_name(call.func) or ""
    if name.rsplit(".", 1)[-1] != "load":
        return False
    return any(kw.arg == "mmap_mode" for kw in call.keywords)


def _tainted_expr(expr: ast.expr, tainted: Set[str]) -> bool:
    """Does this expression (possibly) alias a shared array?"""
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, (ast.Subscript, ast.Attribute, ast.Starred)):
        return _tainted_expr(expr.value, tainted)
    if isinstance(expr, ast.IfExp):
        return (
            _tainted_expr(expr.body, tainted)
            or _tainted_expr(expr.orelse, tainted)
        )
    if isinstance(expr, ast.Tuple):
        return any(_tainted_expr(el, tainted) for el in expr.elts)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("copy", "tolist"):
                return False  # the documented escape hatch
            if func.attr in _TAINT_ACCESSOR_ATTRS:
                return True
        if _call_last_name(expr) in _TAINT_SOURCE_CALLS:
            return True
        if _is_np_load_mmap(expr):
            return True
        return False
    return False


def _array_taint(fn: ast.AST) -> Set[str]:
    """Names ever bound to a shared-array-aliasing expression."""
    tainted: Set[str] = set()
    assigns = [
        node for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
    ]
    assigns.sort(key=lambda node: (node.lineno, node.col_offset))
    # Two passes reach chains assigned out of source order.
    for _ in range(2):
        for node in assigns:
            value = node.value
            if value is None or not _tainted_expr(value, tainted):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                elements = (
                    target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Name):
                        tainted.add(element.id)
    return tainted


_ROOT_CALLS = {"entry_dir"}


def _root_path_expr(expr: ast.expr, tainted: Set[str]) -> bool:
    """Does this expression denote a path under the artifact root?"""
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, ast.Attribute):
        if expr.attr == "root":
            return True
        # path-algebra attributes (.parent, .name) keep the taint
        return _root_path_expr(expr.value, tainted)
    if isinstance(expr, ast.Subscript):
        return _root_path_expr(expr.value, tainted)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return (
            _root_path_expr(expr.left, tainted)
            or _root_path_expr(expr.right, tainted)
        )
    if isinstance(expr, ast.Call):
        if _call_last_name(expr) in _ROOT_CALLS:
            return True
        if isinstance(expr.func, ast.Attribute):
            return _root_path_expr(expr.func.value, tainted)
    return False


def _names_in(expr: ast.expr) -> Set[str]:
    return {
        node.id for node in ast.walk(expr) if isinstance(node, ast.Name)
    }


def _staged_via_tmp(expr: ast.expr) -> bool:
    """The sanctioned shape: writes staged through a ``*tmp*`` path."""
    return any("tmp" in name.lower() for name in _names_in(expr))


def _root_path_taint(fn: ast.AST) -> Set[str]:
    """Names bound to artifact-root-derived paths (minus tmp stages)."""
    tainted: Set[str] = set()
    assigns = [
        node for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
    ]
    assigns.sort(key=lambda node: (node.lineno, node.col_offset))
    for _ in range(2):
        for node in assigns:
            value = node.value
            if value is None or not _root_path_expr(value, tainted):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and \
                        "tmp" not in target.id.lower():
                    tainted.add(target.id)
    return tainted


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------


def _is_os_environ(expr: ast.expr) -> bool:
    return dotted_name(expr) in ("os.environ", "environ")


def check_parsafety(
    modules: Sequence[SourceModule],
    allowlist: Optional[Iterable[str]] = None,
) -> List[Finding]:
    findings: List[Finding] = []
    allowed_caches = frozenset(
        allowlist if allowlist is not None else _live_allowlist()
    )
    graph = CallGraph(modules)
    reachable = graph.worker_reachable()

    def emit(module: SourceModule, rule: str, lineno: int,
             message: str) -> None:
        if not pragma_allows(module, rule, lineno):
            findings.append(Finding(
                rule=rule, path=module.display_path, line=lineno,
                message=message,
            ))

    reachable_modules: Dict[str, SourceModule] = {}
    for info in reachable.values():
        reachable_modules.setdefault(
            str(info.module.path), info.module
        )

    for info in reachable.values():
        _check_function(info, graph, allowed_caches, emit)

    for module in reachable_modules.values():
        _check_module_scope(module, emit)

    _check_allowlist(modules, allowed_caches, emit)
    return findings


def _check_function(
    info: FunctionInfo,
    graph: CallGraph,
    allowed_caches: FrozenSet[str],
    emit,
) -> None:
    module = info.module
    scope = graph.scope_of(module)
    fn = info.node
    local = _local_names(fn)
    module_state = scope.module_level_names - set(scope.functions) - \
        set(scope.classes)
    globals_declared: Set[str] = set()

    def cache_dotted(name: str) -> str:
        imported = scope.from_imports.get(name)
        if imported is not None:
            return f"{imported[0]}.{imported[1]}"
        return f"{scope.dotted}.{name}"

    def is_module_state(name: str) -> bool:
        if name in local and name not in globals_declared:
            return False
        return name in module_state or name in scope.from_imports

    def flag_mutation(lineno: int, name: str, what: str) -> None:
        dotted = cache_dotted(name)
        if dotted in allowed_caches:
            return
        emit(
            module, "par-global-mutation", lineno,
            f"worker-reachable {info.qualname}() {what} module-level "
            f"{name!r}; workers must not mutate shared module state — "
            f"register a documented per-process cache in "
            f"repro.sim.worker_state or restructure",
        )

    array_taint = _array_taint(fn)
    path_taint = _root_path_taint(fn)

    for node in ast.walk(fn):
        # --- par-global-mutation -------------------------------------
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
            for name in node.names:
                flag_mutation(node.lineno, name, "declares global")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id in globals_declared:
                    continue  # the Global node already flagged it
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if not isinstance(base, ast.Name) or base is target:
                    # plain `x = ...` rebinding is local unless global
                    if isinstance(target, ast.Name) and isinstance(
                        node, ast.AugAssign
                    ) and is_module_state(target.id):
                        flag_mutation(
                            node.lineno, target.id, "augments"
                        )
                    continue
                if is_module_state(base.id):
                    flag_mutation(
                        node.lineno, base.id, "stores into"
                    )
                elif base.id in scope.classes or any(
                    base.id in s.classes for s in graph.scopes.values()
                ):
                    emit(
                        module, "par-global-mutation", node.lineno,
                        f"worker-reachable {info.qualname}() mutates "
                        f"class-level state on {base.id!r}; class "
                        f"attributes are process-global",
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in _MUTATOR_METHODS:
            base = node.func.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and is_module_state(base.id) \
                    and base.id not in graph.scopes[
                        str(module.path)].module_aliases:
                flag_mutation(
                    node.lineno, base.id,
                    f"calls .{node.func.attr}() on",
                )

        # --- par-shared-array-write ----------------------------------
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _tainted_expr(
                    target.value, array_taint
                ):
                    emit(
                        module, "par-shared-array-write", node.lineno,
                        f"{info.qualname}() writes in place through an "
                        f"array that may alias a shared artifact/cache "
                        f"buffer; take a .copy() before mutating",
                    )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            base_tainted = (
                isinstance(target, ast.Name)
                and target.id in array_taint
            ) or (
                isinstance(target, (ast.Subscript, ast.Attribute))
                and _tainted_expr(target.value, array_taint)
            )
            if base_tainted:
                emit(
                    module, "par-shared-array-write", node.lineno,
                    f"{info.qualname}() augments a shared "
                    f"artifact/cache array in place; take a .copy() "
                    f"before mutating",
                )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _tainted_expr(
                func.value, array_taint
            ):
                if func.attr in _ARRAY_MUTATORS:
                    emit(
                        module, "par-shared-array-write", node.lineno,
                        f"{info.qualname}() calls .{func.attr}() on a "
                        f"shared artifact/cache array; take a .copy() "
                        f"first",
                    )
                elif func.attr == "setflags" and any(
                    kw.arg == "write"
                    and not (
                        isinstance(kw.value, ast.Constant)
                        and not kw.value.value
                    )
                    for kw in node.keywords
                ):
                    emit(
                        module, "par-shared-array-write", node.lineno,
                        f"{info.qualname}() re-enables writes on a "
                        f"shared read-only array; take a .copy() "
                        f"instead",
                    )
            name = dotted_name(func) or ""
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in _NP_INPLACE_FNS
                and node.args
                and _tainted_expr(node.args[0], array_taint)
            ):
                emit(
                    module, "par-shared-array-write", node.lineno,
                    f"{name}() writes its first argument, which may "
                    f"alias a shared artifact/cache array",
                )
            for kw in node.keywords:
                if kw.arg == "out" and _tainted_expr(
                    kw.value, array_taint
                ):
                    emit(
                        module, "par-shared-array-write", node.lineno,
                        f"{info.qualname}() targets out= at a shared "
                        f"artifact/cache array",
                    )

        # --- par-fork-unsafe (environ mutation in workers) -----------
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_os_environ(
                    target.value
                ):
                    emit(
                        module, "par-fork-unsafe", node.lineno,
                        f"{info.qualname}() mutates os.environ inside "
                        f"a worker; the change is invisible to every "
                        f"sibling process",
                    )
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in ("pop", "update", "setdefault", "clear") \
                and _is_os_environ(node.func.value):
            emit(
                module, "par-fork-unsafe", node.lineno,
                f"{info.qualname}() mutates os.environ inside a worker",
            )

        # --- par-unseeded-rng ----------------------------------------
        if isinstance(node, ast.Call):
            message = _random_finding(node)
            if message is not None:
                emit(
                    module, "par-unseeded-rng", node.lineno,
                    f"worker-reachable {info.qualname}(): {message}; "
                    f"per-worker RNG state makes results depend on "
                    f"task placement",
                )

        # --- par-nonatomic-write -------------------------------------
        if isinstance(node, ast.Call):
            _check_path_write(info, node, path_taint, emit)


def _check_path_write(
    info: FunctionInfo, node: ast.Call, path_taint: Set[str], emit
) -> None:
    module = info.module
    func = node.func
    name = dotted_name(func) or ""
    last = name.rsplit(".", 1)[-1]

    def flag(target_expr: ast.expr, how: str) -> None:
        if _staged_via_tmp(target_expr):
            return
        emit(
            module, "par-nonatomic-write", node.lineno,
            f"{info.qualname}() {how} under the artifact root without "
            f"tmp+rename staging; racing workers can observe torn "
            f"entries — stage into a .tmp sibling and os.rename()",
        )

    if last == "open" and node.args and _root_path_expr(
        node.args[0] if not isinstance(func, ast.Attribute)
        else func.value,
        path_taint,
    ):
        mode = ""
        args = node.args
        target: ast.expr
        if isinstance(func, ast.Attribute):  # path.open("w")
            target = func.value
            if args and isinstance(args[0], ast.Constant):
                mode = str(args[0].value)
        else:  # open(path, "w")
            target = args[0]
            if not _root_path_expr(target, path_taint):
                return
            if len(args) > 1 and isinstance(args[1], ast.Constant):
                mode = str(args[1].value)
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = str(kw.value.value)
        if any(flag_char in mode for flag_char in "wax+"):
            flag(target, f"open()s for writing")
    elif isinstance(func, ast.Attribute) and func.attr in _PATH_WRITERS \
            and _root_path_expr(func.value, path_taint):
        flag(func.value, f"calls .{func.attr}()")
    elif last in ("save", "savez", "savez_compressed") and node.args \
            and _root_path_expr(node.args[0], path_taint):
        flag(node.args[0], f"np.{last}()s")


def _module_scope_nodes(tree: ast.Module):
    """Nodes executed at import time (recursion stops at defs)."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
             ast.ClassDef),
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_module_scope(module: SourceModule, emit) -> None:
    """Fork-captured state in modules hosting worker-reachable code."""
    for node in _module_scope_nodes(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func) or ""
        last = name.rsplit(".", 1)[-1]
        lineno = node.lineno
        if _is_os_environ(getattr(node.func, "value", None)) or \
                name in ("os.getenv", "getenv"):
            emit(
                module, "par-fork-unsafe", lineno,
                "module-scope os.environ read is captured at import "
                "time: stale under fork, silently different under "
                "spawn — read it inside the function that needs it",
            )
        elif isinstance(node.func, ast.Subscript) and _is_os_environ(
            node.func.value
        ):
            emit(
                module, "par-fork-unsafe", lineno,
                "module-scope os.environ read is captured at import "
                "time",
            )
        elif last == "open" and not isinstance(node.func, ast.Attribute):
            emit(
                module, "par-fork-unsafe", lineno,
                "module-scope open file handle is shared (offset and "
                "all) with every forked worker — open inside the "
                "worker-reachable function instead",
            )
        elif name in ("random.Random", "random.seed") or (
            name.endswith("random.default_rng")
        ):
            emit(
                module, "par-fork-unsafe", lineno,
                "module-scope RNG is cloned into every forked worker — "
                "identical streams where independence is assumed; "
                "construct it per task with an explicit seed",
            )
    # environ subscript *reads* at module scope
    for node in _module_scope_nodes(module.tree):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ) and _is_os_environ(node.value):
            emit(
                module, "par-fork-unsafe", node.lineno,
                "module-scope os.environ read is captured at import "
                "time: stale under fork, silently different under "
                "spawn",
            )


def _check_allowlist(
    modules: Sequence[SourceModule],
    allowed_caches: FrozenSet[str],
    emit,
) -> None:
    """Registered cache names must still resolve to a module binding."""
    by_dotted: Dict[str, SourceModule] = {}
    for module in modules:
        by_dotted.setdefault(module_dotted_name(module.path), module)
    for cache_name in sorted(allowed_caches):
        module_part, _, attr = cache_name.rpartition(".")
        module = by_dotted.get(module_part)
        if module is None:
            continue  # owning module not scanned this run
        bindings = {
            target.id
            for stmt in module.tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if isinstance(target, ast.Name)
        }
        if attr not in bindings:
            emit(
                module, "par-allowlist-stale", 1,
                f"worker-state registry names {cache_name!r} but "
                f"{module_part} defines no module-level {attr!r}; "
                f"remove or update the registration",
            )


# ----------------------------------------------------------------------
# Status reporting (the runner's entry-point line)
# ----------------------------------------------------------------------


def par_status_lines(modules: Sequence[SourceModule]) -> List[str]:
    """Human-readable summary of what the ``par`` family scanned."""
    graph = CallGraph(modules)
    entries = graph.entry_points()
    reachable = graph.worker_reachable()
    if not entries:
        return ["par: no worker-boundary entry points in scanned files"]
    described = ", ".join(entry.describe() for entry in entries)
    return [
        f"par: {len(entries)} worker entry point(s): {described}",
        f"par: {len(reachable)} worker-reachable function(s), "
        f"{len(_live_allowlist())} registered cache(s)",
    ]
