"""``dtype`` rule family: numpy width/dtype contracts, flow-checked.

P-OPT's correctness is a bit-width story — 8/16-bit Rereference Matrix
entries, epoch counters quantized to ``2^entry_bits``, ``int64`` next-use
sentinels, ``int32`` CSR neighbor IDs — and every compiled-kernel call
marshals numpy buffers into C. The kernel boundary checks itself at
runtime (:mod:`repro.sim.ckernels` types every pointer parameter as a
C-contiguous ``ndpointer``, so a wrong-width array raises at the call);
these rules cover the widths *inside* the Python pipeline, using the
:mod:`repro.analysis.dtypeflow` inference engine:

- ``dtype-overflow`` — a store of a provably-wider unguarded integer
  into a narrower integer array (or into a field bound by
  :data:`repro.sim.constants.WIDTH_CONTRACTS`), and unguarded
  accumulation (``+=``/``*=``/``<<=``) into sub-32-bit arrays. Clamped
  values (``np.minimum``/``np.clip``/``& mask``/``%``) pass.
- ``dtype-implicit-upcast`` — arithmetic mixing integer arrays of
  different widths inside hot-path/worker-reachable functions: numpy
  silently materializes the promotion, doubling large-array memory in
  exactly the functions that touch whole-graph arrays.
- ``dtype-narrowing-cast`` — ``.astype(...)`` to a narrower same-kind
  dtype when no range guard was seen on the value's path.
- ``dtype-unspecified`` — array creation in replay/prepare code relying
  on the *platform-default* integer (``np.arange`` without ``dtype``,
  ``np.full`` with an integer fill, bare ``np.bincount``): 64-bit on
  the measurement hosts, 32-bit elsewhere, so goldens silently fork.

Scope: ``dtype-overflow`` and ``dtype-narrowing-cast`` apply everywhere
(they fire only on *proved* dtypes); the memory/portability rules
(``dtype-implicit-upcast``, ``dtype-unspecified``) are confined to
replay/prepare code — functions that are worker-reachable (via the
``par`` family's call graph), on the configured replay path, or in the
``sim``/``popt``/``graph`` subpackages.

Suppression is the standard ``# simlint: allow[dtype-...]`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .astutil import SourceModule, dotted_name, pragma_allows, sim_module
from .dtypeflow import (
    DtypeFlow,
    Value,
    dtype_width,
    is_float_dtype,
    is_integer_dtype,
    parse_dtype_node,
)
from .findings import Finding
from .hotpath import DEFAULT_REPLAY_PATH
from .purity import CallGraph, FunctionInfo

__all__ = ["DTYPE_RULES", "check_dtypes", "dtype_status_lines"]

DTYPE_RULES = (
    "dtype-implicit-upcast",
    "dtype-narrowing-cast",
    "dtype-overflow",
    "dtype-unspecified",
)

#: Subpackages whose modules count as replay/prepare scope even without
#: worker reachability (the simulator core).
_PREPARE_DIRS = frozenset({"sim", "popt", "graph"})

#: Accumulating in-place ops that can saturate a narrow counter.
_ACCUMULATING_OPS = (ast.Add, ast.Sub, ast.Mult, ast.LShift, ast.Pow)


def _load_contracts(
    modules: Sequence[SourceModule],
) -> Dict[str, Dict[str, object]]:
    """Read the ``sim/constants.py:WIDTH_CONTRACTS`` literal (no import)."""
    constants = sim_module(modules, "constants.py")
    if constants is None:
        return {}
    contracts: object = None
    for node in constants.tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) \
                or node.value is None:
            continue
        targets: List[ast.expr] = node.targets \
            if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Name) and t.id == "WIDTH_CONTRACTS"
               for t in targets):
            try:
                contracts = ast.literal_eval(node.value)
            except (TypeError, ValueError):
                return {}
    if not isinstance(contracts, dict):
        return {}
    return {
        str(name): spec
        for name, spec in contracts.items()
        if isinstance(spec, dict)
    }


def _contract_bindings(
    contracts: Dict[str, Dict[str, object]],
) -> Dict[str, Tuple[str, str]]:
    """attribute name -> (contract name, declared dtype) for every
    ``binds`` entry (``"RereferenceMatrix.entries"`` binds ``entries``)."""
    bindings: Dict[str, Tuple[str, str]] = {}
    for name, spec in contracts.items():
        binds = spec.get("binds")
        dtypes = spec.get("dtype")
        if not isinstance(binds, tuple) or not isinstance(dtypes, tuple) \
                or not dtypes:
            continue
        for bound in binds:
            if isinstance(bound, str) and "." in bound:
                attr = bound.rsplit(".", 1)[-1]
                bindings[attr] = (name, str(dtypes[0]))
    return bindings


def _module_prepare_scope(module: SourceModule) -> bool:
    parts = module.path.parts
    if "repro" not in parts:
        return False
    return bool(_PREPARE_DIRS.intersection(
        parts[parts.index("repro"):-1]
    ))


def _iter_functions(
    module: SourceModule,
) -> List[Tuple[str, Optional[str], ast.FunctionDef]]:
    """(qualname, class name, node) for every function/method."""
    out: List[Tuple[str, Optional[str], ast.FunctionDef]] = []
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, None, node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out.append((f"{node.name}.{item.name}", node.name,
                                item))
    return out


def _statement_expressions(stmt: ast.stmt) -> List[ast.AST]:
    """Expression roots belonging to *this* statement alone (bodies of
    nested compound statements get their own flow callback)."""
    if isinstance(stmt, ast.Assign):
        return [*stmt.targets, stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target] + ([stmt.value] if stmt.value else [])
    if isinstance(stmt, (ast.Expr, ast.Return)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg else [])
    if isinstance(stmt, ast.Raise):
        return [n for n in (stmt.exc, stmt.cause) if n is not None]
    if isinstance(stmt, (ast.Delete,)):
        return list(stmt.targets)
    return []


def _walk_expressions(stmt: ast.stmt):
    for root in _statement_expressions(stmt):
        yield from ast.walk(root)


def _creation_trap(
    call: ast.Call, parents: Dict[int, ast.AST]
) -> Optional[str]:
    """Why this creation call yields a platform-default integer, or
    None when it is explicitly typed / not integer-valued."""
    name = dotted_name(call.func)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail == "arange":
        if any(kw.arg == "dtype" for kw in call.keywords) \
                or len(call.args) >= 4:
            return None
        if any(
            isinstance(a, ast.Constant) and isinstance(a.value, float)
            for a in call.args
        ):
            return None
        return "np.arange without dtype yields the platform integer"
    if tail == "full":
        if any(kw.arg == "dtype" for kw in call.keywords) \
                or len(call.args) >= 3:
            return None
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant) \
                and isinstance(call.args[1].value, int) \
                and not isinstance(call.args[1].value, bool):
            return "np.full with an integer fill and no dtype yields " \
                   "the platform integer"
        return None
    if tail == "bincount":
        if any(kw.arg == "weights" for kw in call.keywords) \
                or len(call.args) >= 2:
            return None  # weighted bincount is float64 on every platform
        parent = parents.get(id(call))
        if isinstance(parent, ast.Attribute) and parent.attr == "astype":
            return None  # immediately re-typed: the idiomatic guard
        return "np.bincount yields the platform integer; cast the " \
               "result (e.g. .astype(np.int64))"
    return None


class _DtypeChecker:
    """One pass over every function, all five rules in one flow walk."""

    def __init__(
        self,
        modules: Sequence[SourceModule],
        replay_path: FrozenSet[str],
        graph: Optional[CallGraph] = None,
    ) -> None:
        self.modules = list(modules)
        self.graph = graph if graph is not None else CallGraph(modules)
        self.flow = DtypeFlow(modules, self.graph)
        self.replay_path = replay_path
        self.reachable: Set[Tuple[str, str]] = set(
            self.graph.worker_reachable()
        )
        self.contracts = _load_contracts(modules)
        self.bindings = _contract_bindings(self.contracts)
        self.findings: List[Finding] = []
        self._parents: Dict[int, ast.AST] = {}

    # -- plumbing ------------------------------------------------------

    def run(self) -> List[Finding]:
        for module in self.modules:
            self._parents = {
                id(child): parent
                for parent in ast.walk(module.tree)
                for child in ast.iter_child_nodes(parent)
            }
            for qualname, class_name, func in _iter_functions(module):
                self._check_function(module, qualname, class_name, func)
        return self.findings

    def _emit(
        self, module: SourceModule, rule: str, lineno: int, message: str
    ) -> None:
        if not pragma_allows(module, rule, lineno):
            self.findings.append(Finding(
                rule=rule, path=module.display_path, line=lineno,
                message=message,
            ))

    def _hot(
        self, module: SourceModule, qualname: str,
        func: ast.FunctionDef,
    ) -> bool:
        if qualname in self.replay_path:
            return True
        key = (str(module.path), qualname)
        return key in self.reachable

    def _prepare_scope(
        self, module: SourceModule, qualname: str, func: ast.FunctionDef
    ) -> bool:
        return _module_prepare_scope(module) \
            or self._hot(module, qualname, func)

    # -- per-function driver -------------------------------------------

    def _check_function(
        self,
        module: SourceModule,
        qualname: str,
        class_name: Optional[str],
        func: ast.FunctionDef,
    ) -> None:
        hot = self._hot(module, qualname, func)
        prepare = _module_prepare_scope(module) or hot

        def callback(stmt: ast.stmt, env: Dict[str, Value]) -> None:
            infer = lambda n: self.flow.infer(  # noqa: E731
                n, env, module, class_name
            )
            self._check_stores(module, qualname, stmt, env, infer)
            for node in _walk_expressions(stmt):
                if isinstance(node, ast.Call):
                    self._check_narrowing(module, qualname, node, infer)
                    if prepare:
                        self._check_unspecified(module, qualname, node)
                elif isinstance(node, ast.BinOp) and hot:
                    self._check_upcast(module, qualname, node, infer)

        self.flow.scan_function(module, func, callback, class_name)

    # -- dtype-narrowing-cast ------------------------------------------

    def _check_narrowing(
        self, module: SourceModule, qualname: str, call: ast.Call, infer
    ) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype"
                and call.args):
            return
        target = parse_dtype_node(call.args[0])
        if target is None:
            return
        source: Value = infer(func.value)
        if not source.known() or source.bounded:
            return
        src_width = dtype_width(source.dtype)
        dst_width = dtype_width(target)
        if src_width is None or dst_width is None or dst_width >= src_width:
            return
        same_kind = (
            (is_integer_dtype(source.dtype) and is_integer_dtype(target))
            or (is_float_dtype(source.dtype) and is_float_dtype(target))
        )
        if not same_kind:
            return
        self._emit(
            module, "dtype-narrowing-cast", call.lineno,
            f"{qualname} casts {source.dtype} to {target} with no range "
            f"guard on the path; clamp first (np.minimum/np.clip/mask) "
            f"or validate the maximum before narrowing",
        )

    # -- dtype-overflow ------------------------------------------------

    def _check_stores(
        self,
        module: SourceModule,
        qualname: str,
        stmt: ast.stmt,
        env: Dict[str, Value],
        infer,
    ) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_one_store(
                    module, qualname, target, stmt.value, infer
                )
        elif isinstance(stmt, ast.AugAssign):
            self._check_one_store(
                module, qualname, stmt.target, stmt.value, infer,
                op=stmt.op,
            )

    def _store_target(
        self, target: ast.AST, infer
    ) -> Tuple[Optional[str], Optional[str], Optional[str]]:
        """(target dtype, description, contract name) of a store
        destination, or (None, None, None) when untracked."""
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            value: Value = infer(base)
            if value.known() and value.is_array:
                return value.dtype, f"array {base.id!r}", None
            return None, None, None
        if isinstance(base, ast.Attribute):
            bound = self.bindings.get(base.attr)
            if bound is not None:
                contract, declared = bound
                return declared, f"contract-bound field .{base.attr}", \
                    contract
        return None, None, None

    def _check_one_store(
        self,
        module: SourceModule,
        qualname: str,
        target: ast.AST,
        value: ast.AST,
        infer,
        op: Optional[ast.operator] = None,
    ) -> None:
        tgt_dtype, describe, contract = self._store_target(target, infer)
        if tgt_dtype is None or not is_integer_dtype(tgt_dtype):
            return
        tgt_width = dtype_width(tgt_dtype) or 64
        lineno = getattr(target, "lineno", getattr(value, "lineno", 1))
        rhs: Value = infer(value)
        contract_note = (
            f" (WIDTH_CONTRACTS[{contract!r}])" if contract else ""
        )
        if op is not None:
            # Accumulation into a narrow counter: saturation risk even
            # from same-width addends.
            if isinstance(op, _ACCUMULATING_OPS) and tgt_width <= 16 \
                    and not rhs.bounded:
                self._emit(
                    module, "dtype-overflow", lineno,
                    f"{qualname} accumulates into {tgt_width}-bit "
                    f"{describe}{contract_note} without a clamp; "
                    f"unbounded growth wraps silently in numpy",
                )
            return
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute
        ) and value.func.attr == "astype":
            return  # an explicit cast is dtype-narrowing-cast's business
        if not rhs.known() or rhs.bounded \
                or not is_integer_dtype(rhs.dtype):
            return
        rhs_width = dtype_width(rhs.dtype) or 64
        if rhs_width <= tgt_width:
            return
        self._emit(
            module, "dtype-overflow", lineno,
            f"{qualname} stores an unguarded {rhs.dtype} value into "
            f"{tgt_dtype} {describe}{contract_note}; values above "
            f"2^{tgt_width}-1 wrap silently — clamp or validate first",
        )

    # -- dtype-implicit-upcast -----------------------------------------

    def _check_upcast(
        self, module: SourceModule, qualname: str, node: ast.BinOp, infer
    ) -> None:
        left: Value = infer(node.left)
        right: Value = infer(node.right)
        if not (left.is_array and right.is_array):
            return
        if not (is_integer_dtype(left.dtype)
                and is_integer_dtype(right.dtype)):
            return
        lw = dtype_width(left.dtype) or 64
        rw = dtype_width(right.dtype) or 64
        if lw == rw:
            return
        narrow, wide = (left.dtype, right.dtype) if lw < rw \
            else (right.dtype, left.dtype)
        self._emit(
            module, "dtype-implicit-upcast", node.lineno,
            f"{qualname} mixes {narrow} and {wide} arrays in "
            f"arithmetic on a hot path; numpy materializes an upcast "
            f"copy of the {narrow} side — align dtypes explicitly",
        )

    # -- dtype-unspecified ---------------------------------------------

    def _check_unspecified(
        self, module: SourceModule, qualname: str, call: ast.Call
    ) -> None:
        reason = _creation_trap(call, self._parents)
        if reason is None:
            return
        self._emit(
            module, "dtype-unspecified", call.lineno,
            f"{qualname} (replay/prepare path): {reason}; pin an "
            f"explicit dtype so results cannot fork across platforms",
        )


def check_dtypes(
    modules: Sequence[SourceModule],
    replay_path: FrozenSet[str] = DEFAULT_REPLAY_PATH,
    graph: Optional[CallGraph] = None,
) -> List[Finding]:
    """Run the ``dtype`` family over the scanned modules."""
    return _DtypeChecker(modules, replay_path, graph).run()


def dtype_status_lines(modules: Sequence[SourceModule]) -> List[str]:
    """Context lines for the runner's report footer."""
    contracts = _load_contracts(modules)
    if not contracts:
        return [
            "dtype: no WIDTH_CONTRACTS registry in the scanned set "
            "(contract-bound checks inactive)"
        ]
    bound = sum(
        1 for spec in contracts.values()
        if isinstance(spec.get("binds"), tuple)
    )
    return [
        f"dtype: {len(contracts)} width contract(s) declared, "
        f"{bound} with static field bindings"
    ]
