"""The invariant rule battery.

Each rule is grounded in a bug this codebase actually shipped (or a
class of bug one layer away from one); :data:`RULES` runs them all:

* **DET01** — the PR 4 incident: ``JoiningNetwork._spanning_tree``
  handed a ``frozenset`` straight to networkx, whose MST tie-break
  follows node insertion order, so answers depended on the process
  hash seed.  The rule flags iteration over unordered containers that
  feeds order-sensitive accumulation without ``sorted(...)``.
* **DET02** — ``id()``/seeded ``hash()`` values are process-dependent;
  anything they influence cannot be bit-identical across runs.
* **PKL01** — the PR 5 incident: ``ReproError`` context was lost when
  errors crossed worker pipes, because pickling re-ran ``__init__``
  with the already-rendered message.  The rule flags error subclasses
  that store state in ``__init__`` without a matching ``__reduce__``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.framework import FileContext, Finding, Rule

__all__ = [
    "RULES",
    "Det01UnorderedIteration",
    "Det02ProcessDependentValues",
    "Pkl01StatefulErrorWithoutReduce",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _func_name(node: ast.Call) -> str:
    """Trailing name of a call target (``sorted``, ``append``, ...)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPE_NAMES
    return isinstance(node, ast.Name) and node.id in _SET_TYPE_NAMES


_SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


class _SetTypes:
    """Light syntactic inference of set-valued names for one file.

    Tracks, per function, local names bound to set-producing
    expressions (including set-annotated parameters) and, per class,
    ``self.X`` attributes every assignment binds to a set-producing
    value.  This is deliberately shallow — no dataflow across calls —
    but it covers the shapes the invariant bugs actually had.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.locals: dict[ast.AST, set[str]] = {}
        self.attrs: dict[ast.ClassDef, set[str]] = {}
        for cls in ctx.classes():
            self.attrs[cls] = set()
        # Two passes: names feed attribute inference and vice versa.
        for __ in range(2):
            for func in ctx.functions():
                self.locals[func] = self._function_locals(func)
            for cls in list(self.attrs):
                self.attrs[cls] = self._class_attrs(cls)

    def _function_locals(self, func) -> set[str]:
        names: set[str] = set()
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
        for __ in range(2):  # let chained assignments converge
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and self.is_set_expr(
                    node.value, func
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _annotation_is_set(node.annotation):
                        names.add(node.target.id)
            self.locals[func] = names
        return names

    def _class_attrs(self, cls: ast.ClassDef) -> set[str]:
        attrs: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            func = self.ctx.enclosing_function(node)
            if func is None or self.ctx.enclosing_class(node) is not cls:
                continue
            if self.is_set_expr(node.value, func):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    def is_set_expr(self, node: ast.expr, func=None) -> bool:
        """Best-effort: does this expression produce a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _func_name(node)
            if isinstance(node.func, ast.Name) and name in _SET_BUILTINS:
                return True
            if isinstance(node.func, ast.Attribute) and name in _SET_METHODS:
                return self.is_set_expr(node.func.value, func)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left, func) or self.is_set_expr(
                node.right, func
            )
        if isinstance(node, ast.Name):
            if func is None:
                func = self.ctx.enclosing_function(node)
            return func is not None and node.id in self.locals.get(func, ())
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            cls = self.ctx.enclosing_class(node)
            return cls is not None and node.attr in self.attrs.get(cls, ())
        return False

    def describe(self, node: ast.expr) -> str:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            return f"{_func_name(node)}(...)"
        if isinstance(node, ast.Name):
            return f"set-typed name '{node.id}'"
        if isinstance(node, ast.Attribute):
            return f"set-typed attribute 'self.{node.attr}'"
        return "a set expression"


# ----------------------------------------------------------------------
# DET01
# ----------------------------------------------------------------------
#: Calls that freeze their argument's iteration order into an ordered
#: result (or an ordered side effect).
_ORDER_FREEZING_CALLS = {"list", "tuple", "enumerate", "reversed"}
#: Method sinks whose argument order becomes observable output order.
_ORDER_SENSITIVE_METHODS = {
    "add_nodes_from",
    "add_edges_from",
    "induced_subgraph",
    "subgraph",
    "fromkeys",
    "join",
    "extend",
}
#: Consumers for which unordered input is harmless.
_ORDER_NEUTRAL_CALLS = {
    "sorted",
    "len",
    "sum",
    "any",
    "all",
    "set",
    "frozenset",
    "bool",
    "iter",
}


class Det01UnorderedIteration(Rule):
    id = "DET01"
    title = "unordered iteration feeds order-sensitive accumulation"
    rationale = (
        "PR 4: the spanning-tree tie-break followed frozenset iteration "
        "order, so answers depended on PYTHONHASHSEED"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        types = _SetTypes(ctx)
        for node in ctx.nodes:
            if isinstance(node, ast.For):
                yield from self._check_for(ctx, types, node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                yield from self._check_comprehension(ctx, types, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, types, node)

    # -- helpers -------------------------------------------------------
    def _inside_sorted(self, ctx: FileContext, node: ast.AST) -> bool:
        """True when the node sits inside ``sorted(...)`` arguments."""
        current = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return False
            if (
                isinstance(ancestor, ast.Call)
                and _func_name(ancestor) == "sorted"
                and current is not ancestor.func
            ):
                return True
            current = ancestor
        return False

    def _order_escapes(self, ctx: FileContext, call: ast.Call) -> bool:
        """An order-freezing conversion whose result order never shows.

        ``frontier = list(pending)`` is fine when every later read of
        ``frontier`` is order-neutral (``sorted``, ``len``, truth tests,
        membership) — the conversion exists for mutability, not order.
        """
        parent = ctx.parent(call)
        if not (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            return False
        func = ctx.enclosing_function(call)
        if func is None:
            return False
        name = parent.targets[0].id
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            use = ctx.parent(node)
            if isinstance(use, ast.Call) and _func_name(use) in _ORDER_NEUTRAL_CALLS:
                continue
            if isinstance(use, (ast.While, ast.If, ast.BoolOp, ast.UnaryOp)):
                continue
            if isinstance(use, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in use.ops
            ):
                continue
            return False
        return True

    def _flag(
        self, ctx: FileContext, types: _SetTypes, node: ast.AST, iterable, sink: str
    ):
        return self.finding(
            ctx,
            node,
            f"iteration over unordered {types.describe(iterable)} feeds "
            f"{sink} without sorted(...)",
        )

    # -- sink checks ---------------------------------------------------
    def _check_for(self, ctx, types, node: ast.For) -> Iterator[Finding]:
        if not types.is_set_expr(node.iter):
            return
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("append", "extend", "insert")
            ):
                yield self._flag(
                    ctx, types, node, node.iter, f"{inner.func.attr}() accumulation"
                )
                return
            if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                yield self._flag(ctx, types, node, node.iter, "yielded output order")
                return

    def _check_comprehension(self, ctx, types, node) -> Iterator[Finding]:
        if not node.generators:
            return
        iterable = node.generators[0].iter
        if not types.is_set_expr(iterable):
            return
        if self._inside_sorted(ctx, node):
            return
        if isinstance(node, ast.ListComp):
            yield self._flag(ctx, types, node, iterable, "an ordered list")
            return
        # A generator expression leaks order only through an
        # order-sensitive consumer.
        parent = ctx.parent(node)
        if isinstance(parent, ast.Call):
            name = _func_name(parent)
            if name in _ORDER_FREEZING_CALLS or name in _ORDER_SENSITIVE_METHODS:
                yield self._flag(ctx, types, node, iterable, f"{name}(...)")

    def _check_call(self, ctx, types, node: ast.Call) -> Iterator[Finding]:
        name = _func_name(node)
        if (
            isinstance(node.func, ast.Name)
            and name in _ORDER_FREEZING_CALLS
            and node.args
            and types.is_set_expr(node.args[0])
        ):
            if not self._inside_sorted(ctx, node) and not self._order_escapes(
                ctx, node
            ):
                yield self._flag(ctx, types, node, node.args[0], f"{name}(...)")
        elif (
            isinstance(node.func, ast.Name)
            and name in ("min", "max")
            and node.args
            and types.is_set_expr(node.args[0])
            and any(kw.arg == "key" for kw in node.keywords)
        ):
            # min/max *by value* over a set is deterministic; a key
            # function reintroduces iteration order on ties.
            yield self._flag(
                ctx, types, node, node.args[0], f"{name}(..., key=...) tie-breaking"
            )
        elif isinstance(node.func, ast.Attribute) and name in _ORDER_SENSITIVE_METHODS:
            for arg in node.args:
                if types.is_set_expr(arg) and not self._inside_sorted(ctx, node):
                    yield self._flag(ctx, types, node, arg, f".{name}(...)")
                    break


# ----------------------------------------------------------------------
# DET02
# ----------------------------------------------------------------------
class Det02ProcessDependentValues(Rule):
    id = "DET02"
    title = "process-dependent id()/hash() values"
    rationale = (
        "id() and seeded str hashes differ between processes and runs; "
        "anything they influence cannot be bit-identical"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = _func_name(node)
            if isinstance(node.func, ast.Name) and name == "id" and node.args:
                yield self.finding(
                    ctx,
                    node,
                    "id() is process-dependent; it must not influence "
                    "answers or snapshot bytes",
                )
            elif isinstance(node.func, ast.Name) and name == "hash" and node.args:
                if self._inside_dunder_hash(ctx, node):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    "hash() of non-int values is seed-dependent outside "
                    "__hash__; it must not influence answers or snapshot bytes",
                )
            elif name in ("sorted", "min", "max"):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in ("id", "hash")
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"key={keyword.value.id} orders by a "
                            "process-dependent value",
                        )

    def _inside_dunder_hash(self, ctx: FileContext, node: ast.AST) -> bool:
        func = ctx.enclosing_function(node)
        return func is not None and func.name == "__hash__"


# ----------------------------------------------------------------------
# PKL01
# ----------------------------------------------------------------------
_PICKLE_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__"}


class Pkl01StatefulErrorWithoutReduce(Rule):
    id = "PKL01"
    title = "stateful ReproError subclass without __reduce__"
    rationale = (
        "PR 5: ReproError context vanished when errors crossed worker "
        "pipes — pickling re-ran __init__ on the rendered message"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        error_names = {"ReproError"}
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module in (
                "repro.errors",
                "errors",
            ):
                for alias in node.names:
                    error_names.add(alias.asname or alias.name)
        classes = {cls.name: cls for cls in ctx.classes()}
        error_classes: set[str] = set()
        changed = True
        while changed:  # transitive bases within the file
            changed = False
            for name, cls in classes.items():
                if name in error_classes:
                    continue
                for base in cls.bases:
                    base_name = (
                        base.id
                        if isinstance(base, ast.Name)
                        else base.attr
                        if isinstance(base, ast.Attribute)
                        else ""
                    )
                    if base_name in error_names or base_name in error_classes:
                        error_classes.add(name)
                        changed = True
                        break

        for name in sorted(error_classes):
            cls = classes[name]
            methods = {
                stmt.name
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "__init__" not in methods or methods & _PICKLE_HOOKS:
                continue
            init = next(
                stmt
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"
            )
            if self._stores_state(init):
                yield self.finding(
                    ctx,
                    cls,
                    f"error subclass {name} stores state in __init__ without "
                    "__reduce__ — the state is lost when the error crosses "
                    "a worker pipe",
                )

    def _stores_state(self, init: ast.FunctionDef) -> bool:
        for node in ast.walk(init):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
        return False


RULES: tuple[Rule, ...] = (
    Det01UnorderedIteration(),
    Det02ProcessDependentValues(),
    Pkl01StatefulErrorWithoutReduce(),
)
