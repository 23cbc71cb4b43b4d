"""The invariant rule battery.

Each rule is grounded in a bug this codebase actually shipped (or a
class of bug one layer away from one):

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
* **FRZ01** — ``FrozenGraph`` and lazy snapshot stores are
  patchable only through their own modules' entry points; ad-hoc
  mutation elsewhere silently desynchronises compiled state.
* **RES01** — mmap/file/pipe acquisition must have a paired
  ``close()`` on some path (``with``, ``try/finally``, or an owning
  ``close`` method); a served engine leaks one handle per forgotten
  pair.
* **API01** — a broad handler that swallows without re-raising or
  recording turns invariant violations into silent wrong answers.
* **SLOT01** — dataclasses on hot paths pay a per-instance ``__dict__``
  unless they declare ``__slots__``.
* **DUR01** — the PR 9 contract: snapshot and WAL files in the durable
  and scale layers are published crash-atomically (same-directory temp
  file, ``fsync``, one ``os.replace``); a direct write-mode ``open``
  outside that protocol leaves a torn artefact a later open trusts.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.framework import FileContext, Finding, Rule, register

__all__ = [
    "Det01UnorderedIteration",
    "Det02ProcessDependentValues",
    "Pkl01StatefulErrorWithoutReduce",
    "Frz01FrozenMutation",
    "Res01UnpairedResource",
    "Api01SwallowedException",
    "Slot01DataclassWithoutSlots",
    "Dur01NonAtomicDurableWrite",
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


@register
class Det01UnorderedIteration(Rule):
    id = "DET01"
    title = "unordered iteration feeds order-sensitive accumulation"
    rationale = (
        "PR 4: the spanning-tree tie-break followed frozenset iteration "
        "order, so answers depended on PYTHONHASHSEED"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        types = _SetTypes(ctx)
        for node in ast.walk(ctx.tree):
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
@register
class Det02ProcessDependentValues(Rule):
    id = "DET02"
    title = "process-dependent id()/hash() values"
    rationale = (
        "id() and seeded str hashes differ between processes and runs; "
        "anything they influence cannot be bit-identical"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
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


@register
class Pkl01StatefulErrorWithoutReduce(Rule):
    id = "PKL01"
    title = "stateful ReproError subclass without __reduce__"
    rationale = (
        "PR 5: ReproError context vanished when errors crossed worker "
        "pipes — pickling re-ran __init__ on the rendered message"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        error_names = {"ReproError"}
        for node in ast.walk(ctx.tree):
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


# ----------------------------------------------------------------------
# FRZ01
# ----------------------------------------------------------------------
#: Modules allowed to mutate their own frozen structures.
_FROZEN_HOME_MODULES = (
    "graph/csr.py",
    "scale/snapshot.py",
)
#: Patch entry points allowed to mutate frozen structures anywhere.
_SANCTIONED_FUNCTIONS = {
    "apply_changeset",
    "from_parts",
    "_compact",
    "_compile",
}
_FROZEN_CONSTRUCTORS = {"FrozenGraph"}
_FROZEN_FACTORY_METHODS = {"frozen"}
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "pop",
    "popitem",
    "update",
    "clear",
    "remove",
    "discard",
    "add",
    "setdefault",
    "sort",
    "reverse",
}


class _FrozenTypes:
    """Names/attributes bound to frozen structures, per function/class."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.locals: dict[ast.AST, set[str]] = {}
        self.attrs: dict[ast.ClassDef, set[str]] = {}
        for func in ctx.functions():
            self.locals[func] = self._function_locals(func)
        for cls in ctx.classes():
            self.attrs[cls] = self._class_attrs(cls)

    def _is_frozen_producer(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _FROZEN_CONSTRUCTORS or func.id.startswith("_Lazy")
        if isinstance(func, ast.Attribute):
            if func.attr in _FROZEN_FACTORY_METHODS:
                return True
            # FrozenGraph.from_parts(...)
            if func.attr == "from_parts" and isinstance(func.value, ast.Name):
                return func.value.id in _FROZEN_CONSTRUCTORS
        return False

    def _function_locals(self, func) -> set[str]:
        names: set[str] = set()
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotation = arg.annotation
            if isinstance(annotation, ast.Constant):
                text = str(annotation.value)
                if any(name in text for name in _FROZEN_CONSTRUCTORS):
                    names.add(arg.arg)
            node = annotation
            if isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Name) and node.id in _FROZEN_CONSTRUCTORS:
                names.add(arg.arg)
            elif isinstance(node, ast.Attribute) and node.attr in _FROZEN_CONSTRUCTORS:
                names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_frozen_producer(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _class_attrs(self, cls: ast.ClassDef) -> set[str]:
        attrs: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and self._is_frozen_producer(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    def is_frozen(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            func = self.ctx.enclosing_function(node)
            return func is not None and node.id in self.locals.get(func, ())
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            cls = self.ctx.enclosing_class(node)
            return cls is not None and node.attr in self.attrs.get(cls, ())
        return self._is_frozen_producer(node)

    def describe(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return f"'{node.id}'"
        if isinstance(node, ast.Attribute):
            return f"'self.{node.attr}'"
        return "a frozen structure"


@register
class Frz01FrozenMutation(Rule):
    id = "FRZ01"
    title = "mutation of a frozen structure outside its module"
    rationale = (
        "FrozenGraph and lazy stores are patched only through "
        "their modules' sanctioned entry points; ad-hoc mutation "
        "desynchronises compiled state from the data graph"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel_path.endswith(_FROZEN_HOME_MODULES):
            return
        types = _FrozenTypes(ctx)
        for node in ast.walk(ctx.tree):
            if self._sanctioned(ctx, node):
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    owner = self._mutated_owner(types, target)
                    if owner is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"assignment into frozen {types.describe(owner)} "
                            "outside its module's patch entry points",
                        )
                        break
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    owner = self._mutated_owner(types, target)
                    if owner is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"deletion from frozen {types.describe(owner)} "
                            "outside its module's patch entry points",
                        )
                        break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                owner = self._call_owner(types, node.func.value)
                if owner is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f".{node.func.attr}() mutates frozen "
                        f"{types.describe(owner)} outside its module's "
                        "patch entry points",
                    )

    def _sanctioned(self, ctx: FileContext, node: ast.AST) -> bool:
        func = ctx.enclosing_function(node)
        return func is not None and func.name in _SANCTIONED_FUNCTIONS

    def _mutated_owner(self, types: _FrozenTypes, target: ast.expr):
        """The frozen object a store/delete target mutates, if any."""
        if isinstance(target, ast.Attribute) and types.is_frozen(target.value):
            return target.value
        if isinstance(target, ast.Subscript):
            value = target.value
            if types.is_frozen(value):
                return value
            if isinstance(value, ast.Attribute) and types.is_frozen(value.value):
                return value.value
        return None

    def _call_owner(self, types: _FrozenTypes, value: ast.expr):
        """The frozen object behind ``owner.attr.mutator(...)``, if any."""
        if types.is_frozen(value):
            return value
        if isinstance(value, ast.Attribute) and types.is_frozen(value.value):
            return value.value
        return None


# ----------------------------------------------------------------------
# RES01
# ----------------------------------------------------------------------
_ACQUIRE_ATTRS = {"open", "mmap", "Pipe"}
_RELEASE_ATTRS = {"close", "release", "terminate", "shutdown"}


@register
class Res01UnpairedResource(Rule):
    id = "RES01"
    title = "resource acquired without a paired close()"
    rationale = (
        "a served engine leaks one handle per forgotten pair; mmap "
        "and pipe handles especially must have a deterministic "
        "release path"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._acquisition(node)
            if what is None:
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.withitem):
                continue
            if isinstance(parent, (ast.Return, ast.Yield)):
                # a freshly acquired handle returned verbatim belongs
                # to the caller; its release is the caller's pairing.
                continue
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr in _RELEASE_ATTRS
            ):
                # ``os.close(os.open(...))`` — acquired and released in
                # one expression (the create-exclusively sentinel idiom).
                continue
            if isinstance(parent, ast.Assign):
                yield from self._check_assignment(ctx, node, parent, what)
            else:
                # open(...).read(), json.load(open(...)), a bare
                # expression statement: nothing retains the handle.
                yield self.finding(
                    ctx,
                    node,
                    f"{what} handle is consumed inline and can never be "
                    "closed; bind it in a with-statement",
                )

    def _acquisition(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open()"
        if isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_ATTRS:
            if func.attr == "open":
                # ``SomeClass.open(...)`` / ``cls.open(...)`` is the
                # alternate-constructor idiom, not a file handle.
                value = func.value
                if isinstance(value, ast.Name) and (
                    value.id[:1].isupper() or value.id == "cls"
                ):
                    return None
                return ".open()"
            if func.attr == "mmap":
                return "mmap.mmap()"
            return f".{func.attr}()"
        return None

    def _check_assignment(
        self, ctx: FileContext, node: ast.Call, parent: ast.Assign, what: str
    ) -> Iterator[Finding]:
        targets = parent.targets
        if len(targets) == 1 and isinstance(targets[0], ast.Tuple):
            names = [
                element.id
                for element in targets[0].elts
                if isinstance(element, ast.Name)
            ]
            for name in names:
                if not self._name_released(ctx, node, name):
                    yield self.finding(
                        ctx,
                        node,
                        f"{what} handle '{name}' has no close() on any "
                        "path in this function",
                    )
            return
        target = targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if not self._class_releases(ctx, node, target.attr):
                yield self.finding(
                    ctx,
                    node,
                    f"{what} handle stored on self.{target.attr} but no "
                    f"method of the class ever calls self.{target.attr}"
                    ".close()",
                )
            return
        if isinstance(target, ast.Name):
            if not self._name_released(ctx, node, target.id):
                yield self.finding(
                    ctx,
                    node,
                    f"{what} handle '{target.id}' has no close() on any "
                    "path in this function",
                )

    def _escapes_via(self, expr: ast.expr, name: str) -> bool:
        """Does this expression hand the *handle itself* to someone else?

        The handle escapes as the expression, a tuple/list element, or a
        call **argument** (``Wrapper(handle)`` transfers ownership).  It
        does not escape as a mere method receiver: ``handle.read()``
        returns the data, not the handle.
        """
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                if node.id == name:
                    return True
            elif isinstance(node, (ast.Tuple, ast.List)):
                stack.extend(node.elts)
            elif isinstance(node, ast.Starred):
                stack.append(node.value)
            elif isinstance(node, ast.Call):
                stack.extend(node.args)
                stack.extend(keyword.value for keyword in node.keywords)
            elif isinstance(node, ast.IfExp):
                stack.extend((node.body, node.orelse))
        return False

    def _name_released(self, ctx: FileContext, node: ast.AST, name: str) -> bool:
        func = ctx.enclosing_function(node)
        if func is None:
            return False
        for inner in ast.walk(func):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in _RELEASE_ATTRS
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id == name
            ):
                return True
            # ``os.close(fd)`` releases a raw descriptor by argument,
            # not by method receiver.
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in _RELEASE_ATTRS
                and any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in inner.args
                )
            ):
                return True
            # Escapes transfer ownership: returned/yielded handles belong
            # to the caller, handles stored into containers or attributes
            # to their owner's lifecycle.
            if isinstance(inner, (ast.Return, ast.Yield)) and inner.value is not None:
                if self._escapes_via(inner.value, name):
                    return True
            if isinstance(inner, ast.Assign):
                stores_elsewhere = any(
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    for target in inner.targets
                )
                if stores_elsewhere and self._escapes_via(inner.value, name):
                    return True
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("append", "add", "put")
            ):
                if any(self._escapes_via(arg, name) for arg in inner.args):
                    return True
        return False

    def _class_releases(self, ctx: FileContext, node: ast.AST, attr: str) -> bool:
        cls = ctx.enclosing_class(node)
        if cls is None:
            return False
        for inner in ast.walk(cls):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in _RELEASE_ATTRS
                and isinstance(inner.value, ast.Attribute)
                and inner.value.attr == attr
                and isinstance(inner.value.value, ast.Name)
                and inner.value.value.id == "self"
            ):
                return True
        return False


# ----------------------------------------------------------------------
# API01
# ----------------------------------------------------------------------
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_RECORDING_NAME_PARTS = ("log", "warn", "print", "write", "send", "record", "report")


@register
class Api01SwallowedException(Rule):
    id = "API01"
    title = "broad exception handler swallows errors"
    rationale = (
        "a bare/broad except that neither re-raises nor records turns "
        "invariant violations into silent wrong answers"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles(node):
                continue
            caught = "bare except:" if node.type is None else "broad except"
            yield self.finding(
                ctx,
                node,
                f"{caught} swallows the error without re-raising, using "
                "it, or recording it",
            )

    def _is_broad(self, type_node) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in _BROAD_EXCEPTIONS
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(element) for element in type_node.elts)
        return False

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
            if isinstance(node, ast.Call):
                name = _func_name(node).lower()
                if any(part in name for part in _RECORDING_NAME_PARTS):
                    return True
        return False


# ----------------------------------------------------------------------
# SLOT01
# ----------------------------------------------------------------------
#: Modules whose object churn sits on the query hot path.
_HOT_MODULE_MARKERS = ("/graph/", "/scale/", "/obs/")
_HOT_MODULE_SUFFIXES = ("core/plan.py", "core/executor.py")


@register
class Slot01DataclassWithoutSlots(Rule):
    id = "SLOT01"
    title = "hot-path dataclass without __slots__"
    rationale = (
        "instances allocated per expansion/answer pay a __dict__ each "
        "unless the dataclass declares slots"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._is_hot(ctx.rel_path):
            return
        for cls in ctx.classes():
            decorator = self._dataclass_decorator(cls)
            if decorator is None:
                continue
            if isinstance(decorator, ast.Call) and any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            ):
                continue
            if self._declares_slots(cls):
                continue
            yield self.finding(
                ctx,
                cls,
                f"dataclass {cls.name} in a hot module lacks __slots__ "
                "(use @dataclass(slots=True))",
            )

    def _is_hot(self, rel_path: str) -> bool:
        probe = "/" + rel_path
        return any(marker in probe for marker in _HOT_MODULE_MARKERS) or any(
            probe.endswith(suffix) for suffix in _HOT_MODULE_SUFFIXES
        )

    def _dataclass_decorator(self, cls: ast.ClassDef):
        for decorator in cls.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else ""
            )
            if name == "dataclass":
                return decorator
        return None

    def _declares_slots(self, cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        return False


# ----------------------------------------------------------------------
# DUR01
# ----------------------------------------------------------------------
#: Packages whose on-disk artefacts readers trust byte-for-byte.
_DURABLE_MODULE_MARKERS = ("/repro/durable/", "/repro/scale/")
#: Writing becomes crash-atomic when the enclosing function both
#: flushes the bytes to stable storage and publishes them in one step.
_DUR_SYNC_CALLS = {"fsync", "fdatasync"}
_DUR_PUBLISH_CALLS = {"replace"}


@register
class Dur01NonAtomicDurableWrite(Rule):
    id = "DUR01"
    title = "durable artefact written without fsync + os.replace"
    rationale = (
        "a crash mid-write leaves a torn snapshot/WAL that every later "
        "open trusts; durable files must be written to a same-directory "
        "temp file, fsynced, then published with a single os.replace"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        probe = "/" + ctx.rel_path
        if not any(marker in probe for marker in _DURABLE_MODULE_MARKERS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._write_mode(node)
            if mode is None:
                continue
            func = ctx.enclosing_function(node)
            if func is not None and self._writes_atomically(func):
                continue
            yield self.finding(
                ctx,
                node,
                f"write-mode open ({mode!r}) in a durable module outside "
                "the temp-file + fsync + os.replace protocol; a crash "
                "here leaves a torn file later opens trust",
            )

    @staticmethod
    def _write_mode(node: ast.Call) -> Optional[str]:
        """The mode string iff this call opens a file for writing.

        Covers ``open(path, "wb")``, ``path.open("w")`` and
        ``os.fdopen(fd, "wb")``.  Non-constant modes are skipped — the
        rule judges shapes, not dataflow.
        """
        func = node.func
        if isinstance(func, ast.Name):
            if func.id != "open":
                return None
        elif isinstance(func, ast.Attribute):
            if func.attr not in ("open", "fdopen"):
                return None
            # ``SomeClass.open(...)`` / ``cls.open(...)`` is the
            # alternate-constructor idiom, not a file handle.
            value = func.value
            if isinstance(value, ast.Name) and (
                value.id[:1].isupper() or value.id == "cls"
            ):
                return None
        else:
            return None
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            mode = node.args[0].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                mode = keyword.value.value
        if not isinstance(mode, str):
            return None
        if "w" in mode or "x" in mode:
            return mode
        return None

    @staticmethod
    def _writes_atomically(func: ast.AST) -> bool:
        synced = published = False
        for inner in ast.walk(func):
            if isinstance(inner, ast.Call) and isinstance(
                inner.func, ast.Attribute
            ):
                if inner.func.attr in _DUR_SYNC_CALLS:
                    synced = True
                elif inner.func.attr in _DUR_PUBLISH_CALLS:
                    published = True
        return synced and published
