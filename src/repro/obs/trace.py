"""Hierarchical query spans: zero-dependency, pay-for-what-you-use.

A :class:`Span` records one named region of work — monotonic start and
duration, free-form tags, accumulated integer counters and child spans.
Spans are collected into a :class:`QueryTrace`; the engine starts one
per query (``engine.last_trace``) and every instrumented layer below it
(executor stages, CSR kernels, caches, the scale layer) attaches
children to whichever trace is *active* in the process.

The contract that keeps tracing safe to leave compiled in everywhere:

* **Disabled is free.**  Every instrumentation site guards on the
  module-level :data:`ENABLED` flag (or on a local ``span is None``
  derived from it) before touching anything else.
* **Tracing never changes answers.**  Spans only *observe*: no
  enumeration order, budget check or score passes through this module,
  and the differential tests run every workload traced and untraced
  expecting bit-identical results, order and budget-error points.
* **Shapes are deterministic, timings are not.**  :meth:`Span.shape`
  strips ``start``/``duration``; a fixed-seed workload produces the
  same shape (names, tags, counters, child order) on every run and
  under every ``PYTHONHASHSEED`` — that is what the determinism tests
  compare.  Durations are measured with :func:`time.perf_counter` and
  are reporting-only.
* **Spans pickle.**  Worker processes ship whole traces back over the
  :mod:`repro.scale.parallel` pipes, so spans hold only plain picklable
  values.

Spans recorded while no query trace is active (snapshot opens, live
changesets, pool chunk service inside a worker) attach to a process
*ambient* trace, capped so an unconsumed ambient trace cannot grow
without bound.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "ENABLED",
    "Span",
    "QueryTrace",
    "set_enabled",
    "span",
    "traced",
    "begin_trace",
    "end_trace",
    "current_trace",
    "ambient_trace",
    "reset",
]

#: Module-level master switch.  Instrumentation sites check this (once
#: per site) before doing any tracing work; the engine snapshots it per
#: query.  Flip through :func:`set_enabled` (``repro.obs.set_enabled``
#: is the same switch).
ENABLED = False


def set_enabled(on: bool = True) -> None:
    """Turn span collection on or off process-wide."""
    global ENABLED
    ENABLED = bool(on)


class Span:
    """One named region of work inside a trace.

    ``tags`` describe the region (query text, op index, execution mode);
    ``counters`` accumulate integers (candidates produced, pulls);
    ``duration`` accumulates seconds — interleaved stages (pushdown
    merge pulls) add slices of time to one span instead of opening a
    span per slice, which keeps trace shapes deterministic.
    """

    __slots__ = ("name", "tags", "counters", "start", "duration", "children")

    def __init__(self, name: str, tags: Optional[dict] = None) -> None:
        self.name = name
        self.tags = dict(tags) if tags else {}
        self.counters: dict[str, int] = {}
        self.start = 0.0
        self.duration = 0.0
        self.children: list[Span] = []

    # -- building ------------------------------------------------------
    def child(self, name: str, **tags) -> "Span":
        """Attach and return a new child span (no stack involvement)."""
        child = Span(name, tags)
        self.children.append(child)
        return child

    def tag(self, **tags) -> None:
        self.tags.update(tags)

    def add(self, **counters: int) -> None:
        """Accumulate integer counters onto this span."""
        own = self.counters
        for key, value in counters.items():
            own[key] = own.get(key, 0) + value

    def add_time(self, seconds: float) -> None:
        self.duration += seconds

    # -- reading -------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first in record order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Iterator["Span"]:
        for node in self.walk():
            if node.name == name:
                yield node

    def total(self, counter: str) -> int:
        """One counter summed over this span and every descendant."""
        return sum(node.counters.get(counter, 0) for node in self.walk())

    def shape(self) -> tuple:
        """Deterministic structure: everything except the timings.

        Two runs of the same fixed-seed workload produce equal shapes
        (the determinism tests compare exactly this), while ``start`` /
        ``duration`` are free to differ.
        """
        return (
            self.name,
            tuple(sorted(self.tags.items())),
            tuple(sorted(self.counters.items())),
            tuple(child.shape() for child in self.children),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1000.0:.2f}ms, "
            f"tags={self.tags}, counters={self.counters}, "
            f"children={len(self.children)})"
        )


class QueryTrace:
    """All spans of one query (or batch, or the process ambient work).

    Owns a root :class:`Span` plus the stack the :func:`span` context
    manager pushes onto; instrumentation that cannot use a ``with``
    block (generators, interleaved pushdown states) attaches
    accumulating children directly via :meth:`Span.child`.
    """

    __slots__ = ("root", "child_cap", "_stack")

    def __init__(self, name: str, child_cap: Optional[int] = None, **tags) -> None:
        self.root = Span(name, tags)
        self.root.start = time.perf_counter()
        #: Most children any one span may accumulate (``None`` = no
        #: cap).  The ambient trace uses this so long-lived processes
        #: that never drain it stay bounded; dropped spans are counted
        #: in the root's ``dropped_spans``.
        self.child_cap = child_cap
        self._stack: list[Span] = [self.root]

    # -- span stack ----------------------------------------------------
    def current(self) -> Span:
        return self._stack[-1]

    def push(self, name: str, tags: Optional[dict] = None) -> Span:
        parent = self._stack[-1]
        if self.child_cap is not None and len(parent.children) >= self.child_cap:
            self.root.add(dropped_spans=1)
            span = Span(name, tags)  # recorded nowhere, but balances pop()
        else:
            span = Span(name, tags)
            parent.children.append(span)
        span.start = time.perf_counter()
        self._stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        span.duration += time.perf_counter() - span.start
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def finish(self) -> None:
        self.root.duration = time.perf_counter() - self.root.start

    def adopt(self, span: Span) -> None:
        """Attach an externally built span tree (a worker's trace root)."""
        self.root.children.append(span)

    # -- reading / export ----------------------------------------------
    def walk(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, name: str) -> Iterator[Span]:
        return self.root.find(name)

    def span_count(self) -> int:
        return sum(1 for __ in self.walk())

    def shape(self) -> tuple:
        return self.root.shape()

    def to_jsonl(self) -> str:
        """One JSON object per span, depth-first, ``path``-qualified."""
        lines = []

        def emit(span: Span, path: str) -> None:
            record = {
                "path": path,
                "name": span.name,
                "tags": span.tags,
                "counters": span.counters,
                "duration_ms": round(span.duration * 1000.0, 3),
            }
            lines.append(json.dumps(record, sort_keys=True, default=str))
            for child in span.children:
                emit(child, f"{path}/{child.name}")

        emit(self.root, self.root.name)
        return "\n".join(lines) + "\n"

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTrace({self.root.name!r}, spans={self.span_count()})"


#: Stack of active traces (innermost last).  Single-threaded per
#: process by design — the engine and its workers each run queries
#: sequentially, so a plain module global is race-free.
_ACTIVE: list[QueryTrace] = []
_AMBIENT: Optional[QueryTrace] = None

#: Child cap of the process ambient trace (see :class:`QueryTrace`).
AMBIENT_CHILD_CAP = 256


def begin_trace(name: str, **tags) -> QueryTrace:
    """Open a trace and make it the span-collection target."""
    trace = QueryTrace(name, **tags)
    _ACTIVE.append(trace)
    return trace


def end_trace(trace: QueryTrace) -> None:
    """Finish a trace and restore the previous collection target."""
    trace.finish()
    if trace in _ACTIVE:
        _ACTIVE.remove(trace)


def current_trace() -> Optional[QueryTrace]:
    """The innermost active trace, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def ambient_trace() -> QueryTrace:
    """The process trace spans fall back to outside any query.

    Snapshot opens, live changesets and worker-side chunk service all
    happen with no query trace active; their spans land here (capped),
    where a caller reads them back with ``ambient_trace().walk()``.
    """
    global _AMBIENT
    if _AMBIENT is None:
        _AMBIENT = QueryTrace("ambient", child_cap=AMBIENT_CHILD_CAP)
    return _AMBIENT


class _NullSpan:
    """The disabled-path context manager: enters to ``None``, free."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpan()


class _SpanContext:
    __slots__ = ("_trace", "_span")

    def __init__(self, trace: QueryTrace, name: str, tags: dict) -> None:
        self._trace = trace
        self._span = trace.push(name, tags)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info):
        self._trace.pop(self._span)
        return False


def span(name: str, **tags):
    """Context manager recording one span on the active (or ambient)
    trace; a shared no-op when tracing is disabled.

    ``with span("csr.distances_block") as s:`` — ``s`` is the live
    :class:`Span` (tag/count through it) or ``None`` when disabled, so
    span-local bookkeeping guards on ``if s is not None``.
    """
    if not ENABLED:
        return _NULL
    trace = _ACTIVE[-1] if _ACTIVE else ambient_trace()
    return _SpanContext(trace, name, tags)


def traced(name: str, owner=None, **tags):
    """Context manager running its block inside a fresh
    :class:`QueryTrace`, which ``with ... as`` binds and
    ``owner.last_trace`` keeps; the shared no-op binding ``None`` when
    tracing is disabled."""
    return _query_trace(name, owner, tags) if ENABLED else _NULL


@contextmanager
def _query_trace(name: str, owner, tags: dict) -> Iterator[QueryTrace]:
    trace = begin_trace(name, **tags)
    if owner is not None:
        owner.last_trace = trace
    try:
        yield trace
    finally:
        end_trace(trace)


def reset() -> None:
    """Drop all collection state (tests and the CLI report use this)."""
    global _AMBIENT
    _ACTIVE.clear()
    _AMBIENT = None
