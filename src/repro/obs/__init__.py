"""repro.obs — query-span tracing and EXPLAIN ANALYZE.

The observability layer over the whole stack (planner → executor →
CSR kernels → snapshot → worker pool):

* :mod:`repro.obs.trace` — hierarchical per-query spans collected into
  a :class:`~repro.obs.trace.QueryTrace` (``engine.last_trace``,
  JSONL-exportable).
* :mod:`repro.obs.metrics` — the change between two
  ``engine.metrics_snapshot()`` dicts and its ``repro stats`` report.
* :mod:`repro.obs.explain` — ``engine.explain_analyze(query)`` /
  ``search --analyze``: the plan IR fused with the trace into a
  per-node table.

Counters are not kept here: ``engine.metrics_snapshot()`` reads the
ones the engine's parts already hold, always on and per engine.

Tracing is off by default and pay-for-what-you-use: call
:func:`set_enabled`; a disabled site costs one module attribute load
and a branch.  Enabling it never changes answers, order or
budget-error points — that is a tested contract, not an aspiration.
"""

from __future__ import annotations

from repro.obs import metrics, trace
from repro.obs.metrics import diff_snapshots, render_report
from repro.obs.trace import (
    QueryTrace,
    Span,
    ambient_trace,
    begin_trace,
    current_trace,
    end_trace,
    reset,
    set_enabled,
    span,
)

__all__ = [
    "QueryTrace",
    "Span",
    "ambient_trace",
    "begin_trace",
    "current_trace",
    "diff_snapshots",
    "end_trace",
    "metrics",
    "render_report",
    "reset",
    "set_enabled",
    "span",
    "trace",
]
