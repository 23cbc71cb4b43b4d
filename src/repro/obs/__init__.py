"""repro.obs — query-span tracing, metrics, EXPLAIN ANALYZE.

The observability layer over the whole stack (planner → executor →
CSR kernels → snapshot → worker pool):

* :mod:`repro.obs.trace` — hierarchical per-query spans collected into
  a :class:`~repro.obs.trace.QueryTrace` (``engine.last_trace``,
  JSONL-exportable).
* :mod:`repro.obs.metrics` — a process-wide registry of deterministic
  counters/gauges/histograms (``engine.metrics_snapshot()``, the
  ``repro stats`` CLI).
* :mod:`repro.obs.explain` — ``engine.explain_analyze(query)`` /
  ``search --analyze``: the plan IR fused with the trace into a
  per-node table.

Everything is off by default and pay-for-what-you-use: call
:func:`set_enabled` (flips tracing *and* metrics) or the per-module
``set_enabled`` for one of the two; a disabled site costs one module
attribute load and a branch.  Enabling observability never changes
answers, order or budget-error points — that is a tested contract, not
an aspiration.
"""

from __future__ import annotations

from repro.obs import metrics, trace
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    diff_snapshots,
    render_report,
)
from repro.obs.trace import (
    QueryTrace,
    Span,
    ambient_trace,
    begin_trace,
    current_trace,
    end_trace,
    span,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "ambient_trace",
    "begin_trace",
    "current_trace",
    "diff_snapshots",
    "enabled",
    "end_trace",
    "metrics",
    "render_report",
    "reset",
    "set_enabled",
    "span",
    "trace",
]


def set_enabled(on: bool = True) -> None:
    """Flip span tracing and the metrics registry together."""
    trace.set_enabled(on)
    metrics.set_enabled(on)


def enabled() -> bool:
    """True when any part of the observability layer is collecting."""
    return trace.ENABLED or metrics.ENABLED


def reset() -> None:
    """Drop all collected state (traces and registry contents)."""
    trace.reset()
    REGISTRY.reset()
