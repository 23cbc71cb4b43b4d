"""EXPLAIN ANALYZE: fuse the plan IR with a collected query trace.

:func:`analyze` runs one query with tracing forced on — bypassing the
answer cache so the executor actually executes — and folds the plan's
stages together with the spans the execution emitted into a per-node
table: wall time, candidates enumerated, answers produced,
traversal-cache hits.  The engine
exposes it as ``engine.explain_analyze(query)`` and the CLI as
``search --analyze``.

The analysed run is a real run: same plan, same executor, same
bit-identical answers (tracing is observe-only, see
:mod:`repro.obs.trace`).  Only the answer-cache *lookup* is skipped;
the run still stores its results, so a subsequent ``search`` hits the
cache as usual.
"""

from __future__ import annotations

from typing import Optional

from repro.core.executor import _op_label
from repro.core.plan import NetworkGrowth, PairPaths, QueryPlan, SingleScan
from repro.obs import trace as trace_mod

__all__ = ["ExplainRow", "ExplainReport", "analyze"]


class ExplainRow:
    """One rendered line of the per-node table."""

    __slots__ = ("node", "detail", "time_ms", "counters")

    def __init__(
        self,
        node: str,
        detail: str,
        time_ms: Optional[float] = None,
        counters: Optional[dict] = None,
    ) -> None:
        self.node = node
        self.detail = detail
        self.time_ms = time_ms
        self.counters = counters or {}

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "detail": self.detail,
            "time_ms": self.time_ms,
            "counters": dict(self.counters),
        }


class ExplainReport:
    """The analysed query: plan, trace, stats and the fused table."""

    __slots__ = (
        "query",
        "semantics",
        "plan",
        "trace",
        "stats",
        "results",
        "rows",
        "mode",
    )

    def __init__(
        self,
        *,
        query: str,
        semantics: str,
        plan: QueryPlan,
        trace: trace_mod.QueryTrace,
        stats,
        results,
    ) -> None:
        self.query = query
        self.semantics = semantics
        self.plan = plan
        self.trace = trace
        self.stats = stats
        self.results = results
        exec_span = next(trace.find("executor.execute"), None)
        self.mode = exec_span.tags.get("mode", "?") if exec_span is not None else "?"
        self.rows = _build_rows(plan, trace, stats)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "semantics": self.semantics,
            "mode": self.mode,
            "stats": self.stats.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
        }

    def estimate_error(self) -> Optional[dict]:
        """Planner estimate vs. observed candidates for the analysed run.

        Returns ``None`` when the plan carries no cost estimates (static
        planning, or a plan with no sources).  Otherwise a dict with the
        summed ``est_candidates``, the observed ``stats.candidates``, the
        absolute error and the signed percentage error (positive means
        the planner over-estimated).
        """
        estimates = getattr(self.plan, "estimates", ())
        if not estimates:
            return None
        estimated = sum(entry.est_candidates for entry in estimates)
        actual = self.stats.candidates
        error = estimated - actual
        baseline = actual if actual > 0 else 1
        return {
            "estimated": round(estimated, 3),
            "actual": actual,
            "error": round(error, 3),
            "error_pct": round(100.0 * error / baseline, 1),
        }

    def render(self) -> str:
        """The per-node table, one row per plan stage."""
        header = (
            f"EXPLAIN ANALYZE  query={self.query!r}  "
            f"semantics={self.semantics}  mode={self.mode}"
        )
        columns = ("node", "detail", "time_ms", "counters")
        table = [columns]
        for row in self.rows:
            time_text = "" if row.time_ms is None else f"{row.time_ms:.3f}"
            counter_text = "  ".join(
                f"{name}={row.counters[name]}" for name in sorted(row.counters)
            )
            table.append((row.node, row.detail, time_text, counter_text))
        widths = [
            max(len(line[column]) for line in table)
            for column in range(len(columns))
        ]
        lines = [header]
        for index, line in enumerate(table):
            lines.append(
                "  ".join(
                    cell.ljust(width) for cell, width in zip(line, widths)
                ).rstrip()
            )
            if index == 0:
                lines.append("-" * len(lines[-1]))
        return "\n".join(lines)


def _op_detail(op, plan: QueryPlan) -> str:
    if isinstance(op, SingleScan):
        return f"singles over matches {op.indices}"
    if isinstance(op, PairPaths):
        singles = " +singles" if op.include_single_tuples else ""
        return f"matches ({op.first}, {op.second}){singles}"
    return f"networks over matches {op.indices}"


def _span_ms(span: Optional[trace_mod.Span]) -> Optional[float]:
    if span is None:
        return None
    return round(span.duration * 1000.0, 3)


def _build_rows(plan: QueryPlan, trace, stats) -> list[ExplainRow]:
    exec_span = next(trace.find("executor.execute"), None)
    plan_span = next(trace.find("plan.compile"), None)

    rows = [
        ExplainRow(
            "match",
            f"{', '.join(plan.keywords)} [{plan.semantics}] -> "
            + "+".join(str(len(match)) for match in plan.matches)
            + " tuples",
            _span_ms(plan_span),
        )
    ]

    op_spans: dict[int, trace_mod.Span] = {}
    prefetch_span = None
    rank_span = None
    if exec_span is not None:
        for child in exec_span.children:
            if child.name == "prefetch":
                prefetch_span = child
            elif child.name == "rank_cut":
                rank_span = child
            elif "op" in child.tags:
                op_spans[child.tags["op"]] = child
    if prefetch_span is not None:
        counters = dict(prefetch_span.counters)
        rows.append(
            ExplainRow("prefetch", "multi-source distance blocks",
                       _span_ms(prefetch_span), counters)
        )
    estimates = getattr(plan, "estimates", ())
    for position, op in enumerate(plan.sources):
        span = op_spans.get(position)
        counters = dict(span.counters) if span is not None else {}
        if position < len(estimates):
            entry = estimates[position]
            counters["est_candidates"] = round(entry.est_candidates, 1)
            counters["est_cost"] = round(entry.est_cost, 1)
        name = _op_label(op).removeprefix("op.")
        rows.append(
            ExplainRow(name, _op_detail(op, plan), _span_ms(span), counters)
        )
    if not plan.sources:
        rows.append(ExplainRow("(empty)", "plan has no sources", None))

    merge_mode = "coverage-major" if plan.merge.coverage_major else "score"
    cut_text = f"top-{plan.cut.k}" if plan.cut.k is not None else "no cut"
    rows.append(
        ExplainRow(
            "rank/cut",
            f"merge {merge_mode}, {cut_text}",
            _span_ms(rank_span),
            {"emitted": stats.emitted},
        )
    )

    total_counters = {
        "candidates": stats.candidates,
        "emitted": stats.emitted,
    }
    if estimates:
        total_counters["est_candidates"] = round(
            sum(entry.est_candidates for entry in estimates), 1
        )
    if stats.pruned:
        total_counters["pruned"] = stats.pruned
    if exec_span is not None:
        for name in ("cache_hits", "cache_misses"):
            if name in exec_span.counters:
                total_counters[name] = exec_span.counters[name]
    rows.append(
        ExplainRow("total", "", _span_ms(exec_span), total_counters)
    )
    return rows


def analyze(answer, query: str, semantics: str = "and") -> ExplainReport:
    """Answer ``query`` with tracing forced on and build the fused report.

    ``answer`` is an engine's query pipeline bound to the query and its
    options (``KeywordSearchEngine.explain_analyze`` passes it); called
    with the answer-cache lookup skipped, so the executor runs, and the
    plan costed, it returns ``(results, plan, stats)``.
    """
    previous = trace_mod.ENABLED
    trace_mod.set_enabled(True)
    try:
        with trace_mod.traced(
            "explain_analyze", query=query, semantics=semantics
        ) as qtrace:
            results, plan, stats = answer(lookup=False, annotate=True)
    finally:
        trace_mod.set_enabled(previous)
    return ExplainReport(
        query=query,
        semantics=semantics,
        plan=plan,
        trace=qtrace,
        stats=stats,
        results=results,
    )
