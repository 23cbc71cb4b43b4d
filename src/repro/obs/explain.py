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
        "pool_trace",
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
        mode: str,
        pool_trace: Optional[trace_mod.QueryTrace] = None,
    ) -> None:
        self.query = query
        self.semantics = semantics
        self.plan = plan
        self.trace = trace
        self.stats = stats
        self.results = results
        self.mode = mode
        self.pool_trace = pool_trace
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
        if self.pool_trace is not None:
            workers = sum(
                1 for node in self.pool_trace.walk() if node.name == "worker.batch"
            )
            lines.append(
                f"pool: {workers} worker batch trace(s) merged "
                f"(engine.last_trace of the pooled pass)"
            )
        return "\n".join(lines)


def _op_name(op) -> str:
    if isinstance(op, SingleScan):
        return "scan"
    if isinstance(op, PairPaths):
        return "paths"
    return "networks"


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
        rows.append(
            ExplainRow(
                _op_name(op), _op_detail(op, plan), _span_ms(span), counters
            )
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


def analyze(
    engine,
    query: str,
    *,
    ranker=None,
    limits=None,
    top_k: Optional[int] = None,
    semantics: str = "and",
    pushdown: Optional[bool] = None,
    jobs: Optional[int] = None,
) -> ExplainReport:
    """Run ``query`` with tracing forced on and build the fused report.

    ``jobs > 1`` first runs the query through the worker pool (so the
    report can attach the pooled pass's merged trace — one adopted root
    per worker chunk), then performs the serially-traced run the
    per-node table is built from.  Answers of both passes are
    bit-identical to a plain ``engine.search``.
    """
    ranker = ranker or engine.ranker
    limits = limits or engine.limits
    previous = trace_mod.ENABLED
    trace_mod.set_enabled(True)
    try:
        pool_trace = None
        if jobs is not None and jobs > 1:
            engine.search_batch(
                [query],
                ranker=ranker,
                limits=limits,
                top_k=top_k,
                semantics=semantics,
                pushdown=pushdown,
                jobs=jobs,
            )
            pool_trace = engine.last_trace
        qtrace = trace_mod.begin_trace(
            "explain_analyze", query=query, semantics=semantics
        )
        try:
            with trace_mod.span("plan.compile"):
                plan, matches = engine._plan(query, top_k, semantics)
                if engine.adaptive:
                    plan = engine._ensure_cost_model().annotate(plan)
            version = engine.version
            executor = engine._executor()
            results = executor.run(plan, ranker, limits, pushdown=pushdown)
        finally:
            trace_mod.end_trace(qtrace)
        engine.last_stats = executor.stats
        engine.last_trace = qtrace
        key = engine._cache_key(query, ranker, limits, top_k, semantics, pushdown)
        if key is not None and engine.version == version:
            engine._cache_store(key, ranker, matches, results, executor.stats)
    finally:
        trace_mod.set_enabled(previous)
    exec_span = next(qtrace.find("executor.execute"), None)
    mode = exec_span.tags.get("mode", "?") if exec_span is not None else "?"
    return ExplainReport(
        query=query,
        semantics=semantics,
        plan=plan,
        trace=qtrace,
        stats=executor.stats,
        results=results,
        mode=mode,
        pool_trace=pool_trace,
    )
