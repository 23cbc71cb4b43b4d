"""Flat counter snapshots — ``{name: int}`` dicts as
:meth:`~repro.core.engine.KeywordSearchEngine.metrics_snapshot` returns
them: the change between two, and the ``repro stats`` report."""

from __future__ import annotations

__all__ = ["diff_snapshots", "render_report"]


def diff_snapshots(before: dict, after: dict) -> dict:
    """The non-zero change of each counter from ``before`` to ``after``,
    sorted by name; a name ``before`` lacks counts from 0."""
    delta = {name: after[name] - before.get(name, 0) for name in sorted(after)}
    return {name: value for name, value in delta.items() if value}


def render_report(counters: dict, title: str = "metrics") -> str:
    """One ``name  value`` line per non-zero counter, sorted by name,
    under a ``== title ==`` heading; ``(empty)`` when none moved."""
    shown = {name: counters[name] for name in sorted(counters) if counters[name]}
    width = max(map(len, shown), default=0)
    lines = [f"== {title} =="]
    lines.extend(f"  {name:<{width}}  {value}" for name, value in shown.items())
    if not shown:
        lines.append("(empty)")
    return "\n".join(lines)
