"""``repro.analysis`` — the AST-based invariant linter.

Run it as ``python -m repro.analysis`` or ``repro lint``.  The visitor
framework lives in :mod:`repro.analysis.framework`, the rule battery in
:mod:`repro.analysis.rules`; both are importable for programmatic use.
"""

from repro.analysis.framework import (
    AnalysisReport,
    Baseline,
    FileContext,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    default_baseline_path,
    default_targets,
    render_human,
    render_json,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "default_baseline_path",
    "default_targets",
    "render_human",
    "render_json",
    "main",
]


def main(argv=None, out=None) -> int:
    """CLI entry point shared by ``python -m repro.analysis`` and
    ``repro lint``; returns the process exit code."""
    from repro.analysis.__main__ import run

    return run(argv, out)
