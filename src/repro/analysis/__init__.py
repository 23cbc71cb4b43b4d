"""``repro.analysis`` — the AST-based invariant linter.

Run it as ``python -m repro.analysis [PATH...]``.  The visitor framework
lives in :mod:`repro.analysis.framework`, the rules (DET01, DET02,
PKL01) in :mod:`repro.analysis.rules`; both are importable for
programmatic use.
"""

from repro.analysis.framework import (
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    analyze_paths,
    analyze_source,
    main,
)

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "main",
]
