"""The invariant linter's visitor framework.

This package is a *project-specific* static-analysis pass: it walks the
codebase's own ASTs and enforces the invariants whose violations this
codebase actually shipped — deterministic iteration and pickle-safe
errors — mechanically instead of by convention.  The framework here is
rule-agnostic; the rules live in :mod:`repro.analysis.rules`.

Pieces:

* **Rules.**  Rules subclass :class:`Rule`; each receives one
  :class:`FileContext` per analysed file and yields :class:`Finding`
  objects.  :data:`repro.analysis.rules.RULES` holds the battery.
* **File context.**  One parsed file with parent links, enclosing-scope
  names, per-line suppressions and the raw source — everything a rule
  needs to walk without re-deriving bookkeeping.
* **Suppressions.**  ``# repro-lint: disable=RULE[,RULE...]`` on the
  offending line (or on a comment-only line directly above it)
  silences those rules for that line; a justification may follow the
  ids.  Suppressed findings are counted, never silently dropped from
  the report totals.
* **Output and exit codes.**  One line per unsuppressed finding and a
  summary; exit 0 when every finding is suppressed, 1 when unsuppressed
  findings exist, 2 on usage errors, unreadable files or missing
  targets.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "AnalysisReport",
    "analyze_source",
    "analyze_paths",
    "main",
]

#: Comment markers recognised by the suppression scanner: rule ids are
#: ``DET01``-style tokens separated by commas; anything after them is a
#: free-form justification.
_SUPPRESS = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)


# ----------------------------------------------------------------------
# findings and rules
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path relative to the repo root
    line: int
    col: int
    message: str
    scope: str  # dotted enclosing class/function chain, "" at module level

    def render(self) -> str:
        where = f" [{self.scope}]" if self.scope else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}"


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id`` (``DET01``-style), ``title`` and
    ``rationale`` and implement :meth:`check`.  Rules must be pure
    functions of the context — the runner may call them in any order.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            scope=ctx.scope_of(node),
        )


# ----------------------------------------------------------------------
# file context
# ----------------------------------------------------------------------
class FileContext:
    """One parsed source file plus the bookkeeping every rule shares."""

    def __init__(self, source: str, rel_path: str) -> None:
        self.source = source
        self.rel_path = rel_path
        self.tree = ast.parse(source)
        #: Every node once, in ``ast.walk`` order, so rules iterate
        #: instead of re-walking the tree.
        self.nodes = list(ast.walk(self.tree))
        self.parents: dict[ast.AST, ast.AST] = {}
        self._scopes: dict[ast.AST, str] = {}
        self._walk(self.tree, None, ())
        self.suppressions = self._scan_suppressions()

    def _walk(self, node: ast.AST, parent: Optional[ast.AST], scope: tuple) -> None:
        if parent is not None:
            self.parents[node] = parent
        self._scopes[node] = ".".join(scope)
        child_scope = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            child_scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            self._walk(child, node, child_scope)

    def _scan_suppressions(self) -> dict[int, frozenset]:
        """Line number -> rule ids silenced there.

        Scans real ``COMMENT`` tokens, so the marker text appearing
        inside a string literal (docs, fixtures) is never a suppression.
        A suppression on a comment-only line also covers the next line,
        so multi-clause statements can keep the justification above the
        code instead of trailing an already-long line.
        """
        suppressed: dict[int, set] = {}
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except tokenize.TokenError:  # pragma: no cover - ast.parse passed
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS.search(token.string)
            if not match:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            number = token.start[0]
            suppressed.setdefault(number, set()).update(rules)
            if not token.line[: token.start[1]].strip():
                suppressed.setdefault(number + 1, set()).update(rules)
        return {line: frozenset(rules) for line, rules in suppressed.items()}

    # ------------------------------------------------------------------
    # queries rules use
    # ------------------------------------------------------------------
    def scope_of(self, node: ast.AST) -> str:
        return self._scopes.get(node, "")

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def functions(self) -> Iterator[ast.FunctionDef]:
        for node in self.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in self.nodes:
            if isinstance(node, ast.ClassDef):
                yield node

    def enclosing_function(self, node: ast.AST) -> Optional[ast.FunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        return rules is not None and finding.rule in rules


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass(slots=True)
class AnalysisReport:
    """Outcome of one analysis run over a file set."""

    new: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Findings per rule over *all* findings (new + suppressed) —
        total rule pressure, not just what currently fails the gate."""
        totals: dict[str, int] = {}
        for finding in (*self.new, *self.suppressed):
            totals[finding.rule] = totals.get(finding.rule, 0) + 1
        return dict(sorted(totals.items()))

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.new else 0


def _check(ctx: FileContext) -> list[Finding]:
    from repro.analysis.rules import RULES

    found = [finding for rule in RULES for finding in rule.check(ctx)]
    found.sort(key=lambda f: (f.line, f.col, f.rule))
    return found


def analyze_source(source: str, rel_path: str) -> list[Finding]:
    """Every finding (suppressed ones included) for one source string.

    The test-fixture entry point: ``rel_path`` names the file in
    findings, so fixtures can impersonate any file in the tree.
    """
    return _check(FileContext(source, rel_path))


def _python_files(targets: Iterable[Path]) -> Iterator[Path]:
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        elif target.suffix == ".py" or not target.exists():
            # A missing target fails to read below: an error, not a pass.
            yield target


def analyze_paths(
    targets: Optional[Sequence[Path]] = None,
    *,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Analyse a file/directory set and classify every finding."""
    # framework.py lives at src/repro/analysis/framework.py
    root = root or Path(__file__).resolve().parents[3]
    if targets is None:
        targets = [root / "src" / "repro"]  # the library source tree
    report = AnalysisReport()
    for path in _python_files(Path(target) for target in targets):
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(source, rel)
        except (OSError, SyntaxError, ValueError) as error:
            report.errors.append(f"{rel}: {type(error).__name__}: {error}")
            continue
        report.files += 1
        for finding in _check(ctx):
            if ctx.is_suppressed(finding):
                report.suppressed.append(finding)
            else:
                report.new.append(finding)
    return report


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def main(argv=None, out=None) -> int:
    """``python -m repro.analysis [PATH...]``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter: deterministic iteration "
        "and pickle-safe errors",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyse (default: src/repro)",
    )
    args = parser.parse_args(argv)
    targets = [Path(path) for path in args.paths] if args.paths else None
    report = analyze_paths(targets)
    out = out or sys.stdout
    for finding in report.new:
        print(finding.render(), file=out)
    for error in report.errors:
        print(f"error: {error}", file=out)
    hits = ", ".join(f"{rule}={n}" for rule, n in report.counts().items())
    print(
        f"checked {report.files} files: {len(report.new)} new, "
        f"{len(report.suppressed)} suppressed (rule hits: {hits or 'none'})",
        file=out,
    )
    return report.exit_code
