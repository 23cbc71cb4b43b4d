"""The invariant linter's visitor framework.

This package is a *project-specific* static-analysis pass: it walks the
codebase's own ASTs and enforces the invariants every layer is gated on
— deterministic iteration, pickle-safe errors, frozen-structure
discipline, paired resource release — mechanically instead of by
convention.  The framework here is rule-agnostic; the rule battery
lives in :mod:`repro.analysis.rules`.

Pieces:

* **Rule registry.**  Rules subclass :class:`Rule` and register with
  :func:`register`; each receives one :class:`FileContext` per analysed
  file and yields :class:`Finding` objects.
* **File context.**  One parsed file with parent links, enclosing-scope
  names, per-line suppressions and the raw source — everything a rule
  needs to walk without re-deriving bookkeeping.
* **Suppressions.**  ``# repro-lint: disable=RULE[,RULE...]`` on the
  offending line (or on a comment-only line directly above it)
  silences those rules for that line.  Suppressed findings are counted,
  never silently dropped from the report totals.
* **Baseline.**  ``analysis/baseline.json`` lists findings that are
  known and intentionally deferred.  Baselined findings do not fail
  ``--strict``; a baseline entry that no longer matches anything is
  reported as stale so the file shrinks monotonically.
* **Output and exit codes.**  Human-readable lines or ``--json``;
  exit 0 when every finding is suppressed or baselined, 1 when new
  findings exist, 2 on usage/internal errors.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "Baseline",
    "AnalysisReport",
    "analyze_source",
    "analyze_paths",
    "default_targets",
    "default_baseline_path",
    "render_human",
    "render_json",
]

#: Comment markers recognised by the suppression scanner.
_SUPPRESS = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9_,\s]+)")


# ----------------------------------------------------------------------
# findings
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

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Baseline identity: deliberately *line-free* so a finding keeps
        matching its baseline entry while unrelated edits move it around."""
        return (self.rule, self.path, self.scope, self.message)

    def render(self) -> str:
        where = f" [{self.scope}]" if self.scope else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}"


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
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


_REGISTRY: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one rule instance to the global registry."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return cls


def all_rules() -> dict[str, Rule]:
    """The registered rule battery, importing the built-in rules once."""
    from repro.analysis import rules as _builtin  # noqa: F401  (registers)

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# file context
# ----------------------------------------------------------------------
class FileContext:
    """One parsed source file plus the bookkeeping every rule shares."""

    def __init__(self, source: str, rel_path: str) -> None:
        self.source = source
        self.rel_path = rel_path
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
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
            rules = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
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
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
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
# baseline
# ----------------------------------------------------------------------
class Baseline:
    """Known, intentionally deferred findings (``baseline.json``).

    Matching is by :attr:`Finding.key` with multiplicity: two identical
    deferred findings need two baseline entries, so fixing one of them
    surfaces the other instead of hiding behind a stale entry.
    """

    def __init__(self, entries: Sequence[dict]) -> None:
        self._budget: dict[tuple, int] = {}
        for entry in entries:
            key = (
                entry["rule"],
                entry["path"],
                entry.get("scope", ""),
                entry["message"],
            )
            self._budget[key] = self._budget.get(key, 0) + 1
        self._initial = dict(self._budget)

    @classmethod
    def load(cls, path: Optional[Path]) -> "Baseline":
        if path is None or not path.exists():
            return cls([])
        document = json.loads(path.read_text(encoding="utf-8"))
        return cls(document.get("entries", []))

    def absorb(self, finding: Finding) -> bool:
        """True (and one budget slot consumed) when the finding is baselined."""
        remaining = self._budget.get(finding.key, 0)
        if remaining <= 0:
            return False
        self._budget[finding.key] = remaining - 1
        return True

    def stale_entries(self) -> list[dict]:
        """Baseline entries that matched nothing in this run."""
        stale = []
        for key, remaining in self._budget.items():
            for __ in range(remaining):
                rule, path, scope, message = key
                stale.append(
                    {"rule": rule, "path": path, "scope": scope, "message": message}
                )
        return stale

    @staticmethod
    def entry_for(finding: Finding) -> dict:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "scope": finding.scope,
            "message": finding.message,
        }


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass(slots=True)
class AnalysisReport:
    """Outcome of one analysis run over a file set."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)
    files: int = 0
    errors: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Findings per rule over *all* findings (new + baselined +
        suppressed) — total rule pressure, not just what currently fails
        the gate."""
        totals: dict[str, int] = {}
        for finding in (*self.new, *self.baselined, *self.suppressed):
            totals[finding.rule] = totals.get(finding.rule, 0) + 1
        return dict(sorted(totals.items()))

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.new else 0


def analyze_source(
    source: str,
    rel_path: str,
    rules: Optional[dict[str, Rule]] = None,
) -> list[Finding]:
    """Every finding (suppressed ones included) for one source string.

    The test-fixture entry point: rules decide module-scoped behaviour
    (FRZ01 sanctioned modules, SLOT01 hot modules) from ``rel_path``, so
    fixtures can impersonate any file in the tree.
    """
    ctx = FileContext(source, rel_path)
    found: list[Finding] = []
    for rule in (rules or all_rules()).values():
        found.extend(rule.check(ctx))
    found.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return found


def default_targets(root: Optional[Path] = None) -> list[Path]:
    """The default analysis target: the library source tree."""
    root = root or _repo_root()
    return [root / "src" / "repro"]


def default_baseline_path(root: Optional[Path] = None) -> Path:
    root = root or _repo_root()
    return root / "src" / "repro" / "analysis" / "baseline.json"


def _repo_root() -> Path:
    # framework.py lives at src/repro/analysis/framework.py
    return Path(__file__).resolve().parents[3]


def _python_files(targets: Iterable[Path]) -> Iterator[Path]:
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        elif target.suffix == ".py":
            yield target


def analyze_paths(
    targets: Optional[Sequence[Path]] = None,
    *,
    baseline: Optional[Baseline] = None,
    rules: Optional[dict[str, Rule]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Analyse a file/directory set and classify every finding."""
    root = root or _repo_root()
    if targets is None:
        targets = default_targets(root)
    if baseline is None:
        baseline = Baseline.load(default_baseline_path(root))
    rules = rules if rules is not None else all_rules()
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
        file_findings: list[Finding] = []
        for rule in rules.values():
            file_findings.extend(rule.check(ctx))
        file_findings.sort(key=lambda f: (f.line, f.col, f.rule))
        for finding in file_findings:
            if ctx.is_suppressed(finding):
                report.suppressed.append(finding)
            elif baseline.absorb(finding):
                report.baselined.append(finding)
            else:
                report.new.append(finding)
    report.stale_baseline = baseline.stale_entries()
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_human(report: AnalysisReport, out, *, verbose: bool = False) -> None:
    for finding in report.new:
        print(finding.render(), file=out)
    if verbose:
        for finding in report.baselined:
            print(f"{finding.render()}  (baselined)", file=out)
        for finding in report.suppressed:
            print(f"{finding.render()}  (suppressed)", file=out)
    for entry in report.stale_baseline:
        print(
            f"stale baseline entry: {entry['rule']} {entry['path']} "
            f"[{entry['scope']}] {entry['message']}",
            file=out,
        )
    for error in report.errors:
        print(f"error: {error}", file=out)
    counts = report.counts()
    rendered = (
        ", ".join(f"{rule}={count}" for rule, count in counts.items())
        if counts
        else "none"
    )
    print(
        f"checked {report.files} files: {len(report.new)} new, "
        f"{len(report.baselined)} baselined, "
        f"{len(report.suppressed)} suppressed "
        f"(rule hits: {rendered})",
        file=out,
    )


def render_json(report: AnalysisReport) -> dict:
    def encode(finding: Finding) -> dict:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "scope": finding.scope,
        }

    return {
        "schema": "repro-lint-report/1",
        "files": report.files,
        "new": [encode(f) for f in report.new],
        "baselined": [encode(f) for f in report.baselined],
        "suppressed": [encode(f) for f in report.suppressed],
        "stale_baseline": report.stale_baseline,
        "errors": report.errors,
        "counts": report.counts(),
        "exit_code": report.exit_code,
    }
