"""Lock-in tests: the linter must catch this repo's own shipped bugs.

These tests mutate the *real* source files in memory to re-introduce
the exact bug shapes the rules were written for, and assert the lint
fails — so quietly reverting either fix makes CI red twice (here and
in the lint job).  The pristine sources must stay clean, and the whole
tree must gate green with only its documented suppressions.
"""

from functools import lru_cache
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.framework import FileContext

REPO_ROOT = Path(__file__).resolve().parents[2]
SEARCH_PATH = "src/repro/core/search.py"
CSR_PATH = "src/repro/graph/csr.py"
ERRORS_PATH = "src/repro/errors.py"


def read(rel_path):
    return (REPO_ROOT / rel_path).read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# PR 4: spanning-tree iteration order
# ----------------------------------------------------------------------
def test_reintroducing_pr4_spanning_tree_bug_fires_det01():
    # A network's spanning tree is Kruskal over its members' rows, and
    # the tie-break is the member order: walking the node set as
    # iterated would make the tree depend on the hash seed again.
    pristine = read(CSR_PATH)
    fixed = "for node in self._sort_ints(nodes):"
    assert fixed in pristine, "the PR 4 fix moved; update this lock-in test"
    broken = pristine.replace(fixed, "for node in nodes:")
    assert broken != pristine
    findings = [
        finding
        for finding in analyze_source(broken, CSR_PATH)
        if finding.rule == "DET01"
    ]
    assert findings, "DET01 no longer catches the PR 4 spanning-tree bug"
    assert any("'nodes'" in finding.message for finding in findings)


def test_pristine_search_module_has_no_det01():
    findings = analyze_source(read(SEARCH_PATH), SEARCH_PATH)
    assert not [f for f in findings if f.rule == "DET01"]


# ----------------------------------------------------------------------
# PR 5: stateful error subclasses crossing worker pipes
# ----------------------------------------------------------------------
def test_stateful_error_subclass_without_reduce_fires_pkl01():
    broken = read(ERRORS_PATH) + (
        "\n\n"
        "class RegressionShardError(ReproError):\n"
        '    """A hypothetical subclass someone adds without pickle care."""\n'
        "\n"
        "    def __init__(self, message, shard):\n"
        "        super().__init__(message)\n"
        "        self.shard = shard\n"
    )
    findings = [
        finding
        for finding in analyze_source(broken, ERRORS_PATH)
        if finding.rule == "PKL01"
    ]
    assert findings, "PKL01 no longer catches stateful errors without __reduce__"
    assert "RegressionShardError" in findings[0].message


def test_pristine_errors_module_has_no_pkl01():
    findings = analyze_source(read(ERRORS_PATH), ERRORS_PATH)
    assert not [f for f in findings if f.rule == "PKL01"]


# ----------------------------------------------------------------------
# the whole tree gates green
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def tree_report():
    # One pass over the tree, shared by the two tests below.
    return analyze_paths()


def test_repo_is_lint_clean_against_committed_baseline():
    # No baseline is committed any more: clean means no errors and no
    # unsuppressed finding at all.
    report = tree_report()
    assert not report.errors, report.errors
    assert not report.new, "\n".join(f.render() for f in report.new)


def test_every_suppression_in_tree_names_a_real_finding():
    # A suppression comment that silences nothing is dead weight —
    # either the code changed (remove it) or the rule regressed.  The
    # tree holds none: the last two (DET02 on an id()-keyed dedup of
    # edge-key strings in graph/csr.py) went with the strings.
    report = tree_report()
    assert not report.suppressed, "\n".join(f.render() for f in report.suppressed)
    commented = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if FileContext(path.read_text(encoding="utf-8"), str(path)).suppressions
    ]
    assert not commented, "a suppression silences nothing in " + ", ".join(commented)
