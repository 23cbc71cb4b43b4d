"""Tests for the linter framework: suppressions, reporting, exit codes.

Runs against throwaway source trees under ``tmp_path`` so path handling
is exercised end-to-end without touching the repo's own tree.
"""

import io
import textwrap

from repro.analysis import (
    AnalysisReport,
    FileContext,
    Finding,
    analyze_paths,
    analyze_source,
    main,
)
from repro.analysis.rules import RULES

VIOLATION = textwrap.dedent(
    """
    def tag(obj):
        return id(obj)
    """
)


def make_tree(tmp_path, name="sample.py", source=VIOLATION):
    """A throwaway ``src/repro`` tree so default targets resolve."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True, exist_ok=True)
    (package / name).write_text(source, encoding="utf-8")
    return tmp_path


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
def test_finding_render_format():
    finding = Finding("DET02", "src/repro/x.py", 3, 4, "id() is bad", "f.g")
    assert finding.render() == "src/repro/x.py:3:4: DET02 id() is bad [f.g]"
    module_level = Finding("DET02", "x.py", 1, 0, "msg", "")
    assert module_level.render() == "x.py:1:0: DET02 msg"


def test_rule_registry_has_the_documented_battery():
    assert {rule.id for rule in RULES} == {"DET01", "DET02", "PKL01"}


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_same_line_suppression():
    # A justification after the ids may start with a capital word.
    for comment in ("disable=DET02", "disable=DET02 ID is a dedup key"):
        source = f"def tag(obj):\n    return id(obj)  # repro-lint: {comment}\n"
        findings = analyze_source(source, "src/repro/x.py")
        assert [f.rule for f in findings] == ["DET02"]
        ctx = FileContext(source, "src/repro/x.py")
        assert ctx.is_suppressed(findings[0]), comment


def test_comment_only_line_covers_the_next_line():
    source = (
        "def tag(obj):\n"
        "    # identity only feeds a debug label  # repro-lint: disable=DET02\n"
        "    return id(obj)\n"
    )
    ctx = FileContext(source, "src/repro/x.py")
    (finding,) = analyze_source(source, "src/repro/x.py")
    assert finding.line == 3
    assert ctx.is_suppressed(finding)


def test_suppression_only_silences_the_named_rules():
    source = "def tag(obj):\n    return id(obj)  # repro-lint: disable=DET01\n"
    ctx = FileContext(source, "src/repro/x.py")
    (finding,) = analyze_source(source, "src/repro/x.py")
    assert not ctx.is_suppressed(finding)


def test_multi_rule_suppression_comma_separated():
    for comment in ("disable=DET01, DET02", "disable=DET01,DET02 ID only"):
        source = f"def tag(obj):\n    return id(obj)  # repro-lint: {comment}\n"
        ctx = FileContext(source, "src/repro/x.py")
        (finding,) = analyze_source(source, "src/repro/x.py")
        assert ctx.is_suppressed(finding), comment


def test_marker_inside_string_literal_is_not_a_suppression():
    # The marker text in a string literal (docs, fixtures) must not
    # silence the line it sits on or the one below it.
    source = (
        'DOC = "use # repro-lint: disable=DET02 to silence"\n'
        "def tag(obj):\n"
        "    return id(obj)\n"
        'EXAMPLE = """\n'
        "# repro-lint: disable=DET02\n"
        '"""\n'
        "def tag2(obj):\n"
        "    return id(obj)\n"
    )
    ctx = FileContext(source, "src/repro/x.py")
    assert ctx.suppressions == {}
    findings = analyze_source(source, "src/repro/x.py")
    assert [f.rule for f in findings] == ["DET02", "DET02"]
    assert not any(ctx.is_suppressed(f) for f in findings)


def test_analyze_paths_classifies_suppressed(tmp_path):
    root = make_tree(
        tmp_path,
        source="def tag(obj):\n    return id(obj)  # repro-lint: disable=DET02\n",
    )
    report = analyze_paths(root=root)
    assert not report.new
    assert len(report.suppressed) == 1
    assert report.exit_code == 0


# ----------------------------------------------------------------------
# reporting and exit codes
# ----------------------------------------------------------------------
def test_exit_codes():
    assert AnalysisReport().exit_code == 0
    finding = Finding("DET02", "x.py", 1, 0, "m", "")
    assert AnalysisReport(new=[finding]).exit_code == 1
    assert AnalysisReport(errors=["boom"]).exit_code == 2


def test_unparseable_file_is_an_error_not_a_crash(tmp_path):
    root = make_tree(tmp_path, source="def broken(:\n")
    report = analyze_paths(root=root)
    assert report.errors and "SyntaxError" in report.errors[0]
    assert report.exit_code == 2


def test_missing_target_is_an_error(tmp_path):
    for missing in ("no/such/dir", "gone.py"):
        report = analyze_paths([tmp_path / missing], root=tmp_path)
        assert report.errors and missing in report.errors[0]
        assert report.exit_code == 2


def test_counts_include_suppressed_pressure(tmp_path):
    root = make_tree(
        tmp_path,
        source="def tag(obj):\n    return id(obj)  # repro-lint: disable=DET02\n",
    )
    report = analyze_paths(root=root)
    assert report.counts() == {"DET02": 1}


# ----------------------------------------------------------------------
# command-line entry points
# ----------------------------------------------------------------------
def run_main(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_main_reports_new_findings(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION, encoding="utf-8")
    code, output = run_main(str(target))
    assert code == 1
    assert "DET02" in output
    assert "1 new" in output
