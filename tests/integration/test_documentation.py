"""Guard the documentation: README/DESIGN claims must stay executable."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The README's quickstart block, verbatim."""
        from repro import KeywordSearchEngine, SearchLimits, build_company_database

        engine = KeywordSearchEngine(build_company_database())
        results = engine.search(
            "Smith XML", limits=SearchLimits(max_rdb_length=3)
        )
        assert results
        for result in results:
            assert engine.explain(result)

    def test_live_update_snippet_runs(self, capsys):
        """The README's live-update block, verbatim, on the company
        engine."""
        from repro import KeywordSearchEngine, build_company_database

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        blocks = [
            block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
            if "engine.apply(" in block and "changeset" in block
        ]
        assert len(blocks) == 1
        engine = KeywordSearchEngine(build_company_database())
        namespace = {"engine": engine}
        exec(compile(blocks[0], "README.md", "exec"), namespace)
        assert capsys.readouterr().out == "1 added, 1 updated -> engine version 1\n"
        assert [result.render() for result in namespace["results"]]

    def test_public_api_exports(self):
        """Everything the README's architecture section names is importable."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestCliDocumentation:
    def test_documented_commands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions  # noqa: SLF001 - argparse introspection
            if hasattr(action, "choices") and action.choices
        )
        assert set(subparsers.choices) == {
            "search", "snapshot", "stats", "plan", "reproduce",
            "analyze", "mtjnt", "generate", "wal",
        }


def experiment_index_rows():
    """``(id, [backticked check paths])`` per row of DESIGN.md's
    per-experiment index."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## Per-experiment index", 1)[1]
    rows = []
    for line in section.splitlines():
        match = re.match(r"\| ([A-Z]\d+) \|.*\| (.*) \|$", line)
        if match:
            paths = [token for token in match.group(2).split("`")[1::2]
                     if token.startswith(("tests/", "benchmarks/e2e/"))]
            rows.append((match.group(1), paths))
    return rows


class TestDesignExperimentIndex:
    def test_every_indexed_bench_file_exists(self):
        """Every path DESIGN.md's per-experiment index names exists."""
        for row, paths in experiment_index_rows():
            for path in paths:
                assert (REPO_ROOT / path.split("::")[0]).exists(), (row, path)

    def test_every_bench_file_is_indexed(self):
        """Every row of the index names the test file or end-to-end
        workload that checks it."""
        rows = experiment_index_rows()
        assert {"T1", "T2", "T3", "F1", "F2", "C1", "C2"} <= {
            row for row, __ in rows
        }
        for row, paths in rows:
            assert paths, row

    def test_experiments_md_covers_all_artefacts(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for heading in ("T1", "T2", "T3", "F1", "F2", "C1", "C2", "S1",
                        "S2", "S3", "A1", "A2"):
            assert f"## {heading}" in experiments, heading


class TestExamplesExist:
    def test_readme_examples_exist(self):
        """The README lists every example, and every one it lists exists."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.findall(r"python (examples/\S+\.py)", readme)
        assert listed
        for script in listed:
            assert (REPO_ROOT / script).exists(), script
        assert sorted(set(listed)) == sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "examples").glob("*.py")
        )

    def test_at_least_three_examples(self):
        assert len(list((REPO_ROOT / "examples").glob("*.py"))) >= 3
