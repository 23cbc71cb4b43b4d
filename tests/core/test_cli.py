"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSearchCommand:
    def test_default_database_search(self):
        code, output = run("search", "Smith XML")
        assert code == 0
        assert "e1(Smith)" in output
        assert "d1(XML)" in output

    def test_ranker_choice_changes_order(self):
        __, closeness = run("search", "Smith XML", "--ranker", "closeness")
        __, rdb = run("search", "Smith XML", "--ranker", "rdb")
        assert closeness != rdb

    def test_top_k(self):
        code, output = run("search", "Smith XML", "--top", "2")
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 3  # two answers plus the pushdown report
        assert lines[-1].startswith("# top-2 pushdown: enumerated ")

    def test_top_k_report_counts_skipped_candidates(self):
        __, output = run("search", "Smith XML", "--top", "1", "--max-rdb", "4")
        report = output.strip().splitlines()[-1]
        assert "candidates (skipped" in report
        enumerated = int(report.split("enumerated ")[1].split(" ")[0])
        total = int(report.split(" of ")[1].split(" ")[0])
        assert enumerated < total

    def test_top_k_report_unbounded_ranker(self):
        __, output = run(
            "search", "Smith XML", "--top", "2", "--ranker", "ambiguity"
        )
        assert "no pushdown (ranker has no score lower bound)" in output

    def test_top_k_report_survives_budget_overrun(self):
        """Counting full enumeration may hit a budget the lazy top-k
        run skipped — the report must say so, not crash."""
        import argparse

        from repro.cli import _report_pushdown
        from repro.core.engine import KeywordSearchEngine
        from repro.core.ranking import ClosenessRanker
        from repro.core.search import SearchLimits
        from repro.datasets.synthetic import SyntheticConfig, generate_company_like
        from repro.datasets.workload import WorkloadConfig, generate_workload

        database = generate_company_like(
            SyntheticConfig(
                departments=8, projects_per_department=3,
                employees_per_department=8, works_on_per_employee=3, seed=17,
            )
        )
        query = generate_workload(
            database,
            WorkloadConfig(queries=1, keywords_per_query=2,
                           matches_per_keyword=3, seed=13),
        )[0].text
        engine = KeywordSearchEngine(database)
        limits = SearchLimits(max_rdb_length=6, max_paths_per_pair=5)
        ranker = ClosenessRanker()
        results = engine.search(query, ranker=ranker, limits=limits, top_k=2)
        assert results  # the lazy top-k never reaches the budget
        out = io.StringIO()
        args = argparse.Namespace(query=query, top=2, semantics="and")
        _report_pushdown(engine, args, ranker, limits, out)
        assert "full enumeration exceeds the search budget" in out.getvalue()

    def test_explain_mode(self):
        code, output = run("search", "Smith XML", "--explain")
        assert code == 0
        assert "verdict" in output

    def test_no_answers_exit_code(self):
        code, output = run("search", "unicorn rainbow")
        assert code == 1
        assert "no answers" in output

    def test_max_rdb_bound(self):
        __, short = run("search", "Smith XML", "--max-rdb", "1")
        __, longer = run("search", "Smith XML", "--max-rdb", "3")
        assert len(short.splitlines()) < len(longer.splitlines())

    def test_or_semantics_flag(self):
        code, output = run("search", "Smith unicorn", "--semantics", "or")
        assert code == 0
        assert "e1(Smith)" in output

    def test_group_flag(self):
        code, output = run("search", "Smith XML", "--group")
        assert code == 0
        assert "close (" in output
        assert "loose (" in output

    def test_role_qualified_query(self):
        code, output = run("search", "Smith XML@PROJECT")
        assert code == 0
        assert "XML@PROJECT" in output
        assert "d1(XML)" not in output


class TestReproduceCommand:
    def test_reproduce_runs_everything(self):
        code, output = run("reproduce")
        assert code == 0
        assert "Table 1" in output
        assert "Table 2" in output
        assert "Table 3" in output
        assert "Claim C1" in output
        assert "Claim C2" in output
        assert "lost (3, 4, 6, 7)" in output


class TestAnalyzeCommand:
    def test_analyze_company(self):
        code, output = run("analyze")
        assert code == 0
        assert "DEPARTMENT -- EMPLOYEE: both" in output

    def test_max_length_flag(self):
        __, short = run("analyze", "--max-length", "1")
        __, longer = run("analyze", "--max-length", "3")
        assert len(longer) > len(short)


class TestMtjntCommand:
    def test_paper_query(self):
        code, output = run("mtjnt", "Smith XML")
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 3
        assert "{d1, e1}" in output

    def test_no_networks_exit_code(self):
        code, output = run("mtjnt", "unicorn rainbow")
        assert code == 1


class TestGenerateCommand:
    def test_generate_and_reuse(self, tmp_path):
        path = tmp_path / "db.json"
        code, output = run("generate", "--departments", "2", "--out", str(path))
        assert code == 0
        assert path.exists()
        code, output = run("--db", str(path), "search", "project")
        assert code == 0

    def test_generated_size_scales(self, tmp_path):
        small = tmp_path / "small.json"
        large = tmp_path / "large.json"
        __, small_out = run("generate", "--departments", "2", "--out", str(small))
        __, large_out = run("generate", "--departments", "8", "--out", str(large))
        small_count = int(small_out.split()[1])
        large_count = int(large_out.split()[1])
        assert large_count > small_count


class TestBatchFlag:
    def test_batch_answers_every_query(self):
        code, output = run("search", "Smith XML; John Smith", "--batch")
        assert code == 0
        assert "== Smith XML ==" in output
        assert "== John Smith ==" in output
        assert "e1(Smith)" in output

    def test_batch_matches_single_runs(self):
        __, batched = run("search", "Smith XML; John Smith", "--batch")
        __, first = run("search", "Smith XML")
        __, second = run("search", "John Smith")
        body = [
            line for line in batched.splitlines() if not line.startswith("==")
        ]
        assert body == (first + second).splitlines()

    def test_batch_reports_empty_queries(self):
        code, output = run("search", "Smith XML; unicorn rainbow", "--batch")
        assert code == 0
        assert "no answers" in output

    def test_batch_all_empty_exit_code(self):
        code, __ = run("search", "unicorn rainbow; gryphon", "--batch")
        assert code == 1

    def test_slow_flag_same_answers(self):
        __, fast = run("search", "Smith XML")
        __, slow = run("search", "Smith XML", "--core", "reference")
        assert fast == slow

    def test_batch_only_separators_reports_no_queries(self):
        code, output = run("search", ";;;", "--batch")
        assert code == 1
        assert "no queries" in output


class TestStreamFlag:
    def test_stream_matches_plain_search(self):
        __, plain = run("search", "Smith XML")
        __, streamed = run("search", "Smith XML", "--stream")
        assert streamed == plain

    def test_stream_with_top_k(self):
        code, output = run("search", "Smith XML", "--stream", "--top", "2")
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("# top-2 pushdown: ")

    def test_stream_no_answers_exit_code(self):
        code, output = run("search", "unicorn rainbow", "--stream")
        assert code == 1
        assert "no answers" in output

    def test_stream_explain(self):
        code, output = run("search", "Smith XML", "--stream", "--explain")
        assert code == 0
        assert "verdict" in output

    def test_stream_rejects_batch(self):
        code, output = run("search", "Smith XML; John Smith",
                           "--batch", "--stream")
        assert code == 2
        assert "--stream cannot be combined" in output

    def test_stream_rejects_group(self):
        code, output = run("search", "Smith XML", "--group", "--stream")
        assert code == 2

    def test_stream_slow_core_same_answers(self):
        __, fast = run("search", "Smith XML", "--stream", "--top", "3")
        __, slow = run("search", "Smith XML", "--stream", "--top", "3",
                       "--core", "reference")
        assert fast == slow


class TestMutationsFlag:
    def write_batches(self, tmp_path):
        import json

        path = tmp_path / "mutations.json"
        path.write_text(json.dumps([
            [
                {"op": "insert", "relation": "DEPENDENT",
                 "values": {"ID": "t9", "ESSN": "e1",
                            "DEPENDENT_NAME": "Smith"}},
            ],
            [
                {"op": "update", "relation": "DEPARTMENT", "key": ["d2"],
                 "values": {"D_DESCRIPTION": "XML retrieval lab"}},
                {"op": "delete", "relation": "DEPENDENT", "key": ["t9"]},
            ],
        ]))
        return str(path)

    def test_replay_reports_live_summary(self, tmp_path):
        code, output = run(
            "search", "Smith XML", "--mutations", self.write_batches(tmp_path)
        )
        assert code == 0
        assert "# live: 2 batches" in output
        assert "engine version 2" in output
        assert "answer cache" in output

    def test_replay_results_match_fresh_engine(self, tmp_path):
        from repro.core.engine import KeywordSearchEngine
        from repro.datasets.company import build_company_database
        from repro.live.changes import load_mutation_batches

        from repro.core.search import SearchLimits

        path = self.write_batches(tmp_path)
        code, output = run("search", "Smith XML", "--mutations", path)
        database = build_company_database()
        for batch in load_mutation_batches(path):
            from repro.live.changes import apply_to_database

            apply_to_database(database, batch)
        expected = KeywordSearchEngine(database).search(
            "Smith XML", limits=SearchLimits(max_rdb_length=3)
        )
        for result in expected:
            assert result.answer.render() in output

    def test_incompatible_with_batch(self, tmp_path):
        code, output = run(
            "search", "Smith XML; Brown CS", "--batch",
            "--mutations", self.write_batches(tmp_path),
        )
        assert code == 2
        assert "--mutations" in output


class TestSnapshotCommand:
    def test_save_then_load_reports_state(self, tmp_path):
        path = str(tmp_path / "company.snap")
        code, output = run("snapshot", "save", path, "--shards", "2")
        assert code == 0
        assert "graph nodes" in output and "CSR entries" in output
        assert "shards:" in output
        code, output = run("snapshot", "load", path)
        assert code == 0
        assert "verified" in output
        assert "2 shards" in output

    def test_load_can_answer_a_query(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run("snapshot", "load", path, "--query", "Smith XML")
        assert code == 0
        assert "e1(Smith)" in output

    def test_load_and_wal_info_report_the_delta(self, tmp_path, monkeypatch):
        from repro.core.engine import KeywordSearchEngine
        from repro.scale import snapshot as snapshot_module

        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run("snapshot", "load", path)
        assert "base version 0, delta 0 record(s) in 0 bytes" in output

        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.apply([])
        engine.apply([])
        engine.compact_wal()
        engine.apply([])
        engine.close()
        code, output = run("snapshot", "load", path)
        assert code == 0
        assert "engine v2" in output
        assert "base version 0, delta 2 record(s) in " in output
        code, output = run("wal", "info", path)
        assert code == 0
        assert "engine version 2, base version 0, delta 2 record(s)" in output
        assert "paired, base version 2, 1 record(s)" in output

    def test_load_rejects_corruption(self, tmp_path):
        import pytest

        from repro.errors import SnapshotError

        path = tmp_path / "company.snap"
        run("snapshot", "save", str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            run("snapshot", "load", str(path))

    def test_search_from_snapshot(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        __, direct = run("search", "Smith XML")
        code, from_snapshot = run("search", "Smith XML", "--snapshot", path)
        assert code == 0
        assert from_snapshot == direct

    def test_snapshot_and_db_are_exclusive(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run(
            "--db", "whatever.json", "search", "x", "--snapshot", path
        )
        assert code == 2
        assert "mutually exclusive" in output


class TestParallelFlags:
    def test_jobs_requires_batch(self):
        code, output = run("search", "Smith XML", "--jobs", "2")
        assert code == 2
        assert "--jobs needs --batch" in output

    def test_batch_with_jobs_matches_serial(self):
        __, serial = run("search", "Smith XML; Brown CS", "--batch")
        code, parallel = run(
            "search", "Smith XML; Brown CS", "--batch", "--jobs", "2",
            "--shards", "2",
        )
        assert code == 0
        assert parallel.startswith(serial)
        assert "# parallel: 2 snapshot workers" in parallel

    def test_sharded_search_matches_plain(self):
        __, plain = run("search", "Smith XML")
        __, sharded = run("search", "Smith XML", "--shards", "3")
        assert sharded == plain


class TestHelpGrouping:
    def test_execution_options_are_grouped(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "search", "--help"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "execution:" in result.stdout
        section = result.stdout.split("execution:")[1]
        for flag in ("--core", "--stream", "--jobs", "--shards", "--snapshot"):
            assert flag in section


class TestMainModule:
    def test_python_dash_m_repro_smoke(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "snapshot" in result.stdout

    def test_python_dash_m_repro_runs_a_query(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "search", "Smith XML", "--top", "1"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "e1(Smith)" in result.stdout


class TestObservabilityFlags:
    def test_analyze_renders_per_node_table(self):
        code, output = run("search", "Smith XML", "--analyze")
        assert code == 0
        lines = output.splitlines()
        assert lines[0].startswith("EXPLAIN ANALYZE  query='Smith XML'")
        assert any(line.startswith("match") for line in lines)
        assert any(line.startswith("total") for line in lines)

    def test_analyze_rejects_batch(self):
        code, output = run("search", "a; b", "--analyze", "--batch")
        assert code == 2
        assert "--analyze answers one query on its own" in output

    def test_json_carries_stats(self):
        import json

        code, output = run("search", "Smith XML", "--json")
        assert code == 0
        doc = json.loads(output)
        assert doc["results"][0]["rank"] == 1
        assert doc["stats"]["candidates"] >= len(doc["results"])
        assert "trace" not in doc  # tracing was off

    def test_json_batch_groups_per_query(self):
        import json

        code, output = run("search", "Smith XML; Brown CS", "--batch",
                           "--json")
        assert code == 0
        doc = json.loads(output)
        assert [entry["query"] for entry in doc["results"]] == [
            "Smith XML", "Brown CS"
        ]
        assert doc["stats"]["emitted"] >= 1

    def test_trace_writes_jsonl_and_adds_summary(self, tmp_path):
        import json

        target = tmp_path / "trace.jsonl"
        code, output = run("search", "Smith XML", "--json",
                           "--trace", str(target))
        assert code == 0
        body, footer = output.rsplit("}\n", 1)
        doc = json.loads(body + "}")
        assert doc["trace"]["root"] == "query"
        assert doc["trace"]["spans"] >= 3
        assert f"# trace: {target}" in footer
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert records[0]["path"] == "query"
        assert any(r["name"] == "executor.execute" for r in records)
        from repro.obs import trace as obs_trace

        assert not obs_trace.ENABLED  # flag restored after the command

    def test_stats_command_prints_registry_report(self):
        code, output = run("stats")
        assert code == 0
        assert output.startswith("== repro stats — 3 queries ==")
        assert "executor.runs" in output
        assert "result_cache.misses" in output
        from repro.obs import metrics as obs_metrics

        assert not obs_metrics.ENABLED
        obs_metrics.REGISTRY.reset()

    def test_stats_custom_db_requires_query(self, tmp_path):
        code, output = run("--db", str(tmp_path / "x.json"), "stats")
        assert code == 2
        assert "stats needs QUERY" in output

    def test_stats_explicit_queries(self, tmp_path):
        db = tmp_path / "db.json"
        run("generate", "--departments", "2", "--out", str(db))
        code, output = run("--db", str(db), "stats", "kwx; kwy")
        assert code == 0
        assert "2 queries" in output
        from repro.obs import metrics as obs_metrics

        obs_metrics.REGISTRY.reset()
