"""Unit tests for the command-line interface."""

import io
from pathlib import Path

import pytest

from repro.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def oracle_lines(query, top_k=None, max_rdb=3):
    """The CLI's answer lines for ``query`` over the company example as
    :func:`repro.oracle.search` ranks them (``repro search`` defaults to
    ``--max-rdb 3``)."""
    from repro.cli import _print_result_line
    from repro.core.search import SearchLimits
    from repro.datasets.company import build_company_database
    from repro.oracle import search

    out = io.StringIO()
    for result in search(
        build_company_database(), query,
        limits=SearchLimits(max_rdb_length=max_rdb), top_k=top_k,
    ):
        _print_result_line(result, out)
    return out.getvalue().splitlines()


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
        from repro.datasets.synthetic import (
            SyntheticConfig,
            generate_company_like,
            plant,
        )

        database = generate_company_like(
            SyntheticConfig(
                departments=8, projects_per_department=3,
                employees_per_department=8, works_on_per_employee=3, seed=17,
            )
        )
        plant(database, "qk1", "DEPARTMENT", "D_DESCRIPTION", 3, seed=556216509)
        plant(database, "qk2", "PROJECT", "P_DESCRIPTION", 3, seed=624397381)
        query = "qk1 qk2"
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
        """The paper's tables and claims are named in the output — kept
        beside the golden bytes so that regenerating the golden file
        cannot quietly drop one."""
        code, output = run("reproduce")
        assert code == 0
        assert "Table 1" in output
        assert "Table 2" in output
        assert "Table 3" in output
        assert "Claim C1" in output
        assert "Claim C2" in output
        assert "lost (3, 4, 6, 7)" in output

    def test_reproduce_prints_the_golden_bytes(self):
        """Every table, figure and claim, byte for byte (the table rows
        keep their trailing padding)."""
        code, output = run("reproduce")
        assert code == 0
        golden = Path(__file__).with_name("reproduce.golden.txt")
        assert output == golden.read_text(encoding="utf-8")


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
        __, served = run("search", "Smith XML")
        assert served.splitlines() == oracle_lines("Smith XML")

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
        __, streamed = run("search", "Smith XML", "--stream", "--top", "3")
        lines = streamed.splitlines()
        assert lines[-1].startswith("# top-3 pushdown: ")
        assert lines[:-1] == oracle_lines("Smith XML", top_k=3)


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
        code, output = run("snapshot", "save", path)
        assert code == 0
        assert "graph nodes" in output and "CSR entries" in output
        code, output = run("snapshot", "load", path)
        assert code == 0
        assert "verified" in output

    def test_save_and_load_report_no_core(self, tmp_path):
        """New snapshots record no traversal core, and one whose meta
        still names ``reference`` loads and reports like any other."""
        from repro.core.search import SearchLimits
        from repro.scale import snapshot as snapshot_module
        from repro.scale.snapshot import SNAPSHOT_FORMAT, Snapshot

        path = tmp_path / "company.snap"
        code, saved = run("snapshot", "save", str(path))
        assert code == 0 and "core" not in saved
        with Snapshot(path) as snapshot:
            assert "core" not in snapshot.meta
            meta = dict(snapshot.meta, core="reference")
            sections = [
                (name, snapshot_module._json_bytes(meta) if name == "meta"
                 else bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        legacy = tmp_path / "legacy.snap"
        snapshot_module._publish(legacy, SNAPSHOT_FORMAT, sections)
        for snap in (path, legacy):
            code, output = run("snapshot", "load", str(snap))
            assert code == 0
            assert "verified" in output and "core" not in output
        code, output = run(
            "snapshot", "load", str(legacy), "--query", "Smith XML"
        )
        assert code == 0
        assert output.splitlines()[2:] == oracle_lines(
            "Smith XML", max_rdb=SearchLimits().max_rdb_length
        )

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
        assert "  v3 @ " in output and ": 0 mutation(s)" in output

    def test_load_rejects_corruption(self, tmp_path):
        path = tmp_path / "company.snap"
        run("snapshot", "save", str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        code, output = run("snapshot", "load", str(path))
        assert code == 1
        assert output.startswith("error: ")
        assert "verified" not in output

    def test_load_checks_every_rows_section(self, tmp_path):
        """``snapshot load`` checks each ``rows:<R>`` section's structure,
        not only its CRC: a CRC-valid damaged one fails the command with
        the error before anything is reported as verified."""
        import json
        import subprocess
        import sys

        from repro.scale import snapshot as snapshot_module
        from repro.scale.snapshot import SNAPSHOT_FORMAT, Snapshot

        path = tmp_path / "company.snap"
        run("snapshot", "save", str(path))
        with Snapshot(path) as snapshot:
            sections = [
                (name, bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        damaged = []
        for name, blob in sections:
            if name == "rows:EMPLOYEE":
                # The last column one value short: a plain column loses
                # its last value, a string-coded one its last code.
                document = json.loads(blob)
                if document["columns"][-1] is not None:
                    document["columns"][-1].pop()
                    blob = snapshot_module._json_bytes(document)
            elif name == "codes:EMPLOYEE" and blob:
                blob = blob[:-4]
            damaged.append((name, blob))
        snapshot_module._publish(path, SNAPSHOT_FORMAT, damaged)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "snapshot", "load", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "verified" not in result.stdout
        assert "snapshot rows section is inconsistent" in result.stdout
        assert "rows:EMPLOYEE" in result.stdout
        assert "Traceback" not in result.stderr

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
        for extra in ((), ("--analyze",)):
            code, output = run("search", "Smith XML", "--jobs", "2", *extra)
            assert code == 2
            assert "--jobs needs --batch" in output

    def test_batch_with_jobs_matches_serial(self):
        __, serial = run("search", "Smith XML; Brown CS", "--batch")
        code, parallel = run(
            "search", "Smith XML; Brown CS", "--batch", "--jobs", "2",
        )
        assert code == 0
        assert parallel.startswith(serial)
        assert "# parallel: 1 forked worker plus this process" in parallel

    def test_batch_without_fork_claims_no_worker(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        __, serial = run("search", "Smith XML; Brown CS", "--batch")
        code, jobs = run(
            "search", "Smith XML; Brown CS", "--batch", "--jobs", "2",
        )
        assert code == 0
        assert jobs == serial


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
        for flag in ("--stream", "--jobs", "--snapshot"):
            assert flag in section
        assert "--shards" not in result.stdout
        assert "--core" not in result.stdout


class TestPlanCommand:
    @pytest.mark.parametrize("command", ["search", "plan"])
    def test_static_plan_flag_is_refused(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(command, "Smith XML", "--static-plan")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --static-plan" in capsys.readouterr().err
        code, output = run("plan", "Smith XML")
        assert code == 0
        assert output.endswith(
            "# planner: adaptive (cost model over posting lengths x "
            "a fixed fan-out)\n"
        )


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

    @pytest.mark.parametrize("argv", [
        ["search", ""],
        ["search", "Smith XML", "--top", "-1"],
        ["plan", "Smith XML", "--top", "-1"],
    ])
    def test_bad_input_is_one_error_line(self, argv):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert result.stdout.startswith("error: ")
        assert len(result.stdout.splitlines()) == 1
        assert "Traceback" not in result.stdout + result.stderr


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
        assert "traversal_cache.misses" in output
        from repro.obs import trace as obs_trace

        assert not obs_trace.ENABLED

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


def saved_snapshot_with_wal(tmp_path, records=1):
    """The company example saved as a snapshot, with ``records`` batches
    of one dependent insert each in its write-ahead log."""
    from repro.core.engine import KeywordSearchEngine
    from repro.live.changes import Insert

    path = str(tmp_path / "company.snap")
    run("snapshot", "save", path)
    engine = KeywordSearchEngine.open(path, wal=True)
    for number in range(records):
        engine.apply([Insert("DEPENDENT", {
            "ID": f"t{10 + number}", "ESSN": "e1", "DEPENDENT_NAME": "Smith",
        })])
    engine.close()
    return path


class TestWalCommand:
    def test_search_from_snapshot_reports_the_replay(self, tmp_path):
        from repro.durable import default_wal_path

        path = saved_snapshot_with_wal(tmp_path, records=2)
        code, output = run("search", "Smith XML", "--snapshot", path, "--wal")
        assert code == 0
        first = output.splitlines()[0]
        assert first.startswith(f"# wal: {default_wal_path(path)} (generation ")
        assert first.endswith(", 2 record(s) replayed)")

    def test_wal_needs_a_snapshot(self):
        code, output = run("search", "Smith XML", "--wal")
        assert code == 2
        assert output == (
            "--wal needs --snapshot (the log is paired with a snapshot)\n"
        )

    def test_info_without_a_log(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run("wal", "info", path)
        assert code == 1
        assert output.endswith(": no write-ahead log\n")

    def test_info_reports_a_corrupt_log(self, tmp_path):
        from repro.durable import WriteAheadLog, default_wal_path

        path = saved_snapshot_with_wal(tmp_path, records=2)
        wal_path = default_wal_path(path)
        with WriteAheadLog(wal_path) as wal:
            first_offset = wal.scan()[0][0]
        with open(wal_path, "r+b") as handle:
            handle.seek(first_offset + 12)  # inside record 1's payload
            handle.write(b"\xff")
        code, output = run("wal", "info", path)
        assert code == 1
        assert output.splitlines()[-1].startswith(f"{wal_path}: corrupt (")

    def test_info_flags_a_generation_mismatch(self, tmp_path):
        path = saved_snapshot_with_wal(tmp_path)
        other = tmp_path / "other.json"
        run("generate", "--departments", "1", "--out", str(other))
        # Another database saved over the snapshot the log is paired with.
        run("--db", str(other), "snapshot", "save", path)
        code, output = run("wal", "info", path)
        assert code == 0
        assert "MISMATCH (snapshot is " in output

    def test_compact_folds_the_log(self, tmp_path):
        path = saved_snapshot_with_wal(tmp_path, records=2)
        code, output = run("wal", "compact", path)
        assert code == 0
        assert output.startswith(f"folded 2 WAL record(s) into {path} ")
        assert output.rstrip().endswith("engine version 2)")
        code, output = run("wal", "info", path)
        assert code == 0
        assert "paired, base version 2, 0 record(s)" in output

    def test_compact_to_a_copy_leaves_the_pair(self, tmp_path):
        path = saved_snapshot_with_wal(tmp_path)
        copy = str(tmp_path / "copy.snap")
        code, output = run("wal", "compact", path, "--out", copy)
        assert code == 0
        assert output.startswith(f"folded 1 WAL record(s) into {copy} ")
        __, original = run("wal", "info", path)
        assert "paired, base version 0, 1 record(s)" in original
        __, from_copy = run("search", "Smith XML", "--snapshot", copy)
        __, from_original = run(
            "search", "Smith XML", "--snapshot", path, "--wal"
        )
        assert from_copy == from_original.split("\n", 1)[1]

    def test_compact_failure_is_one_line(self, tmp_path):
        from repro.durable import default_wal_path

        path = saved_snapshot_with_wal(tmp_path)
        open(default_wal_path(path), "wb").write(b"not a log at all")
        code, output = run("wal", "compact", path)
        assert code == 1
        assert output.startswith("wal compact failed: not a WAL file")
        assert len(output.splitlines()) == 1


class TestSnapshotOptions:
    def test_load_query_without_answers(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run("snapshot", "load", path, "--query", "Smith unicorn")
        assert code == 1
        assert output.splitlines()[-1] == "no answers"

    def test_plan_from_snapshot_equals_plan_from_db(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, from_snapshot = run("plan", "Smith XML", "--snapshot", path)
        assert code == 0
        assert from_snapshot == run("plan", "Smith XML")[1]

    def test_plan_snapshot_and_db_are_exclusive(self, tmp_path):
        path = str(tmp_path / "company.snap")
        run("snapshot", "save", path)
        code, output = run(
            "--db", "whatever.json", "plan", "x", "--snapshot", path
        )
        assert code == 2
        assert "mutually exclusive" in output


class TestFlagCombinations:
    def test_mutations_without_answers(self, tmp_path):
        path = TestMutationsFlag().write_batches(tmp_path)
        code, output = run("search", "Smith unicorn", "--mutations", path)
        assert code == 1
        lines = output.splitlines()
        assert lines[0] == "no answers"
        assert lines[1].startswith("# live: 2 batches")

    @pytest.mark.parametrize("flag", ["--stream", "--group"])
    def test_json_refuses_incompatible_output(self, flag):
        code, output = run("search", "Smith XML", "--json", flag)
        assert code == 2
        assert output.startswith("--json cannot be combined with")

    def test_analyze_json_is_the_report_document(self):
        import json

        code, output = run("search", "Smith XML", "--analyze", "--json")
        assert code == 0
        document = json.loads(output)
        assert (document["query"], document["semantics"]) == ("Smith XML", "and")
        assert document["stats"]["emitted"] == 7
        assert [row["node"] for row in document["rows"]][:3] == [
            "match", "prefetch", "paths"
        ]

    def test_analyze_with_trace_writes_the_trace(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, output = run(
            "search", "Smith XML", "--analyze", "--trace", str(target)
        )
        assert code == 0
        assert output.splitlines()[-1] == f"# trace: {target}"
        assert target.read_text().startswith("{")
