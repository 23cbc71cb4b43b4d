"""EXPLAIN ANALYZE tests, including the snapshot acceptance scenario: a
two-keyword AND query answered from a reopened snapshot, rendered as a
per-plan-node table."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.obs import trace as obs_trace

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=31,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)


@pytest.fixture(scope="module")
def planted():
    database = generate_tenants(CONFIG, tenants=3)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    return database


class TestExplainAnalyze:
    def test_rows_cover_every_plan_stage(self, engine):
        report = engine.explain_analyze("Smith XML")
        nodes = [row.node for row in report.rows]
        assert nodes[0] == "match"
        assert "paths" in nodes
        assert nodes[-2:] == ["rank/cut", "total"]
        total = report.rows[-1]
        assert total.time_ms is not None and total.time_ms >= 0
        assert total.counters["candidates"] == report.stats.candidates
        assert total.counters["emitted"] == len(report.results)

    def test_render_is_a_table_with_header(self, engine):
        text = engine.explain_analyze("Smith XML", top_k=3).render()
        lines = text.splitlines()
        assert lines[0].startswith("EXPLAIN ANALYZE  query='Smith XML'")
        assert "mode=" in lines[0] and "core=" not in lines[0]
        assert lines[1].split()[:2] == ["node", "detail"]
        assert set(lines[2]) == {"-"}
        assert any(line.startswith("total") for line in lines)
        assert "top-3" in text

    def test_answers_match_plain_search_and_fill_cache(self, engine):
        plain = [
            (r.render(), r.score, r.rank) for r in engine.search("Smith XML")
        ]
        fresh = KeywordSearchEngine(engine.database)
        report = fresh.explain_analyze("Smith XML")
        analysed = [
            (r.render(), r.score, r.rank) for r in report.results
        ]
        assert analysed == plain
        before = fresh.result_cache.stats.hits
        fresh.search("Smith XML")
        assert fresh.result_cache.stats.hits == before + 1

    def test_tracing_flag_is_restored(self, engine):
        assert not obs_trace.ENABLED
        engine.explain_analyze("Smith XML")
        assert not obs_trace.ENABLED
        assert engine.last_trace is not None

    def test_to_dict_round_trips_rows(self, engine):
        doc = engine.explain_analyze("Smith XML").to_dict()
        assert doc["query"] == "Smith XML" and "core" not in doc
        assert doc["stats"]["emitted"] == doc["rows"][-1]["counters"]["emitted"]

    def test_acceptance_snapshot_pool(self, planted, tmp_path):
        """The end-to-end path: 2-keyword AND query, engine reopened
        from a snapshot and analysed."""
        path = tmp_path / "engine.snap"
        KeywordSearchEngine(planted).save(path)
        engine = KeywordSearchEngine.open(path)
        report = engine.explain_analyze("kwalpha kwbeta", limits=LIMITS)

        nodes = [row.node for row in report.rows]
        assert nodes[0] == "match" and nodes[-1] == "total"
        paths_row = next(row for row in report.rows if row.node == "paths")
        assert paths_row.time_ms is not None
        assert paths_row.counters["produced"] >= 1
        total = report.rows[-1]
        assert total.counters["candidates"] >= 1

        # analysed answers are the plain answers
        serial = KeywordSearchEngine(planted)
        expected = [
            (r.render(), r.score, r.rank)
            for r in serial.search("kwalpha kwbeta", limits=LIMITS)
        ]
        assert [
            (r.render(), r.score, r.rank) for r in report.results
        ] == expected

    def test_metrics_snapshot_reflects_enabled_runs(self, engine):
        """The engine's counters move with every run, tracing on or off."""
        assert engine.metrics_snapshot()["result_cache.misses"] == 0
        engine.search("Smith XML")
        obs_trace.set_enabled(True)
        try:
            engine.search("Brown CS")
        finally:
            obs_trace.set_enabled(False)
        counters = engine.metrics_snapshot()
        assert counters["result_cache.misses"] == 2
        assert counters["result_cache.stores"] == 2
