"""Pooled batch dispatch: the recorded cut is contiguous."""

from __future__ import annotations

from repro.core.engine import KeywordSearchEngine


class TestBatchRouting:
    def test_pool_batch_records_cost_assignment(self, company_db, tmp_path):
        # The name predates the removal of cost routing; the benchmark
        # still reads ``last_assignment``, which now holds the
        # contiguous cut every pooled batch uses.
        path = str(tmp_path / "route.snap")
        KeywordSearchEngine(company_db).save(path)
        engine = KeywordSearchEngine.open(path, adaptive=True)
        queries = ["Smith XML", "Brown CS", "Smith Brown", "Research Smith"]
        try:
            engine.search_batch(queries, top_k=3, jobs=2)
            searcher = engine._searcher
            assert searcher is not None
            assert searcher.last_assignment == [[0, 1], [2, 3]]
        finally:
            engine.close_pool()
            engine.close()
