"""Unit tests for the planner cost model."""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import build_company_database
from repro.live.changes import Insert
from repro.planner import CostModel, UnitEstimate
from repro.scale import snapshot as snapshot_module


class TestCostModel:
    def test_pair_plan_estimates_align_with_sources(self, engine):
        plan = engine._plan("Smith XML", None, "and")
        model = CostModel(engine.index)
        estimates = model.estimate_plan(plan)
        assert len(estimates) == len(plan.sources)
        assert all(isinstance(entry, UnitEstimate) for entry in estimates)
        (pair,) = estimates
        assert pair.kind == "paths"
        n1, n2 = (len(match) for match in plan.matches)
        assert pair.units == n1 * n2
        assert pair.est_cost >= pair.est_candidates >= pair.units

    def test_or_plan_estimates_cover_every_source(self, engine):
        plan = engine._plan("Smith Brown XML", None, "or")
        model = CostModel(engine.index)
        estimates = model.estimate_plan(plan)
        assert [e.kind for e in estimates] == [
            "scan" if type(op).__name__ == "SingleScan"
            else "paths" if type(op).__name__ == "PairPaths"
            else "networks"
            for op in plan.sources
        ]
        scan = estimates[0]
        assert scan.est_candidates == scan.units  # scans are exact

    def test_annotate_attaches_estimates_without_changing_ops(self, engine):
        plan = engine._plan("Smith XML", None, "and")
        annotated = CostModel(engine.index).annotate(plan)
        assert annotated.sources == plan.sources
        assert annotated.matches == plan.matches
        assert len(annotated.estimates) == len(plan.sources)


class TestQueryCost:
    def test_zero_match_and_query_is_cheap(self, engine):
        cost = CostModel(engine.index).query_cost(
            ["smith", "zzznothing"], "and")
        assert cost == 1.0

    def test_heavier_postings_cost_more(self, engine):
        model = CostModel(engine.index)
        hot = model.query_cost(["smith", "xml"], "and")
        cold = model.query_cost(["smith", "canada"], "and")
        assert hot > cold > 0

    def test_or_semantics_never_cheaper_than_and(self, engine):
        model = CostModel(engine.index)
        keywords = ["smith", "brown", "xml"]
        assert (model.query_cost(keywords, "or")
                >= model.query_cost(keywords, "and"))

    def test_engine_query_cost_handles_bad_queries(self, engine):
        assert engine.query_cost("") == 1.0
        assert engine.query_cost("smith xml") > 1.0


class TestPostingLength:
    def test_matches_materialised_postings(self, engine):
        index = engine.index
        for token in ("smith", "xml", "brown"):
            assert index.posting_length(token) == len(index.postings(token))

    def test_unknown_token_is_zero(self, engine):
        assert engine.index.posting_length("zzznothing") == 0

    def test_lazy_snapshot_postings_stay_undecoded(self, company_db, tmp_path):
        path = str(tmp_path / "db.snap")
        KeywordSearchEngine(company_db).save(path)
        opened = KeywordSearchEngine.open(path)
        try:
            length = opened.index.posting_length("smith")
            assert length == len(
                KeywordSearchEngine(company_db).index.postings("smith"))
            # The cheap accessor must not have decoded the posting list.
            assert not dict.__contains__(opened.index._postings, "smith")
        finally:
            opened.close()


class TestEveryEngineEstimatesAlike:
    """Estimates read posting lengths only, so a cold engine, a restored
    one, one updated after restoring and one restored through a delta
    agree with a cold build over the same database.  The company
    database's mean foreign-key fan-out is not the fixed 2.0, so an
    estimate that read the instance's fan-outs would tell them apart."""

    QUERIES = ("Smith XML", "Smith Brown XML", "XML", "Smith zzznothing")
    BATCH = [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Smith"})]

    def estimates(self, engine):
        return [
            (engine.query_cost(query, semantics),
             engine.plan(query, semantics=semantics).estimates)
            for query in self.QUERIES
            for semantics in ("and", "or")
        ]

    def test_cold_company_estimate_is_pinned(self, engine):
        assert "[8 units, ~16 cands, ~32 cost]" in engine.plan(
            "Smith XML").describe()

    def test_cold_restored_and_updated_engines_agree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        cold = KeywordSearchEngine(build_company_database())
        path = tmp_path / "company.snap"
        cold.save(path)
        with KeywordSearchEngine.open(path) as restored:
            assert self.estimates(restored) == self.estimates(cold)
            restored.apply(self.BATCH)
            updated = KeywordSearchEngine(build_company_database())
            updated.apply(self.BATCH)
            assert self.estimates(updated) != self.estimates(cold)
            assert self.estimates(restored) == self.estimates(updated)
        delta = KeywordSearchEngine.open(path, wal=True)
        delta.apply(self.BATCH)
        delta.compact_wal()
        delta.close()
        with KeywordSearchEngine.open(path) as replayed:
            assert "delta" in replayed._snapshot.sections()
            assert self.estimates(replayed) == self.estimates(updated)

    def test_cost_model_takes_the_index_only(self, engine):
        with pytest.raises(TypeError):
            CostModel(engine.index, statistics=lambda: None)
        assert not hasattr(engine, "statistics")
