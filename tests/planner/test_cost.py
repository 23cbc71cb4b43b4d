"""Unit tests for the planner cost model."""

from __future__ import annotations

from repro.core.engine import KeywordSearchEngine
from repro.planner import DEFAULT_FANOUT, CostModel, UnitEstimate


class TestCostModel:
    def test_fanout_falls_back_without_statistics(self):
        assert CostModel().fanout() == DEFAULT_FANOUT

    def test_pair_plan_estimates_align_with_sources(self, engine):
        plan = engine._plan("Smith XML", None, "and")
        model = CostModel(index=engine.index,
                          statistics=lambda: engine.statistics)
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
        model = CostModel(index=engine.index)
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
        annotated = CostModel(index=engine.index).annotate(plan)
        assert annotated.sources == plan.sources
        assert annotated.matches == plan.matches
        assert len(annotated.estimates) == len(plan.sources)


class TestQueryCost:
    def test_zero_match_and_query_is_cheap(self, engine):
        cost = CostModel(index=engine.index).query_cost(
            ["smith", "zzznothing"], "and")
        assert cost == 1.0

    def test_heavier_postings_cost_more(self, engine):
        model = CostModel(index=engine.index)
        hot = model.query_cost(["smith", "xml"], "and")
        cold = model.query_cost(["smith", "canada"], "and")
        assert hot > cold > 0

    def test_or_semantics_never_cheaper_than_and(self, engine):
        model = CostModel(index=engine.index)
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
