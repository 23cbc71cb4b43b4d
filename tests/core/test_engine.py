"""Unit tests for the KeywordSearchEngine facade."""

import pytest

from repro.core.connections import Connection
from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import RdbLengthRanker
from repro.core.search import JoiningNetwork, SearchLimits, SingleTupleAnswer


class TestSearchBasics:
    def test_two_keyword_query_returns_connections(self, engine):
        results = engine.search("Smith XML")
        assert results
        assert all(
            isinstance(r.answer, (Connection, SingleTupleAnswer))
            for r in results
        )

    def test_results_are_ranked(self, engine):
        results = engine.search("Smith XML")
        scores = [r.score for r in results]
        assert scores == sorted(scores)
        assert [r.rank for r in results] == list(range(1, len(results) + 1))

    def test_closeness_default_puts_close_first(self, engine):
        # Paths are oriented from the first keyword's matches, so the query
        # "Smith XML" renders Smith-side first (the paper prints the same
        # connections from the XML side; see repro.experiments.tables).
        results = engine.search("Smith XML", limits=SearchLimits(max_rdb_length=3))
        best = {r.answer.render() for r in results[:3]}
        assert best == {
            "e1(Smith) – d1(XML)",
            "e1(Smith) – w_f1 – p1(XML)",
            "e2(Smith) – d2(XML)",
        }

    def test_top_k(self, engine):
        results = engine.search("Smith XML", top_k=2)
        assert len(results) == 2

    def test_unmatched_keyword_gives_empty_results(self, engine):
        assert engine.search("Smith unicorn") == []

    def test_single_keyword_returns_matching_tuples(self, engine, company_db):
        results = engine.search("XML")
        labels = {
            company_db.tuple(r.answer.tid).label for r in results
        }
        assert labels == {"d1", "d2", "p1", "p2"}

    def test_three_keywords_return_networks(self, engine):
        results = engine.search(
            "Smith Alice Cs", limits=SearchLimits(max_tuples=5)
        )
        assert results
        assert all(isinstance(r.answer, JoiningNetwork) for r in results)

    def test_alternate_ranker(self, engine):
        default = engine.search("Smith XML", limits=SearchLimits(max_rdb_length=3))
        by_rdb = engine.search(
            "Smith XML",
            ranker=RdbLengthRanker(),
            limits=SearchLimits(max_rdb_length=3),
        )
        assert [r.answer.render() for r in default] != \
            [r.answer.render() for r in by_rdb]

    def test_match_without_search(self, engine, company_db):
        matches = engine.match("Smith")
        labels = {company_db.tuple(t).label for t in matches[0].tuple_ids}
        assert labels == {"e1", "e2"}


class TestExplain:
    def test_explains_connection(self, engine):
        results = engine.search("Smith XML", limits=SearchLimits(max_rdb_length=3))
        text = engine.explain(results[0])
        assert "verdict" in text
        assert "rdb length" in text

    def test_explains_loose_connection_instance_level(self, engine):
        results = engine.search("Smith XML", limits=SearchLimits(max_rdb_length=3))
        loose = next(
            r for r in results
            if isinstance(r.answer, Connection) and r.answer.verdict().is_loose
        )
        assert "instance level" in engine.explain(loose)

    def test_explains_network(self, engine):
        results = engine.search("Smith Alice Cs", limits=SearchLimits(max_tuples=5))
        assert "tuples" in engine.explain(results[0])


class TestRebuild:
    def test_rebuild_sees_new_tuples(self, company_db):
        engine = KeywordSearchEngine(company_db)
        assert engine.search("Zubrowka") == []
        company_db.insert(
            "EMPLOYEE",
            {"SSN": "e9", "L_NAME": "Zubrowka", "S_NAME": "Ada", "D_ID": "d1"},
        )
        engine.rebuild()
        results = engine.search("Zubrowka")
        assert len(results) == 1

    def test_rebuild_refreshes_graph(self, company_db):
        engine = KeywordSearchEngine(company_db)
        before = engine.data_graph.number_of_nodes()
        company_db.insert("DEPARTMENT", {"ID": "d9", "D_NAME": "new"})
        engine.rebuild()
        assert engine.data_graph.number_of_nodes() == before + 1


class TestDeterminism:
    def test_repeated_searches_identical(self, engine):
        first = [r.answer.render() for r in engine.search("Smith XML")]
        second = [r.answer.render() for r in engine.search("Smith XML")]
        assert first == second

    def test_fresh_engine_identical(self, company_db):
        from repro.datasets.company import build_company_database

        one = KeywordSearchEngine(company_db).search("Smith XML")
        other = KeywordSearchEngine(build_company_database()).search("Smith XML")
        assert [r.answer.render() for r in one] == \
            [r.answer.render() for r in other]


class TestSearchBatch:
    def test_batch_matches_individual_searches(self, engine):
        queries = ["Smith XML", "John Smith", "Smith XML"]
        batched = engine.search_batch(queries)
        assert len(batched) == 3
        for query, results in zip(queries, batched):
            individual = engine.search(query)
            assert [(r.render(), r.score) for r in results] == [
                (r.render(), r.score) for r in individual
            ]

    def test_duplicate_queries_share_result_lists(self, engine):
        batched = engine.search_batch(["Smith XML", "Smith XML"])
        assert batched[0] is batched[1]

    def test_empty_batch(self, engine):
        assert engine.search_batch([]) == []

    def test_batch_passes_options_through(self, engine):
        batched = engine.search_batch(
            ["Smith XML"], ranker=RdbLengthRanker(), top_k=2
        )
        assert len(batched[0]) == 2
        assert batched[0][0].score == engine.search(
            "Smith XML", ranker=RdbLengthRanker(), top_k=2
        )[0].score

    def test_batch_warms_traversal_cache(self, company_db):
        engine = KeywordSearchEngine(company_db)
        engine.search_batch(["Smith XML", "John XML"])
        # The second query reuses the distance maps of the shared targets.
        assert engine.traversal_cache.hits > 0


class TestSearchStream:
    def test_stream_matches_search(self, engine):
        streamed = list(engine.search_stream("Smith XML"))
        materialised = engine.search("Smith XML")
        assert [(r.render(), r.score, r.rank) for r in streamed] == [
            (r.render(), r.score, r.rank) for r in materialised
        ]

    def test_stream_with_top_k(self, engine):
        results = list(engine.search_stream("Smith XML", top_k=2))
        assert len(results) == 2
        assert [r.rank for r in results] == [1, 2]

    def test_stream_or_semantics(self, engine):
        streamed = list(engine.search_stream("Smith unicorn", semantics="or"))
        assert streamed
        assert [(r.render(), r.score) for r in streamed] == [
            (r.render(), r.score)
            for r in engine.search("Smith unicorn", semantics="or")
        ]

    def test_stream_empty_query_result(self, engine):
        assert list(engine.search_stream("unicorn rainbow")) == []


class TestPlanEntryPoint:
    def test_plan_describes_query(self, engine):
        plan = engine.plan("Smith XML", top_k=3)
        assert not plan.is_empty
        assert "top-3" in plan.describe()

    def test_plan_validates_semantics(self, engine):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            engine.plan("Smith XML", semantics="xor")

    def test_last_stats_tracks_runs(self, engine):
        results = engine.search("Smith XML")
        assert engine.last_stats.emitted == len(results)

    def test_batch_aggregates_stats_and_sharing(self, engine):
        engine.search_batch(["Smith XML", "SMITH xml"])
        # Distinct texts, same keyword-tuple pairs: the second query's
        # enumeration sub-plans are served from the first query's streams.
        assert engine.last_shared.hits > 0
        assert engine.last_stats.emitted > 0


class TestFastTraversalFlag:
    """The compiled core is the default; ``core`` is the only selector."""

    def test_flag_defaults_on(self, engine):
        assert engine.core == "csr"
        assert not hasattr(engine, "use_fast_traversal")
        with pytest.raises(TypeError):
            KeywordSearchEngine(engine.database, use_fast_traversal=False)

    def test_slow_engine_gives_same_answers(self, company_db):
        fast = KeywordSearchEngine(company_db)
        slow = KeywordSearchEngine(company_db, core="reference")
        assert [(r.render(), r.score) for r in fast.search("Smith XML")] == [
            (r.render(), r.score) for r in slow.search("Smith XML")
        ]
