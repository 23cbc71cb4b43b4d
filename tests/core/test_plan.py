"""Unit tests for the query plan IR and planner."""

import pytest

from repro.core.matching import match_keywords
from repro.core.plan import (
    Cut,
    Merge,
    NetworkGrowth,
    PairPaths,
    SingleScan,
    lower_bound_for,
    plan_query,
)
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)
from repro.core.search import SearchLimits, find_connections
from repro.errors import QueryError


class TestAndPlans:
    def test_single_keyword_plans_a_scan(self, index):
        plan = plan_query(match_keywords(index, ("XML",)))
        assert plan.sources == (SingleScan((0,)),)
        assert plan.merge == Merge(coverage_major=False)
        assert plan.cut == Cut(None)

    def test_two_keywords_plan_pair_paths_with_singles(self, index):
        plan = plan_query(match_keywords(index, ("Smith", "XML")))
        assert plan.sources == (PairPaths(0, 1, include_single_tuples=True),)

    def test_three_keywords_plan_network_growth(self, index):
        plan = plan_query(match_keywords(index, ("Smith", "Alice", "Cs")))
        assert plan.sources == (NetworkGrowth((0, 1, 2)),)

    def test_unmatched_keyword_empties_the_plan(self, index):
        plan = plan_query(match_keywords(index, ("Smith", "unicorn")))
        assert plan.is_empty

    def test_top_k_lands_in_the_cut(self, index):
        plan = plan_query(match_keywords(index, ("Smith", "XML")), top_k=3)
        assert plan.cut == Cut(3)

    def test_keywords_recorded(self, index):
        plan = plan_query(match_keywords(index, ("Smith", "XML")))
        assert plan.keywords == ("Smith", "XML")
        assert plan.semantics == "and"


class TestOrPlans:
    def test_or_plans_scan_pairs_and_network(self, index):
        matches = match_keywords(index, ("Smith", "Alice", "Cs"))
        plan = plan_query(matches, semantics="or")
        assert plan.sources == (
            SingleScan((0, 1, 2)),
            PairPaths(0, 1, include_single_tuples=False),
            PairPaths(0, 2, include_single_tuples=False),
            PairPaths(1, 2, include_single_tuples=False),
            NetworkGrowth((0, 1, 2)),
        )
        assert plan.merge == Merge(coverage_major=True)

    def test_or_drops_unmatched_keywords(self, index):
        matches = match_keywords(index, ("Smith", "unicorn", "XML"))
        plan = plan_query(matches, semantics="or")
        assert plan.sources == (
            SingleScan((0, 2)),
            PairPaths(0, 2, include_single_tuples=False),
        )

    def test_or_single_populated_keyword_scans_only(self, index):
        matches = match_keywords(index, ("Smith", "unicorn"))
        plan = plan_query(matches, semantics="or")
        assert plan.sources == (SingleScan((0,)),)

    def test_or_nothing_populated_is_empty(self, index):
        matches = match_keywords(index, ("unicorn", "gryphon"))
        plan = plan_query(matches, semantics="or")
        assert plan.is_empty


class TestValidation:
    def test_bad_semantics(self, index):
        with pytest.raises(QueryError):
            plan_query(match_keywords(index, ("XML",)), semantics="xor")

    def test_no_matches(self):
        with pytest.raises(QueryError):
            plan_query(())


class TestDescribe:
    def test_describe_lists_every_stage(self, index):
        plan = plan_query(
            match_keywords(index, ("Smith", "XML")), top_k=5
        )
        text = plan.describe()
        assert "match" in text
        assert "paths" in text
        assert "rank" in text
        assert "top-5" in text

    def test_describe_or_mentions_coverage(self, index):
        plan = plan_query(
            match_keywords(index, ("Smith", "XML")), semantics="or"
        )
        assert "coverage-major" in plan.describe()


class TestLowerBounds:
    """The bound table now feeds every plan, not just two-keyword top-k."""

    def test_rdb_bound_is_exact(self):
        assert lower_bound_for(RdbLengthRanker(), 3) == (3.0,)

    def test_er_bound_halves(self):
        assert lower_bound_for(ErLengthRanker(), 4) == (2.0,)
        assert lower_bound_for(ErLengthRanker(), 5) == (3.0,)

    def test_closeness_bound(self):
        assert lower_bound_for(ClosenessRanker(), 3) == (0.0, 2.0)

    def test_unbounded_rankers(self):
        assert lower_bound_for(InstanceAmbiguityRanker(), 3) is None

    def test_zero_length_bound(self):
        # Singles (length 0) and one-tuple networks bound at zero.
        assert lower_bound_for(RdbLengthRanker(), 0) == (0.0,)
        assert lower_bound_for(ClosenessRanker(), 0) == (0.0, 0.0)

    def test_bounds_are_sound(self, data_graph, index):
        """No connection may score below its length's lower bound."""
        matches = match_keywords(index, ("XML", "Smith"))
        limits = SearchLimits(max_rdb_length=4)
        for ranker in (RdbLengthRanker(), ErLengthRanker(), ClosenessRanker()):
            for answer in find_connections(
                data_graph, matches, limits, include_single_tuples=False
            ):
                bound = lower_bound_for(ranker, answer.rdb_length)
                assert ranker.score(answer) >= bound

    def test_bounds_hold_for_networks(self, engine):
        """A joining network's score never beats its length's bound."""
        results = engine.search("Smith Alice Cs")
        for ranker in (RdbLengthRanker(), ErLengthRanker(), ClosenessRanker()):
            for result in results:
                answer = result.answer
                bound = lower_bound_for(ranker, answer.rdb_length)
                assert ranker.score(answer) >= bound


class TestHotClassesStaySlotted:
    """Micro-assert: the hot pipeline classes must not grow __dict__.

    Per-instance dicts on these classes cost memory and attribute-lookup
    time on every DFS push / stream item / plan node; a refactor that
    silently drops ``__slots__`` (e.g. re-declaring a dataclass without
    ``slots=True``) should fail loudly here.
    """

    def test_plan_ir_nodes(self):
        from repro.core.plan import Cut, Merge

        for instance in (
            SingleScan((0,)),
            PairPaths(0, 1),
            NetworkGrowth((0, 1, 2)),
            Merge(),
            Cut(3),
        ):
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    def test_query_plan_is_slotted(self, index):
        plan = plan_query(match_keywords(index, ("smith", "xml")))
        assert not hasattr(plan, "__dict__")

    def test_traversal_and_executor_classes(self):
        from repro.core.executor import ExecutionStats, SearchResult
        from repro.graph.traversal import TuplePathStep
        from repro.relational.database import TupleId

        step = TuplePathStep(
            TupleId("A", ("1",)), TupleId("B", ("2",)), "fk", {}
        )
        stats = ExecutionStats()
        result = SearchResult(answer=None, score=(0.0,), rank=1)
        for instance in (step, stats, result):
            assert not hasattr(instance, "__dict__"), type(instance).__name__
