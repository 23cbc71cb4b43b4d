"""Unit tests for connection and joining-network enumeration."""

import pytest

from repro.baselines.discover import is_connected_set
from repro.core.connections import Connection
from repro.core.matching import match_keywords
from repro.core.plan import plan_query
from repro.core.search import (
    JoiningNetwork,
    SearchLimits,
    SingleTupleAnswer,
    find_connections,
)
from repro.errors import QueryError
from repro.graph.fast_traversal import TraversalCache
from network_source import joining_networks


@pytest.fixture
def smith_xml(index):
    return match_keywords(index, ("XML", "Smith"))


class TestSearchLimits:
    def test_defaults_are_valid(self):
        SearchLimits()

    def test_zero_rdb_length_rejected(self):
        with pytest.raises(QueryError):
            SearchLimits(max_rdb_length=0)

    def test_zero_tuples_rejected(self):
        with pytest.raises(QueryError):
            SearchLimits(max_tuples=0)

    def test_non_positive_budgets_rejected(self):
        with pytest.raises(QueryError):
            SearchLimits(max_paths_per_pair=0)
        with pytest.raises(QueryError):
            SearchLimits(max_networks=-1)

    def test_none_budgets_allowed(self):
        limits = SearchLimits(max_paths_per_pair=None, max_networks=None)
        assert limits.max_paths_per_pair is None


class TestFindConnections:
    def test_exactly_two_keywords_required(self, data_graph, index):
        matches = match_keywords(index, ("XML",))
        with pytest.raises(QueryError):
            list(find_connections(data_graph, matches))

    def test_paper_connection_set(self, data_graph, smith_xml):
        answers = list(
            find_connections(
                data_graph, smith_xml, SearchLimits(max_rdb_length=3)
            )
        )
        rendered = {a.render() for a in answers}
        assert rendered == {
            "d1(XML) – e1(Smith)",
            "p1(XML) – w_f1 – e1(Smith)",
            "p1(XML) – d1(XML) – e1(Smith)",
            "d1(XML) – p1(XML) – w_f1 – e1(Smith)",
            "d2(XML) – e2(Smith)",
            "p2(XML) – d2(XML) – e2(Smith)",
            "d2(XML) – p3 – w_f2 – e2(Smith)",
        }

    def test_all_answers_cover_both_keywords(self, data_graph, smith_xml):
        for answer in find_connections(
            data_graph, smith_xml, SearchLimits(max_rdb_length=3)
        ):
            assert isinstance(answer, Connection)
            covered = set()
            for keywords in answer.keyword_matches.values():
                covered |= keywords
            assert {"XML", "Smith"} <= covered

    def test_longer_budget_adds_answers(self, data_graph, smith_xml):
        three = list(
            find_connections(data_graph, smith_xml, SearchLimits(max_rdb_length=3))
        )
        four = list(
            find_connections(data_graph, smith_xml, SearchLimits(max_rdb_length=4))
        )
        assert len(four) > len(three)

    def test_single_tuple_answer_when_one_tuple_matches_both(
        self, company_db
    ):
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(company_db)
        matches = match_keywords(engine.index, ("XML", "retrieval"))
        answers = list(find_connections(engine.data_graph, matches))
        singles = [a for a in answers if isinstance(a, SingleTupleAnswer)]
        assert any(
            company_db.tuple(s.tid).label == "d2" for s in singles
        )

    def test_single_tuples_can_be_disabled(self, company_db):
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(company_db)
        matches = match_keywords(engine.index, ("XML", "retrieval"))
        answers = list(
            find_connections(
                engine.data_graph, matches, include_single_tuples=False
            )
        )
        assert not any(isinstance(a, SingleTupleAnswer) for a in answers)


class TestSingleTupleAnswer:
    def test_metrics_are_degenerate(self, data_graph, company_db):
        tid = company_db.get("DEPARTMENT", "d2").tid
        answer = SingleTupleAnswer(data_graph, tid, frozenset({"a", "b"}))
        assert answer.rdb_length == 0
        assert answer.er_length == 0
        assert answer.loose_joint_count() == 0
        assert answer.ambiguity_factor() == 1

    def test_render(self, data_graph, company_db):
        tid = company_db.get("DEPARTMENT", "d2").tid
        answer = SingleTupleAnswer(data_graph, tid, frozenset({"b", "a"}))
        assert answer.render() == "d2(a,b)"


class TestFindJoiningNetworks:
    def test_three_keyword_query(self, company_db):
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(company_db)
        matches = match_keywords(engine.index, ("Smith", "Alice", "Cs"))
        networks = list(
            joining_networks(
                engine.data_graph, matches, SearchLimits(max_tuples=5)
            )
        )
        assert networks
        for network in networks:
            assert network.covered_keywords == {"Smith", "Alice", "Cs"}
            assert is_connected_set(engine.data_graph, network.tuples)

    def test_empty_keyword_yields_nothing(self, data_graph, index):
        matches = match_keywords(index, ("Smith", "unicorn"))
        assert list(joining_networks(data_graph, matches)) == []

    def test_no_keywords_rejected(self):
        # The network source never sees an empty query: planning refuses
        # it before any source runs.
        with pytest.raises(QueryError, match="no keywords to plan"):
            plan_query([])

    def test_networks_deduplicated(self, data_graph, index):
        matches = match_keywords(index, ("Smith", "XML"))
        networks = list(
            joining_networks(data_graph, matches, SearchLimits(max_tuples=3))
        )
        keys = [
            (network.tuples, tuple(sorted(network.keyword_tuples.items())))
            for network in networks
        ]
        assert len(keys) == len(set(keys))


class TestJoiningNetworkMetrics:
    @pytest.fixture
    def network(self, data_graph, company_db):
        members = frozenset(
            {
                company_db.get("DEPARTMENT", "d1").tid,
                company_db.get("EMPLOYEE", "e3").tid,
                company_db.get("DEPENDENT", "t1").tid,
            }
        )
        return JoiningNetwork(
            TraversalCache(data_graph),
            members,
            {
                "cs": company_db.get("DEPARTMENT", "d1").tid,
                "alice": company_db.get("DEPENDENT", "t1").tid,
            },
        )

    def test_rdb_length_counts_tree_edges(self, network):
        assert network.rdb_length == 2

    def test_er_length_without_middles(self, network):
        assert network.er_length == 2

    def test_er_length_collapses_interior_middles(self, data_graph, company_db):
        members = frozenset(
            {
                company_db.get("PROJECT", "p1").tid,
                company_db.by_label("w_f1").tid,
                company_db.get("EMPLOYEE", "e1").tid,
            }
        )
        network = JoiningNetwork(
            TraversalCache(data_graph),
            members,
            {
                "xml": company_db.get("PROJECT", "p1").tid,
                "smith": company_db.get("EMPLOYEE", "e1").tid,
            },
        )
        assert network.rdb_length == 2
        assert network.er_length == 1

    def test_keyword_pair_paths(self, network):
        paths = network.keyword_pair_paths()
        assert len(paths) == 1
        assert paths[0].rdb_length == 2

    def test_loose_joint_count_functional_tree(self, network):
        assert network.loose_joint_count() == 0

    def test_ambiguity_factor_functional_tree(self, network):
        assert network.ambiguity_factor() == 1

    def test_render_marks_keywords(self, network):
        rendered = network.render()
        assert "d1(cs)" in rendered
        assert "t1(alice)" in rendered
        assert "e3" in rendered

    def test_equality_and_hash(self, network, data_graph, company_db):
        clone = JoiningNetwork(
            TraversalCache(data_graph),
            network.tuples,
            dict(network.keyword_tuples),
        )
        assert clone == network
        assert len({clone, network}) == 1
