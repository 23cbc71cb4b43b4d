"""Unit tests for the BLINKS-style indexed baseline."""

import math

import pytest

from repro.baselines.banks import BanksSearch
from repro.baselines.blinks import BlinksSearch, KeywordDistanceIndex
from repro.core.matching import match_keywords
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture
def blinks(data_graph, index):
    return BlinksSearch(data_graph, index, keywords=("xml", "smith"))


@pytest.fixture
def smith_xml(index):
    return match_keywords(index, ("XML", "Smith"))


class TestKeywordDistanceIndex:
    def test_distance_zero_at_match_tuples(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        assert kd_index.distance("smith", tid("EMPLOYEE", "e1")) == 0.0
        assert kd_index.distance("smith", tid("EMPLOYEE", "e2")) == 0.0

    def test_distance_matches_banks_weights(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        # d1 -> e1 is a backward edge with weight 1 + log2(1 + indeg(d1)).
        expected = banks.directed_graph[tid("DEPARTMENT", "d1")][
            tid("EMPLOYEE", "e1")
        ]["weight"]
        assert kd_index.distance("smith", tid("DEPARTMENT", "d1")) == \
            pytest.approx(expected)

    def test_unreachable_is_infinite(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        assert math.isinf(kd_index.distance("smith", tid("DEPARTMENT", "d3")))

    def test_unindexed_keyword_is_infinite(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        assert math.isinf(kd_index.distance("xml", tid("DEPARTMENT", "d1")))
        assert not kd_index.is_indexed("xml")

    def test_path_reconstruction(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        path = kd_index.path("smith", tid("DEPARTMENT", "d1"))
        assert path[0] == tid("DEPARTMENT", "d1")
        assert path[-1] in (tid("EMPLOYEE", "e1"), tid("EMPLOYEE", "e2"))

    def test_size_counts_entries(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index, keywords=("smith",))
        assert kd_index.size() == len(
            kd_index._distances["smith"]  # noqa: SLF001 - white-box check
        )

    def test_full_vocabulary_indexing(self, data_graph, index):
        banks = BanksSearch(data_graph)
        kd_index = KeywordDistanceIndex(banks, index)  # whole vocabulary
        assert set(kd_index.indexed_keywords()) == set(index.vocabulary())


class TestBlinksSearch:
    def test_same_answers_as_banks(self, data_graph, index, blinks, smith_xml):
        banks_answers = BanksSearch(data_graph).search(smith_xml, top_k=10)
        blinks_answers = blinks.search(smith_xml, top_k=10)
        assert [frozenset(a.tuple_ids()) for a in banks_answers] == [
            frozenset(a.tuple_ids()) for a in blinks_answers
        ]

    def test_same_answers_as_banks_on_a_planted_database(self, planted_synthetic):
        data_graph = DataGraph(planted_synthetic)
        index = InvertedIndex(planted_synthetic)
        matches = match_keywords(index, ("kwalpha", "kwbeta"))
        banks_answers = BanksSearch(data_graph).search(matches, top_k=10)
        blinks = BlinksSearch(data_graph, index, keywords=("kwalpha", "kwbeta"))
        assert len(banks_answers) == 10
        assert [frozenset(a.tuple_ids()) for a in banks_answers] == [
            frozenset(a.tuple_ids()) for a in blinks.search(matches, top_k=10)
        ]

    def test_same_scores_as_banks(self, data_graph, index, blinks, smith_xml):
        banks_answers = BanksSearch(data_graph).search(smith_xml, top_k=10)
        blinks_answers = blinks.search(smith_xml, top_k=10)
        for banks_answer, blinks_answer in zip(banks_answers, blinks_answers):
            assert banks_answer.score == pytest.approx(blinks_answer.score)

    def test_unindexed_keyword_indexed_on_the_fly(self, data_graph, index):
        blinks = BlinksSearch(data_graph, index, keywords=("xml",))
        matches = match_keywords(index, ("XML", "Alice"))
        answers = blinks.search(matches, top_k=5)
        assert answers
        assert blinks.index.is_indexed("alice")

    def test_unmatched_keyword_yields_nothing(self, blinks, index):
        matches = match_keywords(index, ("XML", "unicorn"))
        assert blinks.search(matches) == []

    def test_no_keywords_rejected(self, blinks):
        with pytest.raises(QueryError):
            blinks.search([])

    def test_top_k_respected(self, blinks, smith_xml):
        assert len(blinks.search(smith_xml, top_k=2)) == 2

    def test_deterministic(self, blinks, smith_xml):
        first = [a.render() for a in blinks.search(smith_xml, top_k=5)]
        second = [a.render() for a in blinks.search(smith_xml, top_k=5)]
        assert first == second
