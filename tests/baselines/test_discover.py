"""Unit tests for the DISCOVER baseline (MTJNT semantics)."""

import pytest

from repro.baselines.discover import (
    find_mtjnts,
    is_mtjnt,
    is_total,
    lost_connections,
)
from repro.core.connections import Connection
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections
from repro.errors import QueryError
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture
def smith_xml(index):
    return match_keywords(index, ("XML", "Smith"))


class TestTotality:
    def test_total_set(self, smith_xml):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")]
        assert is_total(members, smith_xml)

    def test_missing_keyword(self, smith_xml):
        assert not is_total([tid("EMPLOYEE", "e1")], smith_xml)

    def test_empty_set(self, smith_xml):
        assert not is_total([], smith_xml)


class TestIsMtjnt:
    def test_connection1_is_mtjnt(self, data_graph, smith_xml):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")]
        assert is_mtjnt(data_graph, members, smith_xml)

    def test_connection2_is_mtjnt(self, data_graph, smith_xml):
        members = [
            tid("PROJECT", "p1"),
            tid("WORKS_FOR", "e1", "p1"),
            tid("EMPLOYEE", "e1"),
        ]
        assert is_mtjnt(data_graph, members, smith_xml)

    def test_connection3_not_minimal(self, data_graph, smith_xml):
        # p1 - d1 - e1: dropping p1 leaves the total network {d1, e1}.
        members = [tid("PROJECT", "p1"), tid("DEPARTMENT", "d1"),
                   tid("EMPLOYEE", "e1")]
        assert not is_mtjnt(data_graph, members, smith_xml)

    def test_connection7_not_minimal_via_induced_edge(self, data_graph, smith_xml):
        # d2 - p3 - w_f2 - e2: d2 and e2 join directly, so p3 and w_f2 are
        # removable one at a time.
        members = [
            tid("DEPARTMENT", "d2"),
            tid("PROJECT", "p3"),
            tid("WORKS_FOR", "e2", "p3"),
            tid("EMPLOYEE", "e2"),
        ]
        assert not is_mtjnt(data_graph, members, smith_xml)

    def test_disconnected_set_is_not_mtjnt(self, data_graph, smith_xml):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e2")]
        assert not is_mtjnt(data_graph, members, smith_xml)

    def test_non_total_set_is_not_mtjnt(self, data_graph, smith_xml):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e3")]
        assert not is_mtjnt(data_graph, members, smith_xml)

    def test_singleton_covering_all_keywords(self, data_graph, index):
        matches = match_keywords(index, ("XML", "retrieval"))
        assert is_mtjnt(data_graph, [tid("DEPARTMENT", "d2")], matches)

    def test_empty_set(self, data_graph, smith_xml):
        assert not is_mtjnt(data_graph, [], smith_xml)


class TestFindMtjnts:
    def test_paper_example_finds_exactly_three(self, data_graph, smith_xml):
        results = find_mtjnts(data_graph, smith_xml, SearchLimits(max_tuples=5))
        assert len(results) == 3
        expected = [
            frozenset({tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")}),
            frozenset({tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2")}),
            frozenset(
                {
                    tid("PROJECT", "p1"),
                    tid("WORKS_FOR", "e1", "p1"),
                    tid("EMPLOYEE", "e1"),
                }
            ),
        ]
        assert set(results) == set(expected)

    def test_every_result_is_verified_mtjnt(self, data_graph, smith_xml):
        for members in find_mtjnts(data_graph, smith_xml, SearchLimits(max_tuples=5)):
            assert is_mtjnt(data_graph, members, smith_xml)

    def test_sorted_output(self, data_graph, smith_xml):
        results = find_mtjnts(data_graph, smith_xml, SearchLimits(max_tuples=5))
        sizes = [len(members) for members in results]
        assert sizes == sorted(sizes)

    def test_unmatched_keyword_yields_nothing(self, data_graph, index):
        matches = match_keywords(index, ("XML", "unicorn"))
        assert find_mtjnts(data_graph, matches) == []

    def test_no_keywords_rejected(self, data_graph):
        with pytest.raises(QueryError):
            find_mtjnts(data_graph, [])


class TestLostConnections:
    def test_paper_claim(self, data_graph, smith_xml):
        connections = [
            answer
            for answer in find_connections(
                data_graph, smith_xml, SearchLimits(max_rdb_length=3)
            )
            if isinstance(answer, Connection)
        ]
        lost = lost_connections(data_graph, connections, smith_xml)
        lost_rendered = {c.render() for c in lost}
        assert lost_rendered == {
            "p1(XML) – d1(XML) – e1(Smith)",
            "d1(XML) – p1(XML) – w_f1 – e1(Smith)",
            "p2(XML) – d2(XML) – e2(Smith)",
            "d2(XML) – p3 – w_f2 – e2(Smith)",
        }
