"""Unit tests for the ranking strategies."""

import pytest

from repro.core.connections import Connection
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
    rank_connections,
)


@pytest.fixture
def paper_seven(traversal_cache):
    """Connections 1-7 of Table 2 keyed by row number."""
    labels = {
        1: ["d1", "e1"],
        2: ["p1", "w_f1", "e1"],
        3: ["p1", "d1", "e1"],
        4: ["d1", "p1", "w_f1", "e1"],
        5: ["d2", "e2"],
        6: ["p2", "d2", "e2"],
        7: ["d2", "p3", "w_f2", "e2"],
    }
    return {
        number: Connection.from_labels(traversal_cache, row)
        for number, row in labels.items()
    }


def order_of(ranked, numbered):
    reverse = {connection: number for number, connection in numbered.items()}
    return [reverse[answer] for answer, __ in ranked]


class TestRdbLengthRanker:
    def test_scores_are_lengths(self, paper_seven):
        ranker = RdbLengthRanker()
        assert ranker.score(paper_seven[1]) == (1.0,)
        assert ranker.score(paper_seven[4]) == (3.0,)

    def test_best_and_worst_match_paper(self, paper_seven):
        ranked = rank_connections(paper_seven.values(), RdbLengthRanker())
        order = order_of(ranked, paper_seven)
        assert set(order[:2]) == {1, 5}
        assert set(order[-2:]) == {4, 7}


class TestErLengthRanker:
    def test_middle_relations_do_not_count(self, paper_seven):
        ranker = ErLengthRanker()
        assert ranker.score(paper_seven[2]) == (1.0,)

    def test_connection2_promoted_over_rdb(self, paper_seven):
        rdb = rank_connections(paper_seven.values(), RdbLengthRanker())
        er = rank_connections(paper_seven.values(), ErLengthRanker())
        rdb_rank = order_of(rdb, paper_seven).index(2)
        er_rank = order_of(er, paper_seven).index(2)
        assert er_rank < rdb_rank


class TestClosenessRanker:
    def test_paper_order(self, paper_seven):
        ranked = rank_connections(paper_seven.values(), ClosenessRanker())
        order = order_of(ranked, paper_seven)
        assert set(order[:3]) == {1, 2, 5}
        assert set(order[3:5]) == {4, 7}
        assert set(order[5:]) == {3, 6}

    def test_scores(self, paper_seven):
        ranker = ClosenessRanker()
        assert ranker.score(paper_seven[1]) == (0.0, 1.0)
        assert ranker.score(paper_seven[4]) == (0.0, 2.0)
        assert ranker.score(paper_seven[3]) == (1.0, 2.0)


class TestInstanceAmbiguityRanker:
    def test_connection3_beats_6(self, paper_seven):
        # Both have one loose joint, but 6's joint is busier (2x2 vs 1x2).
        ranker = InstanceAmbiguityRanker()
        assert ranker.score(paper_seven[3]) < ranker.score(paper_seven[6])

    def test_close_connections_tie_at_factor_one(self, paper_seven):
        ranker = InstanceAmbiguityRanker()
        assert ranker.score(paper_seven[1])[0] == 1.0
        assert ranker.score(paper_seven[2])[0] == 1.0


class TestRankConnections:
    def test_returns_scores(self, paper_seven):
        ranked = rank_connections(paper_seven.values(), ClosenessRanker())
        assert all(isinstance(score, tuple) for __, score in ranked)

    def test_deterministic_tie_break(self, paper_seven):
        first = rank_connections(paper_seven.values(), ClosenessRanker())
        second = rank_connections(
            list(reversed(list(paper_seven.values()))), ClosenessRanker()
        )
        assert [a.render() for a, __ in first] == [a.render() for a, __ in second]

    def test_empty_input(self):
        assert rank_connections([], ClosenessRanker()) == []
