"""Unit tests for the statistics-backed ambiguity ranker."""

import pytest

from repro.core.connections import Connection
from repro.core.ranking import InstanceAmbiguityRanker, rank_connections
from repro.core.ranking_stats import StatisticalAmbiguityRanker
from repro.relational.statistics import DatabaseStatistics


@pytest.fixture
def ranker(company_db):
    return StatisticalAmbiguityRanker(DatabaseStatistics(company_db))


def connection(traversal_cache, labels):
    return Connection.from_labels(traversal_cache, labels)


class TestScoring:
    def test_close_connection_scores_one(self, ranker, traversal_cache):
        score = ranker.score(connection(traversal_cache, ["d1", "e1"]))
        assert score[0] == 1.0

    def test_loose_connection_scores_estimate(self, ranker, traversal_cache):
        # Joint at the department: project fan 1.5 x employee fan 2.0.
        score = ranker.score(connection(traversal_cache, ["p1", "d1", "e1"]))
        assert score[0] == pytest.approx(3.0)

    def test_estimate_is_uniform_across_joints_of_same_shape(
        self, ranker, traversal_cache
    ):
        # Exact ranker separates connection 3 (factor 2) from 6 (factor 4);
        # the statistical one sees the same FK pair at both joints and
        # scores them equally - the accuracy trade-off, made visible.
        three = ranker.score(connection(traversal_cache, ["p1", "d1", "e1"]))
        six = ranker.score(connection(traversal_cache, ["p2", "d2", "e2"]))
        assert three == six

    def test_exact_ranker_disagrees_on_skew(self, traversal_cache, company_db):
        exact = InstanceAmbiguityRanker()
        three = exact.score(connection(traversal_cache, ["p1", "d1", "e1"]))
        six = exact.score(connection(traversal_cache, ["p2", "d2", "e2"]))
        assert three != six

    def test_loose_joint_free_connections_tie(self, ranker, traversal_cache):
        a = ranker.score(connection(traversal_cache, ["d1", "p1", "w_f1", "e1"]))
        assert a[0] == 1.0

    def test_er_length_breaks_ties(self, ranker, traversal_cache):
        short = ranker.score(connection(traversal_cache, ["d1", "e1"]))
        long = ranker.score(connection(traversal_cache, ["d1", "p1", "w_f1", "e1"]))
        assert short < long


class TestAgainstExact:
    def test_same_ranking_on_paper_connections(self, ranker, traversal_cache):
        """On the paper's data the estimated order equals the exact order
        up to the 3-vs-6 tie the estimate cannot see."""
        labels = {
            1: ["d1", "e1"],
            2: ["p1", "w_f1", "e1"],
            3: ["p1", "d1", "e1"],
            4: ["d1", "p1", "w_f1", "e1"],
            5: ["d2", "e2"],
            6: ["p2", "d2", "e2"],
            7: ["d2", "p3", "w_f2", "e2"],
        }
        connections = {
            n: connection(traversal_cache, row) for n, row in labels.items()
        }
        reverse = {c: n for n, c in connections.items()}
        estimated = [
            reverse[a]
            for a, __ in rank_connections(connections.values(), ranker)
        ]
        exact = [
            reverse[a]
            for a, __ in rank_connections(
                connections.values(), InstanceAmbiguityRanker()
            )
        ]
        # Both put {1,2,5} first, {4,7} next, {3,6} last.
        assert set(estimated[:3]) == set(exact[:3]) == {1, 2, 5}
        assert set(estimated[3:5]) == set(exact[3:5]) == {4, 7}
        assert set(estimated[5:]) == set(exact[5:]) == {3, 6}
