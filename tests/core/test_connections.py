"""Unit tests for tuple connections and their two lengths (paper §3)."""

import pytest

from repro.core.connections import Connection
from repro.errors import PathError
from repro.relational.database import TupleId


def connection(traversal_cache, labels, matches=None):
    return Connection.from_labels(traversal_cache, labels, matches)


class TestConstruction:
    def test_from_labels(self, traversal_cache):
        c = connection(traversal_cache, ["d1", "e1"])
        assert c.rdb_length == 1

    def test_from_labels_unjoined_rejected(self, traversal_cache):
        with pytest.raises(PathError):
            connection(traversal_cache, ["d1", "e2"])

    def test_needs_two_tuples(self, traversal_cache):
        with pytest.raises(PathError):
            connection(traversal_cache, ["d1"])

    def test_from_tuple_ids(self, traversal_cache):
        c = Connection.from_tuple_ids(
            traversal_cache,
            [TupleId("DEPARTMENT", ("d1",)), TupleId("EMPLOYEE", ("e1",))],
        )
        assert c.source == TupleId("DEPARTMENT", ("d1",))
        assert c.target == TupleId("EMPLOYEE", ("e1",))

    def test_disconnected_steps_rejected(self, traversal_cache):
        first = connection(traversal_cache, ["d1", "e1"])
        second = connection(traversal_cache, ["d2", "e2"])
        with pytest.raises(PathError):
            Connection(traversal_cache, list(first.steps) + list(second.steps))


class TestLengths:
    """RDB vs ER length for all nine connections of Table 2."""

    @pytest.mark.parametrize(
        "labels, rdb, er",
        [
            (["d1", "e1"], 1, 1),                       # 1
            (["p1", "w_f1", "e1"], 2, 1),               # 2
            (["p1", "d1", "e1"], 2, 2),                 # 3
            (["d1", "p1", "w_f1", "e1"], 3, 2),         # 4
            (["d2", "e2"], 1, 1),                       # 5
            (["p2", "d2", "e2"], 2, 2),                 # 6
            (["d2", "p3", "w_f2", "e2"], 3, 2),         # 7
            (["d1", "e3", "t1"], 2, 2),                 # 8
            (["d2", "p2", "w_f3", "e3", "t1"], 4, 3),   # 9
        ],
    )
    def test_table2_lengths(self, traversal_cache, labels, rdb, er):
        c = connection(traversal_cache, labels)
        assert c.rdb_length == rdb
        assert c.er_length == er

    def test_er_length_never_exceeds_rdb_length(self, traversal_cache):
        c = connection(traversal_cache, ["d2", "p2", "w_f3", "e3", "t1"])
        assert c.er_length <= c.rdb_length

    def test_middle_tuples_reported(self, traversal_cache, company_db):
        c = connection(traversal_cache, ["p1", "w_f1", "e1"])
        middles = [company_db.tuple(t).label for t in c.middle_tuples()]
        assert middles == ["w_f1"]

    def test_terminal_middle_tuple_not_collapsed(self, traversal_cache):
        # A connection ending in a middle tuple (keyword in HOURS, say)
        # keeps that tuple: nothing to collapse it into.
        c = connection(traversal_cache, ["p1", "w_f1"])
        assert c.rdb_length == 1
        assert c.er_length == 1
        assert c.middle_tuples() == ()


class TestConceptualSteps:
    def test_collapsed_step_is_nm(self, traversal_cache):
        c = connection(traversal_cache, ["p1", "w_f1", "e1"])
        steps = c.conceptual_steps()
        assert len(steps) == 1
        assert steps[0].cardinality.is_many_to_many
        assert steps[0].middle == TupleId("WORKS_FOR", ("e1", "p1"))

    def test_plain_step_cardinalities(self, traversal_cache):
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert [str(s.cardinality) for s in c.conceptual_steps()] == ["N:1", "1:N"]

    def test_edge_steps_recorded(self, traversal_cache):
        c = connection(traversal_cache, ["d1", "p1", "w_f1", "e1"])
        steps = c.conceptual_steps()
        assert len(steps[0].edge_steps) == 1
        assert len(steps[1].edge_steps) == 2

    def test_cardinalities_sequence(self, traversal_cache):
        c = connection(traversal_cache, ["d2", "p2", "w_f3", "e3", "t1"])
        assert [str(x) for x in c.cardinalities()] == ["1:N", "N:M", "1:N"]

    def test_conceptual_steps_cached(self, traversal_cache):
        c = connection(traversal_cache, ["d1", "e1"])
        assert c.conceptual_steps() is c.conceptual_steps()


class TestVerdicts:
    @pytest.mark.parametrize(
        "labels, close",
        [
            (["d1", "e1"], True),                      # 1: immediate
            (["p1", "w_f1", "e1"], True),              # 2: immediate (concept)
            (["p1", "d1", "e1"], False),               # 3: transitive N:M
            (["d1", "p1", "w_f1", "e1"], False),       # 4: 1:N + N:M
            (["d2", "e2"], True),                      # 5
            (["p2", "d2", "e2"], False),               # 6
            (["d2", "p3", "w_f2", "e2"], False),       # 7
            (["d1", "e3", "t1"], True),                # 8: functional
            (["d2", "p2", "w_f3", "e3", "t1"], False), # 9
        ],
    )
    def test_schema_level_closeness(self, traversal_cache, labels, close):
        assert connection(traversal_cache, labels).verdict().is_close is close

    def test_connection3_has_a_loose_joint(self, traversal_cache):
        verdict = connection(traversal_cache, ["p1", "d1", "e1"]).verdict()
        assert verdict.loose_joint_positions == (0,)

    def test_connection4_has_no_loose_joint(self, traversal_cache):
        verdict = connection(traversal_cache, ["d1", "p1", "w_f1", "e1"]).verdict()
        assert verdict.loose_joint_positions == ()


class TestRendering:
    def test_render_plain(self, traversal_cache):
        c = connection(traversal_cache, ["d1", "e1"])
        assert c.render() == "d1 – e1"

    def test_render_with_keywords(self, traversal_cache):
        c = connection(
            traversal_cache, ["d1", "e1"], {"d1": ["XML"], "e1": ["Smith"]}
        )
        assert c.render() == "d1(XML) – e1(Smith)"

    def test_render_with_cardinalities(self, traversal_cache):
        c = connection(
            traversal_cache, ["p1", "w_f1", "e1"], {"p1": ["XML"], "e1": ["Smith"]}
        )
        assert c.render_with_cardinalities() == "p1(XML) 1:N w_f1 N:1 e1(Smith)"

    def test_render_conceptual_collapses_middle(self, traversal_cache):
        c = connection(traversal_cache, ["p1", "w_f1", "e1"])
        assert c.render_conceptual() == "p1 N:M e1"

    def test_multiple_keywords_sorted(self, traversal_cache):
        c = connection(traversal_cache, ["d1", "e1"], {"d1": ["xml", "cs"]})
        assert c.render().startswith("d1(cs,xml)")


class TestEquality:
    def test_equal_paths(self, traversal_cache):
        assert connection(traversal_cache, ["d1", "e1"]) == connection(
            traversal_cache, ["d1", "e1"]
        )

    def test_direction_matters(self, traversal_cache):
        assert connection(traversal_cache, ["d1", "e1"]) != connection(
            traversal_cache, ["e1", "d1"]
        )

    def test_hashable(self, traversal_cache):
        c1 = connection(traversal_cache, ["d1", "e1"])
        c2 = connection(traversal_cache, ["d1", "e1"])
        assert len({c1, c2}) == 1

    def test_tuple_ids_order(self, traversal_cache):
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert [t.relation for t in c.tuple_ids()] == [
            "PROJECT", "DEPARTMENT", "EMPLOYEE",
        ]

    def test_endpoints(self, traversal_cache):
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert c.endpoints == (
            TupleId("PROJECT", ("p1",)),
            TupleId("EMPLOYEE", ("e1",)),
        )
