"""Unit tests for instance-level closeness and ambiguity (paper §3/§4)."""

import pytest

from repro.core.ambiguity import (
    ambiguity_factor,
    close_connection_exists,
    is_instance_close,
    joint_fan_counts,
)
from repro.core.connections import Connection
from repro.relational.database import TupleId


def connection(traversal_cache, labels):
    return Connection.from_labels(traversal_cache, labels)


class TestInstanceCloseness:
    """Paper §3: connections 3 and 4 are instance close, 6 is not."""

    def test_connection3_is_instance_close(self, traversal_cache):
        # p1 - d1 - e1 is loose at schema level, but e1 really works on p1.
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert c.verdict().is_loose
        assert is_instance_close(c)

    def test_connection4_is_instance_close(self, traversal_cache):
        # d1 - p1 - w_f1 - e1: e1 really works for d1.
        c = connection(traversal_cache, ["d1", "p1", "w_f1", "e1"])
        assert c.verdict().is_loose
        assert is_instance_close(c)

    def test_connection6_is_instance_loose(self, traversal_cache):
        # p2 - d2 - e2: Barbara Smith does not work on p2.
        c = connection(traversal_cache, ["p2", "d2", "e2"])
        assert c.verdict().is_loose
        assert not is_instance_close(c)

    def test_connection7_is_instance_close(self, traversal_cache):
        # d2 - p3 - w_f2 - e2: e2 really works for d2.
        c = connection(traversal_cache, ["d2", "p3", "w_f2", "e2"])
        assert is_instance_close(c)

    def test_schema_close_is_trivially_instance_close(self, traversal_cache):
        assert is_instance_close(connection(traversal_cache, ["d1", "e1"]))

    def test_corroboration_radius_is_configurable(self, traversal_cache):
        # Connection 3's corroboration (p1-w_f1-e1) needs two edges; with a
        # radius of one it cannot be found.
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert not is_instance_close(c, max_rdb_length=1)
        assert is_instance_close(c, max_rdb_length=2)


class TestCloseConnectionExists:
    def test_direct_edge(self, traversal_cache):
        assert close_connection_exists(
            traversal_cache,
            TupleId("DEPARTMENT", ("d1",)),
            TupleId("EMPLOYEE", ("e1",)),
            max_rdb_length=1,
        )

    def test_via_middle(self, traversal_cache):
        assert close_connection_exists(
            traversal_cache,
            TupleId("PROJECT", ("p1",)),
            TupleId("EMPLOYEE", ("e1",)),
            max_rdb_length=2,
        )

    def test_absent(self, traversal_cache):
        assert not close_connection_exists(
            traversal_cache,
            TupleId("PROJECT", ("p2",)),
            TupleId("EMPLOYEE", ("e2",)),
            max_rdb_length=2,
        )

    def test_exhausted_budget_is_not_shown_close(self, traversal_cache):
        """The path budget ends the search with False, never an error."""
        p1, e1 = TupleId("PROJECT", ("p1",)), TupleId("EMPLOYEE", ("e1",))
        assert close_connection_exists(traversal_cache, p1, e1, 3)
        assert not close_connection_exists(
            traversal_cache, p1, e1, 3, max_paths=1
        )


class TestFanCounts:
    def test_connection3_joint_fans(self, traversal_cache):
        # Joint at d1 between p1 (N:1 in) and e1 (1:N out): d1 controls one
        # project (p1) and employs two (e1, e3).
        c = connection(traversal_cache, ["p1", "d1", "e1"])
        assert joint_fan_counts(c, 0) == (1, 2)

    def test_connection6_joint_fans(self, traversal_cache):
        # Joint at d2: controls two projects (p2, p3), employs two (e2, e4).
        c = connection(traversal_cache, ["p2", "d2", "e2"])
        assert joint_fan_counts(c, 0) == (2, 2)

    def test_fans_via_middle_step(self, traversal_cache):
        # d2(1:N)p2(N:M via w_f3)e3(1:N)t1: joint at e3's left side counts
        # projects reachable through WORKS_FOR.
        c = connection(traversal_cache, ["d2", "p2", "w_f3", "e3", "t1"])
        joints = c.verdict().loose_joint_positions
        assert joints == (1,)
        fan_in, fan_out = joint_fan_counts(c, 1)
        assert fan_in == 1   # e3 works on exactly one project (p2)
        assert fan_out == 2  # e3 has two dependents (t1, t2)


class TestAmbiguityFactor:
    def test_close_connection_is_one(self, traversal_cache):
        assert ambiguity_factor(connection(traversal_cache, ["d1", "e1"])) == 1

    def test_loose_without_joint_is_one(self, traversal_cache):
        # Connection 4 is loose but joint-free; the factor sees no joints.
        c = connection(traversal_cache, ["d1", "p1", "w_f1", "e1"])
        assert ambiguity_factor(c) == 1

    def test_connection3_factor(self, traversal_cache):
        assert ambiguity_factor(connection(traversal_cache, ["p1", "d1", "e1"])) == 2

    def test_connection6_factor(self, traversal_cache):
        assert ambiguity_factor(connection(traversal_cache, ["p2", "d2", "e2"])) == 4

    def test_factor_orders_by_actual_participation(self, traversal_cache):
        # The paper's refinement: connection 6's joint is busier than 3's.
        three = ambiguity_factor(connection(traversal_cache, ["p1", "d1", "e1"]))
        six = ambiguity_factor(connection(traversal_cache, ["p2", "d2", "e2"]))
        assert three < six
