"""Unit tests for the tuple-level data graph and its induced subgraphs."""

import pytest

from repro.baselines.discover import induced_subgraph, is_connected_set
from repro.er.cardinality import Cardinality
from repro.errors import PathError
from repro.graph.csr import FrozenGraph
from repro.live.changes import Delete, apply_to_database
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def edges_between(data_graph, left, right):
    """Edge data of every entry joining two tuples on the compiled graph."""
    return [
        data
        for other, __, data in FrozenGraph(data_graph).neighbours(left)
        if other == right
    ]


class TestStructure:
    def test_every_tuple_is_a_node(self, data_graph, company_db):
        assert data_graph.number_of_nodes() == company_db.count() == 16

    def test_every_reference_is_an_edge(self, data_graph):
        # 3 project->dept is 3? p1,p2,p3 -> 3; employees 4; works_for 8 (2 fks
        # x 4 rows); dependents 2.  Total 3+4+8+2 = 17.
        assert data_graph.number_of_edges() == 17

    def test_has_node(self, data_graph):
        assert data_graph.has_node(tid("EMPLOYEE", "e1"))
        assert not data_graph.has_node(tid("EMPLOYEE", "e99"))

    def test_neighbours_of_employee(self, data_graph, company_db):
        neighbours = {
            company_db.tuple(other).label
            for other, __, __ in FrozenGraph(data_graph).neighbours(
                tid("EMPLOYEE", "e3")
            )
        }
        assert neighbours == {"d1", "w_f3", "t1", "t2"}

    def test_neighbours_unknown_tuple(self, data_graph):
        with pytest.raises(PathError):
            list(FrozenGraph(data_graph).neighbours(tid("EMPLOYEE", "e99")))

    def test_neighbours_tombstoned_tuple(self, data_graph, company_db):
        frozen = FrozenGraph(data_graph)
        t1 = tid("DEPENDENT", "t1")
        assert [other for other, __, __ in frozen.neighbours(t1)] == [
            tid("EMPLOYEE", "e3")
        ]
        frozen.apply_changeset(apply_to_database(company_db, [Delete(t1)]))
        with pytest.raises(PathError):
            list(frozen.neighbours(t1))

    def test_degree(self, data_graph):
        assert data_graph.degree(tid("DEPARTMENT", "d3")) == 0
        assert data_graph.degree(tid("DEPARTMENT", "d1")) == 3  # p1, e1, e3

    def test_edges_between(self, data_graph):
        edges = edges_between(
            data_graph, tid("EMPLOYEE", "e1"), tid("DEPARTMENT", "d1")
        )
        assert len(edges) == 1
        assert edges[0]["foreign_key"].name == "fk_employee_department"

    def test_edges_between_unjoined(self, data_graph):
        assert edges_between(
            data_graph, tid("EMPLOYEE", "e1"), tid("DEPARTMENT", "d2")
        ) == []

    def test_null_references_add_no_edge(self, company_db):
        from repro.graph.data_graph import DataGraph

        company_db.insert("EMPLOYEE", {"SSN": "e9", "L_NAME": "X", "S_NAME": "Y"})
        graph = DataGraph(company_db)
        assert graph.degree(tid("EMPLOYEE", "e9")) == 0


class TestEdgeCardinality:
    def test_read_from_referenced(self, data_graph):
        edge = edges_between(
            data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")
        )[0]
        assert data_graph.edge_cardinality(edge, tid("DEPARTMENT", "d1")) == \
            Cardinality.one_to_many()

    def test_read_from_referencing(self, data_graph):
        edge = edges_between(
            data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")
        )[0]
        assert data_graph.edge_cardinality(edge, tid("EMPLOYEE", "e1")) == \
            Cardinality.many_to_one()

    def test_is_middle(self, data_graph):
        assert data_graph.is_middle(tid("WORKS_FOR", "e1", "p1"))
        assert not data_graph.is_middle(tid("EMPLOYEE", "e1"))


class TestInducedSubgraphs:
    def test_connected_set(self, data_graph):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")]
        assert is_connected_set(data_graph, members)

    def test_disconnected_set(self, data_graph):
        members = [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e2")]
        assert not is_connected_set(data_graph, members)

    def test_indirectly_connected_needs_the_middle(self, data_graph):
        # e1 and p1 join only through w_f1.
        assert not is_connected_set(
            data_graph, [tid("EMPLOYEE", "e1"), tid("PROJECT", "p1")]
        )
        assert is_connected_set(
            data_graph,
            [
                tid("EMPLOYEE", "e1"),
                tid("WORKS_FOR", "e1", "p1"),
                tid("PROJECT", "p1"),
            ]
        )

    def test_empty_set_not_connected(self, data_graph):
        assert not is_connected_set(data_graph, [])

    def test_missing_node_not_connected(self, data_graph):
        assert not is_connected_set(data_graph, [tid("EMPLOYEE", "e99")])

    def test_induced_subgraph_keeps_internal_edges(self, data_graph):
        # d2 and e2 join directly; the subgraph on {d2, p3, w_f2, e2} keeps
        # that edge even though the "path" went around - the MTJNT property.
        members = [
            tid("DEPARTMENT", "d2"),
            tid("PROJECT", "p3"),
            tid("WORKS_FOR", "e2", "p3"),
            tid("EMPLOYEE", "e2"),
        ]
        induced = induced_subgraph(data_graph, members)
        assert induced.has_edge(tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2"))
        assert induced.number_of_edges() == 4
