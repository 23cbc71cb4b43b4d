"""Robustness: corrupted data, unusual schemas, adversarial structures."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.errors import ForeignKeyError, PrimaryKeyError, SchemaError
from repro.graph.csr import FrozenGraph
from repro.graph.data_graph import DataGraph
from repro.relational.database import Database
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    ForeignKey,
    Relation,
)


def self_referencing_schema():
    """EMPLOYEE with a MANAGER FK onto itself (a schema-graph cycle)."""
    schema = DatabaseSchema(name="org")
    schema.add_relation(
        Relation(
            "EMPLOYEE",
            [
                AttributeDef("ID"),
                AttributeDef("NAME"),
                AttributeDef("MANAGER_ID"),
            ],
            primary_key=["ID"],
        )
    )
    schema.add_foreign_key(
        ForeignKey("fk_manager", "EMPLOYEE", ("MANAGER_ID",), "EMPLOYEE", ("ID",))
    )
    return schema


def parallel_fk_schema():
    """FLIGHT with two FKs onto AIRPORT (origin and destination)."""
    schema = DatabaseSchema(name="air")
    schema.add_relation(
        Relation("AIRPORT", [AttributeDef("ID"), AttributeDef("CITY")],
                 primary_key=["ID"])
    )
    schema.add_relation(
        Relation(
            "FLIGHT",
            [
                AttributeDef("ID"),
                AttributeDef("ORIGIN"),
                AttributeDef("DEST"),
            ],
            primary_key=["ID"],
        )
    )
    schema.add_foreign_key(
        ForeignKey("fk_origin", "FLIGHT", ("ORIGIN",), "AIRPORT", ("ID",))
    )
    schema.add_foreign_key(
        ForeignKey("fk_dest", "FLIGHT", ("DEST",), "AIRPORT", ("ID",))
    )
    return schema


class TestSelfReference:
    def test_management_chain_is_searchable(self):
        database = Database(self_referencing_schema(), enforce_foreign_keys=False)
        database.insert("EMPLOYEE", {"ID": "e1", "NAME": "Root"})
        database.insert("EMPLOYEE", {"ID": "e2", "NAME": "Alpha",
                                     "MANAGER_ID": "e1"})
        database.insert("EMPLOYEE", {"ID": "e3", "NAME": "Beta",
                                     "MANAGER_ID": "e2"})
        database.check_integrity()
        engine = KeywordSearchEngine(database)
        results = engine.search("Root Beta", limits=SearchLimits(max_rdb_length=3))
        assert results
        assert results[0].answer.rdb_length == 2

    def test_self_loop_tuple(self):
        """A tuple managing itself must not break graph construction."""
        database = Database(self_referencing_schema(), enforce_foreign_keys=False)
        database.insert("EMPLOYEE", {"ID": "e1", "NAME": "Ouroboros",
                                     "MANAGER_ID": "e1"})
        database.check_integrity()
        graph = DataGraph(database)
        assert graph.number_of_nodes() == 1
        engine = KeywordSearchEngine(database)
        results = engine.search("Ouroboros")
        assert len(results) == 1


class TestParallelForeignKeys:
    @pytest.fixture
    def flights(self):
        database = Database(parallel_fk_schema(), enforce_foreign_keys=False)
        database.insert("AIRPORT", {"ID": "a1", "CITY": "Helsinki"})
        database.insert("AIRPORT", {"ID": "a2", "CITY": "Venice"})
        database.insert("FLIGHT", {"ID": "f1", "ORIGIN": "a1", "DEST": "a2"})
        database.check_integrity()
        return database

    def test_both_edges_materialise(self, flights):
        graph = DataGraph(flights)
        assert graph.number_of_edges() == 2

    def test_path_uses_both_foreign_keys(self, flights):
        from repro.graph.traversal import enumerate_simple_paths
        from repro.relational.database import TupleId

        graph = DataGraph(flights)
        paths = list(
            enumerate_simple_paths(
                graph,
                TupleId("AIRPORT", ("a1",)),
                TupleId("AIRPORT", ("a2",)),
                2,
            )
        )
        assert len(paths) == 1
        assert [step.edge_key for step in paths[0]] == ["fk_origin", "fk_dest"]

    def test_round_trip_flight_creates_parallel_edges(self):
        """A flight with origin == destination: two edges, same tuple pair."""
        database = Database(parallel_fk_schema(), enforce_foreign_keys=False)
        database.insert("AIRPORT", {"ID": "a1", "CITY": "Helsinki"})
        database.insert("FLIGHT", {"ID": "f1", "ORIGIN": "a1", "DEST": "a1"})
        database.check_integrity()
        frozen = FrozenGraph(DataGraph(database))
        from repro.relational.database import TupleId

        edges = [
            data
            for other, __, data in frozen.neighbours(TupleId("FLIGHT", ("f1",)))
            if other == TupleId("AIRPORT", ("a1",))
        ]
        assert {data["foreign_key"].name for data in edges} == {
            "fk_origin", "fk_dest",
        }

    def test_search_between_cities(self, flights):
        engine = KeywordSearchEngine(flights)
        results = engine.search("Helsinki Venice")
        assert results
        assert results[0].answer.rdb_length == 2


class TestCorruption:
    def test_dangling_fk_rejected_at_check(self, company_db):
        record = company_db.get("EMPLOYEE", "e1")
        record.values["D_ID"] = "d99"  # corrupt behind the API's back
        with pytest.raises(ForeignKeyError):
            company_db.check_integrity()

    def test_duplicate_pk_rejected(self, company_db):
        with pytest.raises(PrimaryKeyError):
            company_db.insert("EMPLOYEE", {"SSN": "e1", "L_NAME": "Dup",
                                           "S_NAME": "Dup", "D_ID": "d1"})

    def test_graph_build_with_dangling_reference_skips_edge(self, company_db):
        record = company_db.get("EMPLOYEE", "e1")
        record.values["D_ID"] = "d99"
        frozen = FrozenGraph(DataGraph(company_db))  # must not raise
        from repro.relational.database import TupleId

        assert not [
            other
            for other, __, __ in frozen.neighbours(TupleId("EMPLOYEE", ("e1",)))
            if other == TupleId("DEPARTMENT", ("d1",))
        ]

    def test_search_on_corrupted_graph_still_terminates(self, company_db):
        record = company_db.get("EMPLOYEE", "e1")
        record.values["D_ID"] = None
        engine = KeywordSearchEngine(company_db)
        results = engine.search("Smith XML", limits=SearchLimits(max_rdb_length=3))
        # e1 lost its department edge; e2's connections survive.
        rendered = {r.answer.render() for r in results}
        assert "e2(Smith) – d2(XML)" in rendered
        assert "e1(Smith) – d1(XML)" not in rendered


class TestDegenerateInstances:
    def test_empty_database(self, db_schema):
        database = Database(db_schema)
        engine = KeywordSearchEngine(database)
        assert engine.search("anything") == []

    def test_single_tuple_database(self, db_schema):
        database = Database(db_schema)
        database.insert("DEPARTMENT", {"ID": "d1", "D_NAME": "solo"})
        engine = KeywordSearchEngine(database)
        results = engine.search("solo")
        assert len(results) == 1

    def test_all_null_text_attributes(self, db_schema):
        database = Database(db_schema)
        database.insert("DEPARTMENT", {"ID": "d1"})
        database.insert("DEPARTMENT", {"ID": "d2"})
        engine = KeywordSearchEngine(database)
        assert engine.search("anything") == []
        assert len(engine.search("d1")) == 1  # key values stay matchable
