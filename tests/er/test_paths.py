"""Unit tests for ER paths and their enumeration."""

import pytest

from repro.er.cardinality import Cardinality
from repro.er.model import RelationshipType
from repro.er.paths import ERPath, ERStep, enumerate_paths
from repro.errors import PathError


def rel(schema, name):
    return schema.relationship(name)


class TestERStep:
    def test_forward(self, er_schema):
        step = ERStep.forward(rel(er_schema, "WORKS_FOR"))
        assert step.source == "DEPARTMENT"
        assert step.target == "EMPLOYEE"
        assert str(step.cardinality) == "1:N"

    def test_backward(self, er_schema):
        step = ERStep.backward(rel(er_schema, "WORKS_FOR"))
        assert step.source == "EMPLOYEE"
        assert str(step.cardinality) == "N:1"

    def test_reversed(self, er_schema):
        step = ERStep.forward(rel(er_schema, "CONTROLS")).reversed()
        assert step.source == "PROJECT"
        assert str(step.cardinality) == "N:1"

    def test_rejects_foreign_endpoints(self, er_schema):
        with pytest.raises(PathError):
            ERStep(rel(er_schema, "WORKS_FOR"), "PROJECT", "EMPLOYEE")

    def test_rejects_loop_on_non_reflexive(self, er_schema):
        with pytest.raises(PathError):
            ERStep(rel(er_schema, "WORKS_FOR"), "EMPLOYEE", "EMPLOYEE")

    def test_reflexive_step_to_another_entity_fails_the_endpoint_check(self):
        # A reflexive relationship has one end, so a step off it to any
        # other entity is refused as a foreign endpoint.
        supervises = RelationshipType("SUPERVISES", "A", "A", Cardinality.parse("1:N"))
        assert ERStep(supervises, "A", "A").target == "A"
        with pytest.raises(PathError, match="step endpoints do not match relationship"):
            ERStep(supervises, "A", "B")

    def test_str(self, er_schema):
        step = ERStep.forward(rel(er_schema, "WORKS_ON"))
        assert str(step) == "PROJECT N:M EMPLOYEE"


class TestERPath:
    def test_empty_rejected(self):
        with pytest.raises(PathError):
            ERPath([])

    def test_disconnected_rejected(self, er_schema):
        with pytest.raises(PathError):
            ERPath(
                [
                    ERStep.forward(rel(er_schema, "WORKS_FOR")),
                    ERStep.forward(rel(er_schema, "CONTROLS")),
                ]
            )

    def test_from_relationships_table1_row3(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["DEPARTMENT", "EMPLOYEE", "DEPENDENT"]
        )
        assert path.length == 2
        assert [str(c) for c in path.cardinalities()] == ["1:N", "1:N"]

    def test_from_relationships_needs_two_names(self, er_schema):
        with pytest.raises(PathError):
            ERPath.from_relationships(er_schema, ["DEPARTMENT"])

    def test_from_relationships_rejects_unconnected(self, er_schema):
        with pytest.raises(PathError):
            ERPath.from_relationships(er_schema, ["DEPARTMENT", "DEPENDENT"])

    def test_endpoints_and_entities(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["PROJECT", "DEPARTMENT", "EMPLOYEE"]
        )
        assert path.source == "PROJECT"
        assert path.target == "EMPLOYEE"
        assert path.entities() == ("PROJECT", "DEPARTMENT", "EMPLOYEE")

    def test_is_immediate(self, er_schema):
        path = ERPath.from_relationships(er_schema, ["DEPARTMENT", "EMPLOYEE"])
        assert path.is_immediate

    def test_composed_table1_row5(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["PROJECT", "DEPARTMENT", "EMPLOYEE"]
        )
        assert path.composed() == Cardinality.many_to_many()

    def test_reversed_swaps_endpoints(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["DEPARTMENT", "EMPLOYEE", "DEPENDENT"]
        )
        reverse = path.reversed()
        assert reverse.source == "DEPENDENT"
        assert reverse.target == "DEPARTMENT"
        assert [str(c) for c in reverse.cardinalities()] == ["N:1", "N:1"]

    def test_reversed_composition_is_reversed(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["DEPARTMENT", "PROJECT", "EMPLOYEE"]
        )
        assert path.reversed().composed() == path.composed().reversed()

    def test_subpath(self, er_schema):
        path = ERPath.from_relationships(
            er_schema,
            ["DEPARTMENT", "PROJECT", "EMPLOYEE", "DEPENDENT"],
        )
        sub = path.subpath(1, 3)
        assert sub.source == "PROJECT"
        assert sub.target == "DEPENDENT"

    def test_str_matches_paper_notation(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["DEPARTMENT", "EMPLOYEE", "DEPENDENT"]
        )
        assert str(path) == "DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT"

    def test_equality_and_hash(self, er_schema):
        first = ERPath.from_relationships(er_schema, ["DEPARTMENT", "EMPLOYEE"])
        second = ERPath.from_relationships(er_schema, ["DEPARTMENT", "EMPLOYEE"])
        assert first == second
        assert len({first, second}) == 1

    def test_len_and_iter(self, er_schema):
        path = ERPath.from_relationships(
            er_schema, ["DEPARTMENT", "PROJECT", "EMPLOYEE"]
        )
        assert len(path) == 2
        assert [s.target for s in path] == ["PROJECT", "EMPLOYEE"]


class TestEnumeratePaths:
    def test_department_to_employee_direct_and_transitive(self, er_schema):
        paths = list(enumerate_paths(er_schema, "DEPARTMENT", "EMPLOYEE", 2))
        rendered = {str(path) for path in paths}
        assert "DEPARTMENT 1:N EMPLOYEE" in rendered
        assert "DEPARTMENT 1:N PROJECT N:M EMPLOYEE" in rendered
        assert len(paths) == 2

    def test_shorter_paths_come_first(self, er_schema):
        paths = list(enumerate_paths(er_schema, "DEPARTMENT", "EMPLOYEE", 3))
        lengths = [path.length for path in paths]
        assert lengths == sorted(lengths)

    def test_max_length_zero_yields_nothing(self, er_schema):
        assert list(enumerate_paths(er_schema, "DEPARTMENT", "EMPLOYEE", 0)) == []

    def test_paths_are_simple(self, er_schema):
        for path in enumerate_paths(er_schema, "DEPARTMENT", "DEPENDENT", 4):
            entities = path.entities()
            assert len(entities) == len(set(entities))

    def test_unknown_entity_raises(self, er_schema):
        with pytest.raises(Exception):
            list(enumerate_paths(er_schema, "NOPE", "EMPLOYEE", 2))

    def test_department_to_dependent(self, er_schema):
        paths = list(enumerate_paths(er_schema, "DEPARTMENT", "DEPENDENT", 3))
        rendered = {str(path) for path in paths}
        # Table 1 rows 3 and 6.
        assert "DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT" in rendered
        assert (
            "DEPARTMENT 1:N PROJECT N:M EMPLOYEE 1:N DEPENDENT" in rendered
        )

    def test_deterministic_order(self, er_schema):
        first = [str(p) for p in enumerate_paths(er_schema, "PROJECT", "DEPENDENT", 4)]
        second = [str(p) for p in enumerate_paths(er_schema, "PROJECT", "DEPENDENT", 4)]
        assert first == second

    def test_parallel_relationships_yield_separate_paths(self):
        from repro.er.model import Attribute, EntityType, ERSchema, RelationshipType

        schema = ERSchema(name="parallel")
        for name in ("A", "B"):
            schema.add_entity_type(
                EntityType(name, [Attribute("ID", is_key=True)])
            )
        schema.add_relationship(
            RelationshipType("OWNS", "A", "B", Cardinality.parse("1:N"))
        )
        schema.add_relationship(
            RelationshipType("RENTS", "A", "B", Cardinality.parse("N:M"))
        )
        paths = list(enumerate_paths(schema, "A", "B", 1))
        names = {p.steps[0].relationship.name for p in paths}
        assert names == {"OWNS", "RENTS"}

    def test_parallel_relationships_make_from_relationships_ambiguous(self):
        from repro.er.model import Attribute, EntityType, ERSchema, RelationshipType

        schema = ERSchema(name="parallel")
        for name in ("A", "B"):
            schema.add_entity_type(
                EntityType(name, [Attribute("ID", is_key=True)])
            )
        schema.add_relationship(
            RelationshipType("OWNS", "A", "B", Cardinality.parse("1:N"))
        )
        schema.add_relationship(
            RelationshipType("RENTS", "A", "B", Cardinality.parse("N:M"))
        )
        with pytest.raises(PathError):
            ERPath.from_relationships(schema, ["A", "B"])
