"""Unit tests for the parametric ER schema generators."""

import pytest

from repro.core.associations import classify_er_path
from repro.er.paths import ERPath

from er_schemas import (
    chain_schema,
    instantiate_er,
    random_schema,
    star_schema,
)


class TestChainSchema:
    def test_structure(self):
        schema = chain_schema(["1:N", "N:M"])
        assert len(schema.entity_types) == 3
        assert len(schema.relationships) == 2

    def test_cardinalities_as_specified(self):
        schema = chain_schema(["1:N", "N:M", "N:1"])
        assert str(schema.relationship("R0").cardinality) == "1:N"
        assert str(schema.relationship("R1").cardinality) == "N:M"
        assert str(schema.relationship("R2").cardinality) == "N:1"

    def test_end_to_end_path_matches_spec(self):
        schema = chain_schema(["N:1", "1:N"])
        path = ERPath.from_relationships(schema, ["E0", "E1", "E2"])
        assert [str(c) for c in path.cardinalities()] == ["N:1", "1:N"]
        assert classify_er_path(path).is_loose

    def test_accepts_cardinality_objects(self):
        from repro.er.cardinality import Cardinality

        schema = chain_schema([Cardinality.parse("1:1")])
        assert str(schema.relationship("R0").cardinality) == "1:1"


class TestStarSchema:
    def test_structure(self):
        schema = star_schema(4)
        assert len(schema.entity_types) == 5
        assert len(schema.relationships) == 4

    def test_hub_is_in_every_relationship(self):
        schema = star_schema(3)
        for relationship in schema.relationships:
            assert "HUB" in (relationship.left, relationship.right)

    def test_satellite_to_satellite_is_loose(self):
        schema = star_schema(2, "1:N")
        path = ERPath.from_relationships(schema, ["S0", "HUB", "S1"])
        verdict = classify_er_path(path)
        assert verdict.is_loose
        assert verdict.loose_joint_positions == (0,)


class TestRandomSchema:
    def test_connected(self):
        schema = random_schema(entities=8, extra_relationships=2, seed=1)
        # Reachability via relationships: BFS over neighbours.
        seen = {"E0"}
        frontier = ["E0"]
        while frontier:
            current = frontier.pop()
            for __, other in schema.neighbours(current):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        assert len(seen) == 8

    def test_deterministic(self):
        first = random_schema(entities=6, seed=9)
        second = random_schema(entities=6, seed=9)
        assert [str(r) for r in first.relationships] == [
            str(r) for r in second.relationships
        ]

    def test_extra_relationships_counted(self):
        schema = random_schema(entities=5, extra_relationships=3, seed=2)
        assert len(schema.relationships) == 4 + 3

    def test_nm_probability_extremes(self):
        none = random_schema(entities=6, seed=4, nm_probability=0.0)
        assert all(not r.cardinality.is_many_to_many for r in none.relationships)
        always = random_schema(entities=6, seed=4, nm_probability=1.0)
        assert all(r.cardinality.is_many_to_many for r in always.relationships)


class TestInstantiation:
    def test_instance_is_consistent(self):
        schema = chain_schema(["1:N", "N:M"])
        database, mapping = instantiate_er(schema, per_entity=4, seed=3)
        database.check_integrity()

    def test_per_entity_counts(self):
        schema = chain_schema(["1:N"])
        database, mapping = instantiate_er(schema, per_entity=5)
        assert database.count("E0") == 5
        assert database.count("E1") == 5

    def test_nm_instances_fill_middle(self):
        schema = chain_schema(["N:M"])
        database, mapping = instantiate_er(schema, per_entity=4, fanout=2)
        middle = mapping.relation_of_relationship["R0"]
        assert database.count(middle) == 8

    def test_one_to_one_instances_unique(self):
        schema = chain_schema(["1:1"])
        database, mapping = instantiate_er(schema, per_entity=5)
        fk = mapping.schema.foreign_key(mapping.fk_of_relationship["R0"])
        values = [
            t.values[fk.source_columns[0]]
            for t in database.tuples(fk.source)
            if t.values[fk.source_columns[0]] is not None
        ]
        assert len(values) == len(set(values))

    def test_deterministic(self):
        schema = star_schema(3)
        first, __ = instantiate_er(schema, per_entity=4, seed=6)
        second, __ = instantiate_er(schema, per_entity=4, seed=6)
        first_rows = [t.values for t in first.all_tuples()]
        second_rows = [t.values for t in second.all_tuples()]
        assert first_rows == second_rows
