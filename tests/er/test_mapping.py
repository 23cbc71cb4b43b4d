"""Unit tests for the ER-to-relational mapping."""

import pytest

from repro.datasets.company import build_company_er_schema
from repro.er.cardinality import Cardinality
from repro.er.mapping import map_er_to_relational
from repro.er.model import Attribute, EntityType, ERSchema, RelationshipType
from repro.errors import MappingError


def simple_schema(cardinality="1:N"):
    schema = ERSchema(name="s")
    for name in ("A", "B"):
        schema.add_entity_type(
            EntityType(name, [Attribute("ID", is_key=True), Attribute("NAME")])
        )
    schema.add_relationship(
        RelationshipType("R", "A", "B", Cardinality.parse(cardinality))
    )
    return schema


class TestEntityMapping:
    def test_entity_becomes_relation(self):
        result = map_er_to_relational(simple_schema())
        assert result.schema.has_relation("A")
        assert result.schema.has_relation("B")
        assert result.relation_of_entity == {"A": "A", "B": "B"}

    def test_key_attribute_becomes_primary_key(self):
        result = map_er_to_relational(simple_schema())
        assert result.schema.relation("A").primary_key == ("ID",)

    def test_text_attribute_maps_to_text_type(self):
        schema = ERSchema(name="s")
        schema.add_entity_type(
            EntityType(
                "A",
                [Attribute("ID", is_key=True), Attribute("DESC", is_text=True)],
            )
        )
        result = map_er_to_relational(schema)
        assert result.schema.relation("A").attribute("DESC").data_type == "text"

    def test_entity_without_key_rejected(self):
        schema = ERSchema(name="s")
        schema.add_entity_type(EntityType("A", [Attribute("X")]))
        with pytest.raises(MappingError):
            map_er_to_relational(schema)

    def test_composite_key_rejected(self):
        schema = ERSchema(name="s")
        schema.add_entity_type(EntityType(
            "A", [Attribute("X", is_key=True), Attribute("Y", is_key=True)]
        ))
        with pytest.raises(MappingError, match="composite entity keys"):
            map_er_to_relational(schema)


class TestFunctionalRelationships:
    def test_one_to_many_puts_fk_on_many_side(self):
        result = map_er_to_relational(simple_schema("1:N"))
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.source == "B"       # the N side holds the reference
        assert fk.target == "A"
        assert not fk.unique

    def test_many_to_one_puts_fk_on_left(self):
        result = map_er_to_relational(simple_schema("N:1"))
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.source == "A"
        assert fk.target == "B"

    def test_one_to_one_is_unique_fk(self):
        result = map_er_to_relational(simple_schema("1:1"))
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.unique

    def test_generated_column_name(self):
        result = map_er_to_relational(simple_schema("1:N"))
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.source_columns == ("A_ID",)

    def test_column_name_override(self):
        result = map_er_to_relational(
            simple_schema("1:N"), column_names={"R": "PARENT"}
        )
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.source_columns == ("PARENT",)

    @pytest.mark.parametrize(
        "cardinality, holder", [("1:N", "B"), ("N:1", "A"), ("1:1", "B")]
    )
    def test_relationship_attributes_land_on_the_fk_holder(
        self, cardinality, holder
    ):
        schema = ERSchema(
            name="s",
            entity_types=[
                EntityType("A", [Attribute("ID", is_key=True)]),
                EntityType("B", [Attribute("ID", is_key=True)]),
            ],
            relationships=[
                RelationshipType(
                    "R", "A", "B", Cardinality.parse(cardinality),
                    attributes=(Attribute("SINCE", data_type="int"),),
                )
            ],
        )
        result = map_er_to_relational(schema)
        fk = result.schema.foreign_key(result.fk_of_relationship["R"])
        assert fk.source == holder
        since = result.schema.relation(holder).attribute("SINCE")
        assert since.data_type == "int"
        other = "A" if holder == "B" else "B"
        assert not result.schema.relation(other).has_attribute("SINCE")

    def test_reflexive_functional_needs_explicit_columns(self):
        schema = ERSchema(name="s")
        schema.add_entity_type(EntityType("A", [Attribute("ID", is_key=True)]))
        schema.add_relationship(
            RelationshipType("MANAGES", "A", "A", Cardinality.parse("1:N"))
        )
        with pytest.raises(MappingError, match="reflexive"):
            map_er_to_relational(schema)


class TestManyToMany:
    def test_middle_relation_created(self):
        result = map_er_to_relational(simple_schema("N:M"))
        assert "R" in result.relation_of_relationship.values() or \
            result.relation_of_relationship["R"] == "R"
        middle = result.schema.relation("R")
        assert middle.is_middle
        assert middle.implements_relationship == "R"

    def test_middle_primary_key_is_both_legs(self):
        result = map_er_to_relational(simple_schema("N:M"))
        middle = result.schema.relation("R")
        assert set(middle.primary_key) == {"A_ID", "B_ID"}

    def test_middle_has_two_fks(self):
        result = map_er_to_relational(simple_schema("N:M"))
        assert len(result.schema.foreign_keys_from("R")) == 2

    def test_relationship_attributes_land_on_middle(self):
        schema = simple_schema("N:M")
        # Rebuild with an attribute on the relationship.
        schema = ERSchema(
            name="s",
            entity_types=[
                EntityType("A", [Attribute("ID", is_key=True)]),
                EntityType("B", [Attribute("ID", is_key=True)]),
            ],
            relationships=[
                RelationshipType(
                    "R", "A", "B", Cardinality.parse("N:M"),
                    attributes=(Attribute("HOURS", data_type="int"),),
                )
            ],
        )
        result = map_er_to_relational(schema)
        assert result.schema.relation("R").has_attribute("HOURS")

    def test_middle_name_override(self):
        result = map_er_to_relational(
            simple_schema("N:M"), middle_relation_names={"R": "LINKS"}
        )
        assert result.schema.relation("LINKS").is_middle

    def test_reflexive_nm_gets_disambiguated_columns(self):
        schema = ERSchema(name="s")
        schema.add_entity_type(EntityType("A", [Attribute("ID", is_key=True)]))
        schema.add_relationship(
            RelationshipType("R", "A", "A", Cardinality.parse("N:M"))
        )
        result = map_er_to_relational(schema)
        middle = result.schema.relation("R")
        assert set(middle.primary_key) == {"A_ID_left", "A_ID_right"}

    def test_colliding_leg_columns_rejected(self):
        with pytest.raises(MappingError, match="leg columns collide"):
            map_er_to_relational(
                simple_schema("N:M"),
                column_names={"R.A": "REF", "R.B": "REF"},
            )


class TestCompanyMapping:
    def test_company_schema_maps(self):
        result = map_er_to_relational(build_company_er_schema())
        names = {relation.name for relation in result.schema.relations}
        assert names == {
            "DEPARTMENT", "EMPLOYEE", "PROJECT", "DEPENDENT", "WORKS_ON",
        }
        assert result.schema.relation("WORKS_ON").is_middle

    def test_company_fk_count(self):
        result = map_er_to_relational(build_company_er_schema())
        # WORKS_FOR, CONTROLS, DEPENDENTS as plain FKs + 2 middle legs.
        assert len(result.schema.foreign_keys) == 5

    def test_schema_validates(self):
        result = map_er_to_relational(build_company_er_schema())
        result.schema.validate()
