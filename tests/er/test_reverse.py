"""Unit tests for relational-to-ER reverse engineering."""

import pytest

from repro.datasets.company import build_company_er_schema, build_company_schema
from repro.er.mapping import map_er_to_relational
from repro.er.reverse import detect_middle_relations, reverse_engineer
from repro.errors import MappingError
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    ForeignKey,
    Relation,
)


class TestMiddleDetection:
    def test_flagged_middles_are_detected(self, db_schema):
        assert detect_middle_relations(db_schema) == ("WORKS_FOR",)

    def test_structural_detection_without_flag(self):
        schema = DatabaseSchema(name="s")
        schema.add_relation(
            Relation("A", [AttributeDef("ID")], primary_key=["ID"])
        )
        schema.add_relation(
            Relation("B", [AttributeDef("ID")], primary_key=["ID"])
        )
        schema.add_relation(
            Relation(
                "LINK",
                [AttributeDef("A_ID"), AttributeDef("B_ID"), AttributeDef("W")],
                primary_key=["A_ID", "B_ID"],
            )
        )
        schema.add_foreign_key(ForeignKey("f1", "LINK", ("A_ID",), "A", ("ID",)))
        schema.add_foreign_key(ForeignKey("f2", "LINK", ("B_ID",), "B", ("ID",)))
        assert detect_middle_relations(schema) == ("LINK",)

    def test_relation_with_own_key_is_not_middle(self):
        schema = DatabaseSchema(name="s")
        schema.add_relation(Relation("A", [AttributeDef("ID")], primary_key=["ID"]))
        schema.add_relation(Relation("B", [AttributeDef("ID")], primary_key=["ID"]))
        schema.add_relation(
            Relation(
                "EVENT",
                [
                    AttributeDef("ID"),
                    AttributeDef("A_ID"),
                    AttributeDef("B_ID"),
                ],
                primary_key=["ID"],
            )
        )
        schema.add_foreign_key(ForeignKey("f1", "EVENT", ("A_ID",), "A", ("ID",)))
        schema.add_foreign_key(ForeignKey("f2", "EVENT", ("B_ID",), "B", ("ID",)))
        assert detect_middle_relations(schema) == ()

    def test_single_fk_relation_is_not_middle(self, db_schema):
        assert "DEPENDENT" not in detect_middle_relations(db_schema)


class TestReverseEngineering:
    def test_company_entities(self, db_schema):
        result = reverse_engineer(db_schema)
        names = {entity.name for entity in result.er_schema.entity_types}
        assert names == {"DEPARTMENT", "PROJECT", "EMPLOYEE", "DEPENDENT"}

    def test_company_relationship_count(self, db_schema):
        result = reverse_engineer(db_schema)
        # 3 plain FKs between entity relations + 1 N:M via the middle.
        assert len(result.er_schema.relationships) == 4

    def test_plain_fk_becomes_one_to_many(self, db_schema):
        result = reverse_engineer(db_schema)
        name = result.relationship_of_fk["fk_employee_department"]
        relationship = result.er_schema.relationship(name)
        assert str(relationship.cardinality) == "1:N"
        assert relationship.left == "DEPARTMENT"
        assert relationship.right == "EMPLOYEE"

    def test_middle_becomes_many_to_many(self, db_schema):
        result = reverse_engineer(db_schema)
        name = result.relationship_of_middle["WORKS_FOR"]
        relationship = result.er_schema.relationship(name)
        assert relationship.cardinality.is_many_to_many
        assert {relationship.left, relationship.right} == {"EMPLOYEE", "PROJECT"}

    def test_middle_payload_becomes_relationship_attribute(self, db_schema):
        result = reverse_engineer(db_schema)
        name = result.relationship_of_middle["WORKS_FOR"]
        relationship = result.er_schema.relationship(name)
        assert [a.name for a in relationship.attributes] == ["HOURS"]

    def test_unique_fk_becomes_one_to_one(self):
        schema = DatabaseSchema(name="s")
        schema.add_relation(Relation("A", [AttributeDef("ID")], primary_key=["ID"]))
        schema.add_relation(
            Relation(
                "B",
                [AttributeDef("ID"), AttributeDef("A_ID")],
                primary_key=["ID"],
            )
        )
        schema.add_foreign_key(
            ForeignKey("f", "B", ("A_ID",), "A", ("ID",), unique=True)
        )
        result = reverse_engineer(schema)
        relationship = result.er_schema.relationship(result.relationship_of_fk["f"])
        assert relationship.cardinality.is_one_to_one

    def test_ternary_middle_rejected(self):
        schema = DatabaseSchema(name="s")
        for name in ("A", "B", "C"):
            schema.add_relation(
                Relation(name, [AttributeDef("ID")], primary_key=["ID"])
            )
        schema.add_relation(
            Relation(
                "LINK",
                [AttributeDef("A_ID"), AttributeDef("B_ID"), AttributeDef("C_ID")],
                primary_key=["A_ID", "B_ID", "C_ID"],
            )
        )
        for name in ("A", "B", "C"):
            schema.add_foreign_key(
                ForeignKey(f"f{name}", "LINK", (f"{name}_ID",), name, ("ID",))
            )
        with pytest.raises(MappingError):
            reverse_engineer(schema)

    def test_foreign_key_into_a_middle_relation_rejected(self, db_schema):
        schema = DatabaseSchema(name="s", relations=list(db_schema.relations))
        for foreign_key in db_schema.foreign_keys:
            schema.add_foreign_key(foreign_key)
        schema.add_relation(Relation(
            "AUDIT",
            [AttributeDef("ID"), AttributeDef("ESSN"), AttributeDef("P_ID")],
            primary_key=["ID"],
        ))
        schema.add_foreign_key(ForeignKey(
            "fk_audit_assignment", "AUDIT", ("ESSN", "P_ID"),
            "WORKS_FOR", ("ESSN", "P_ID"),
        ))
        with pytest.raises(MappingError, match="points into a middle relation"):
            reverse_engineer(schema)

    def test_round_trip_preserves_structure(self):
        """ER -> relational -> ER preserves cardinalities and arity."""
        original = build_company_er_schema()
        mapped = map_er_to_relational(original)
        recovered = reverse_engineer(mapped.schema)
        cardinalities = sorted(
            str(r.cardinality) for r in recovered.er_schema.relationships
        )
        assert cardinalities == sorted(
            str(r.cardinality) for r in original.relationships
        )
        assert {e.name for e in recovered.er_schema.entity_types} == {
            e.name for e in original.entity_types
        }
