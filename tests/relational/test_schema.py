"""Unit tests for relational schema definitions."""

import pytest

from repro.errors import SchemaError, UnknownAttributeError, UnknownRelationError
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    ForeignKey,
    Relation,
)


def make_relation(name="A", extra=()):
    return Relation(
        name,
        [AttributeDef("ID"), AttributeDef("NAME")] + list(extra),
        primary_key=["ID"],
    )


class TestAttributeDef:
    def test_defaults(self):
        attribute = AttributeDef("X")
        assert attribute.data_type == "str"
        assert attribute.nullable

    def test_is_text(self):
        assert AttributeDef("X", data_type="text").is_text
        assert not AttributeDef("X").is_text

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            AttributeDef("")

    def test_bad_type_rejected(self):
        with pytest.raises(SchemaError):
            AttributeDef("X", data_type="json")


class TestRelation:
    def test_attribute_order(self):
        relation = make_relation()
        assert relation.attribute_names == ("ID", "NAME")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation("A", [AttributeDef("X"), AttributeDef("X")], primary_key=["X"])

    def test_needs_a_name(self):
        with pytest.raises(SchemaError, match="name must be non-empty"):
            Relation("", [AttributeDef("ID")], primary_key=["ID"])

    def test_needs_attributes(self):
        with pytest.raises(SchemaError):
            Relation("A", [], primary_key=["ID"])

    def test_needs_primary_key(self):
        with pytest.raises(SchemaError):
            Relation("A", [AttributeDef("ID")], primary_key=[])

    def test_primary_key_must_exist(self):
        with pytest.raises(UnknownAttributeError):
            Relation("A", [AttributeDef("ID")], primary_key=["MISSING"])

    def test_text_attributes(self):
        relation = Relation(
            "A",
            [AttributeDef("ID"), AttributeDef("BODY", data_type="text")],
            primary_key=["ID"],
        )
        assert [a.name for a in relation.text_attributes] == ["BODY"]

    def test_attribute_lookup_raises_for_unknown(self):
        with pytest.raises(UnknownAttributeError):
            make_relation().attribute("MISSING")

    def test_middle_flag(self):
        relation = Relation(
            "M",
            [AttributeDef("A_ID"), AttributeDef("B_ID")],
            primary_key=["A_ID", "B_ID"],
            is_middle=True,
            implements_relationship="R",
        )
        assert relation.is_middle
        assert relation.implements_relationship == "R"


class TestForeignKey:
    def test_column_alignment_enforced(self):
        with pytest.raises(SchemaError):
            ForeignKey("f", "A", ("X", "Y"), "B", ("ID",))

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("f", "A", (), "B", ())

    def test_str(self):
        fk = ForeignKey("f", "A", ("B_ID",), "B", ("ID",))
        assert str(fk) == "A(B_ID) -> B(ID)"


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema(relations=[make_relation("A")])
        assert schema.relation("A").name == "A"
        assert schema.has_relation("A")

    def test_duplicate_relation_rejected(self):
        schema = DatabaseSchema(relations=[make_relation("A")])
        with pytest.raises(SchemaError):
            schema.add_relation(make_relation("A"))

    def test_unknown_relation_raises(self):
        with pytest.raises(UnknownRelationError):
            DatabaseSchema().relation("A")

    def test_fk_source_column_must_exist(self):
        schema = DatabaseSchema(relations=[make_relation("A"), make_relation("B")])
        with pytest.raises(UnknownAttributeError):
            schema.add_foreign_key(ForeignKey("f", "A", ("MISSING",), "B", ("ID",)))

    def test_fk_must_reference_full_primary_key(self):
        schema = DatabaseSchema(relations=[make_relation("A"), make_relation("B")])
        with pytest.raises(SchemaError):
            schema.add_foreign_key(ForeignKey("f", "A", ("NAME",), "B", ("NAME",)))

    def test_duplicate_fk_rejected(self):
        schema = DatabaseSchema(
            relations=[make_relation("A", [AttributeDef("B_ID")]), make_relation("B")]
        )
        schema.add_foreign_key(ForeignKey("f", "A", ("B_ID",), "B", ("ID",)))
        with pytest.raises(SchemaError):
            schema.add_foreign_key(ForeignKey("f", "A", ("B_ID",), "B", ("ID",)))

    def test_fk_navigation(self, db_schema):
        outgoing = db_schema.foreign_keys_from("WORKS_FOR")
        assert {fk.target for fk in outgoing} == {"EMPLOYEE", "PROJECT"}
        incoming = db_schema.foreign_keys_to("DEPARTMENT")
        assert {fk.source for fk in incoming} == {"PROJECT", "EMPLOYEE"}

    def test_adjacent_relations(self, db_schema):
        assert db_schema.adjacent_relations("EMPLOYEE") == (
            "DEPARTMENT",
            "DEPENDENT",
            "WORKS_FOR",
        )

    def test_middle_relations(self, db_schema):
        assert [r.name for r in db_schema.middle_relations()] == ["WORKS_FOR"]

    def test_validate_rejects_underlinked_middle(self):
        schema = DatabaseSchema(
            relations=[
                Relation(
                    "M",
                    [AttributeDef("A_ID")],
                    primary_key=["A_ID"],
                    is_middle=True,
                ),
                make_relation("A"),
            ]
        )
        schema.add_foreign_key(ForeignKey("f", "M", ("A_ID",), "A", ("ID",)))
        with pytest.raises(SchemaError):
            schema.validate()

    def test_replace_relation(self):
        schema = DatabaseSchema(relations=[make_relation("A")])
        schema.replace_relation(make_relation("A", [AttributeDef("EXTRA")]))
        assert schema.relation("A").has_attribute("EXTRA")

    def test_replace_unknown_relation_raises(self):
        with pytest.raises(UnknownRelationError):
            DatabaseSchema().replace_relation(make_relation("A"))

    def test_replace_cannot_drop_fk_column(self):
        schema = DatabaseSchema(
            relations=[make_relation("A", [AttributeDef("B_ID")]), make_relation("B")]
        )
        schema.add_foreign_key(ForeignKey("f", "A", ("B_ID",), "B", ("ID",)))
        with pytest.raises(SchemaError):
            schema.replace_relation(make_relation("A"))  # loses B_ID
        # And the failed replacement must not have been applied.
        assert schema.relation("A").has_attribute("B_ID")

    def test_replace_cannot_rekey_a_referenced_relation(self):
        schema = DatabaseSchema(
            relations=[make_relation("A", [AttributeDef("B_ID")]), make_relation("B")]
        )
        schema.add_foreign_key(ForeignKey("f", "A", ("B_ID",), "B", ("ID",)))
        rekeyed = Relation(
            "B", [AttributeDef("ID"), AttributeDef("NAME")], primary_key=["NAME"]
        )
        with pytest.raises(SchemaError, match="breaks referencing foreign key"):
            schema.replace_relation(rekeyed)
        assert schema.relation("B").primary_key == ("ID",)

    def test_unknown_foreign_key_raises(self, db_schema):
        with pytest.raises(SchemaError, match="no such foreign key"):
            db_schema.foreign_key("fk_missing")

    def test_describe_contains_relations_and_fks(self, db_schema):
        description = db_schema.describe()
        assert "WORKS_FOR" in description
        assert "[middle]" in description
        assert "fk_employee_department" in description
