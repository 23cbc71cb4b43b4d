"""Unit tests for JSON persistence."""

import pytest

from repro.errors import ForeignKeyError, SchemaError
from repro.relational.io import (
    database_from_dict,
    database_to_dict,
    dump_json,
    load_json,
    schema_from_dict,
    schema_to_dict,
)


class TestSchemaRoundTrip:
    def test_round_trip_structure(self, db_schema):
        recovered = schema_from_dict(schema_to_dict(db_schema))
        assert {r.name for r in recovered.relations} == {
            r.name for r in db_schema.relations
        }
        assert recovered.relation("WORKS_FOR").is_middle
        assert recovered.relation("WORKS_FOR").implements_relationship == "WORKS_ON"

    def test_round_trip_foreign_keys(self, db_schema):
        recovered = schema_from_dict(schema_to_dict(db_schema))
        assert len(recovered.foreign_keys) == len(db_schema.foreign_keys)
        fk = recovered.foreign_key("fk_works_for_employee")
        assert fk.source_columns == ("ESSN",)

    def test_round_trip_types(self, db_schema):
        recovered = schema_from_dict(schema_to_dict(db_schema))
        assert recovered.relation("WORKS_FOR").attribute("HOURS").data_type == "int"
        assert recovered.relation("DEPARTMENT").attribute("D_DESCRIPTION").is_text

    def test_malformed_document_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"relations": [{"name": "A"}]})


class TestDatabaseRoundTrip:
    def test_round_trip_counts(self, company_db):
        recovered = database_from_dict(database_to_dict(company_db))
        assert recovered.count() == company_db.count()

    def test_round_trip_values(self, company_db):
        recovered = database_from_dict(database_to_dict(company_db))
        assert recovered.get("WORKS_FOR", "e1", "p1")["HOURS"] == 40

    def test_round_trip_labels(self, company_db):
        recovered = database_from_dict(database_to_dict(company_db))
        assert recovered.by_label("w_f2").tid.key == ("e2", "p3")

    def test_load_checks_integrity(self, company_db):
        data = database_to_dict(company_db)
        data["tuples"]["EMPLOYEE"][0]["D_ID"] = "d99"
        with pytest.raises(ForeignKeyError):
            database_from_dict(data)


class TestFiles:
    def test_json_file_round_trip(self, company_db, tmp_path):
        path = tmp_path / "company.json"
        dump_json(company_db, path)
        recovered = load_json(path)
        assert recovered.count() == 16
        assert recovered.get("DEPARTMENT", "d1")["D_NAME"] == "Cs"

