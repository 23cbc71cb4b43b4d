"""Loading and dumping database instances as JSON.

The JSON format captures schema and instance in one document and is the
round-trip format used in tests:

.. code-block:: json

    {
      "schema": {
        "name": "company",
        "relations": [
          {"name": "DEPARTMENT",
           "attributes": [{"name": "ID", "type": "str"}, ...],
           "primary_key": ["ID"],
           "is_middle": false}
        ],
        "foreign_keys": [
          {"name": "fk", "source": "PROJECT", "source_columns": ["D_ID"],
           "target": "DEPARTMENT", "target_columns": ["ID"]}
        ]
      },
      "tuples": {"DEPARTMENT": [{"ID": "d1", ...}, ...]}
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    ForeignKey,
    Relation,
)

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "database_to_dict",
    "database_from_dict",
    "dump_json",
    "load_json",
]


def schema_to_dict(schema: DatabaseSchema) -> dict:
    """Serialise a schema into plain JSON-compatible data."""
    return {
        "name": schema.name,
        "relations": [
            {
                "name": relation.name,
                "attributes": [
                    {
                        "name": attribute.name,
                        "type": attribute.data_type,
                        "nullable": attribute.nullable,
                    }
                    for attribute in relation.attributes
                ],
                "primary_key": list(relation.primary_key),
                "is_middle": relation.is_middle,
                "implements_relationship": relation.implements_relationship,
            }
            for relation in schema.relations
        ],
        "foreign_keys": [
            {
                "name": fk.name,
                "source": fk.source,
                "source_columns": list(fk.source_columns),
                "target": fk.target,
                "target_columns": list(fk.target_columns),
                "unique": fk.unique,
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(data: Mapping) -> DatabaseSchema:
    """Inverse of :func:`schema_to_dict`."""
    try:
        relations = [
            Relation(
                name=entry["name"],
                attributes=[
                    AttributeDef(
                        name=attribute["name"],
                        data_type=attribute.get("type", "str"),
                        nullable=attribute.get("nullable", True),
                    )
                    for attribute in entry["attributes"]
                ],
                primary_key=entry["primary_key"],
                is_middle=entry.get("is_middle", False),
                implements_relationship=entry.get("implements_relationship"),
            )
            for entry in data["relations"]
        ]
        foreign_keys = [
            ForeignKey(
                name=entry["name"],
                source=entry["source"],
                source_columns=tuple(entry["source_columns"]),
                target=entry["target"],
                target_columns=tuple(entry["target_columns"]),
                unique=entry.get("unique", False),
            )
            for entry in data.get("foreign_keys", ())
        ]
    except KeyError as missing:
        raise SchemaError("malformed schema document", missing=str(missing)) from None
    return DatabaseSchema(
        name=data.get("name", "db"), relations=relations, foreign_keys=foreign_keys
    )


def database_to_dict(database: Database) -> dict:
    """Serialise schema plus instance."""
    return {
        "schema": schema_to_dict(database.schema),
        "tuples": {
            relation.name: [dict(record.values) for record in database.tuples(relation.name)]
            for relation in database.schema.relations
        },
        "labels": {
            relation.name: [record.label for record in database.tuples(relation.name)]
            for relation in database.schema.relations
        },
    }


def database_from_dict(data: Mapping) -> Database:
    """Inverse of :func:`database_to_dict`.

    Loads with deferred integrity checking (instances may list relations in
    any order), then verifies every foreign key.
    """
    schema = schema_from_dict(data["schema"])
    database = Database(schema, enforce_foreign_keys=False)
    labels = data.get("labels", {})
    for relation_name, rows in data.get("tuples", {}).items():
        relation_labels = labels.get(relation_name, [None] * len(rows))
        for row, label in zip(rows, relation_labels):
            database.insert(relation_name, row, label=label)
    database.check_integrity()
    database.enforce_foreign_keys = True
    return database


def dump_json(database: Database, path: Union[str, Path]) -> None:
    """Write schema and instance to one JSON file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(database_to_dict(database), handle, indent=2, default=str)


def load_json(path: Union[str, Path]) -> Database:
    """Load a database written by :func:`dump_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return database_from_dict(json.load(handle))

