"""Parametric ER schema generators for the schema and property tests.

Three shapes cover the structures the paper's taxonomy distinguishes:

* :func:`chain_schema` — entity types in a line with chosen per-step
  cardinalities: the direct schema-level analogue of a cardinality
  sequence, used to validate the classifier against brute-force instance
  counting;
* :func:`star_schema` — one hub entity with satellites, producing many
  fan-in/fan-out joints;
* :func:`random_schema` — a seeded random connected schema for fuzzing.

Each generator can also materialise a small instance via
:func:`instantiate_er`, which maps the schema to relations (through
:mod:`repro.er.mapping`) and fills them with seeded random tuples.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.er.cardinality import Cardinality
from repro.er.mapping import MappingResult, map_er_to_relational
from repro.er.model import Attribute, EntityType, ERSchema, RelationshipType
from repro.relational.database import Database

__all__ = ["chain_schema", "star_schema", "random_schema", "instantiate_er"]


def _entity(name: str) -> EntityType:
    return EntityType(
        name,
        [
            Attribute("ID", is_key=True),
            Attribute("NAME"),
            Attribute("DESCRIPTION", is_text=True),
        ],
    )


def chain_schema(cardinalities: Sequence[str | Cardinality]) -> ERSchema:
    """A chain ``E0 - E1 - ... - En`` with the given step cardinalities.

    ``chain_schema(["1:N", "N:M"])`` builds three entity types where
    ``E0 1:N E1`` and ``E1 N:M E2`` — the schema-level realisation of the
    cardinality sequence, so classifier verdicts can be cross-checked
    against actual instances.
    """
    schema = ERSchema(name="chain")
    count = len(cardinalities) + 1
    for index in range(count):
        schema.add_entity_type(_entity(f"E{index}"))
    for index, cardinality in enumerate(cardinalities):
        if isinstance(cardinality, str):
            cardinality = Cardinality.parse(cardinality)
        schema.add_relationship(
            RelationshipType(
                f"R{index}", f"E{index}", f"E{index + 1}", cardinality
            )
        )
    schema.validate()
    return schema


def star_schema(satellites: int, cardinality: str | Cardinality = "1:N") -> ERSchema:
    """A hub entity ``HUB`` connected to ``satellites`` satellite entities."""
    if isinstance(cardinality, str):
        cardinality = Cardinality.parse(cardinality)
    schema = ERSchema(name="star")
    schema.add_entity_type(_entity("HUB"))
    for index in range(satellites):
        name = f"S{index}"
        schema.add_entity_type(_entity(name))
        schema.add_relationship(
            RelationshipType(f"R{index}", "HUB", name, cardinality)
        )
    schema.validate()
    return schema


def random_schema(
    entities: int,
    extra_relationships: int = 0,
    seed: int = 3,
    nm_probability: float = 0.3,
) -> ERSchema:
    """A seeded random connected ER schema.

    A random spanning tree guarantees connectivity; ``extra_relationships``
    add cycles.  Each relationship is ``N:M`` with ``nm_probability``,
    otherwise ``1:N``.
    """
    rng = random.Random(seed)
    schema = ERSchema(name="random")
    names = [f"E{index}" for index in range(entities)]
    for name in names:
        schema.add_entity_type(_entity(name))

    relationship_count = 0

    def draw_cardinality() -> Cardinality:
        if rng.random() < nm_probability:
            return Cardinality.many_to_many()
        return Cardinality.one_to_many()

    connected = [names[0]]
    for name in names[1:]:
        other = rng.choice(connected)
        schema.add_relationship(
            RelationshipType(
                f"R{relationship_count}", other, name, draw_cardinality()
            )
        )
        relationship_count += 1
        connected.append(name)

    for __ in range(extra_relationships):
        left, right = rng.sample(names, 2)
        schema.add_relationship(
            RelationshipType(
                f"R{relationship_count}", left, right, draw_cardinality()
            )
        )
        relationship_count += 1
    schema.validate()
    return schema


def instantiate_er(
    er_schema: ERSchema,
    per_entity: int = 5,
    fanout: int = 2,
    seed: int = 5,
    mapping: Optional[MappingResult] = None,
) -> tuple[Database, MappingResult]:
    """Map an ER schema to relations and fill a seeded random instance.

    ``per_entity`` tuples are created for every entity type; each ``1:N``
    relationship assigns every child a random parent; each ``N:M``
    relationship links every left tuple to ``fanout`` random right tuples.
    """
    rng = random.Random(seed)
    if mapping is None:
        mapping = map_er_to_relational(er_schema)
    database = Database(mapping.schema, enforce_foreign_keys=False)

    ids: dict[str, list[str]] = {}
    for entity in er_schema.entity_types:
        relation_name = mapping.relation_of_entity[entity.name]
        ids[entity.name] = []
        for index in range(per_entity):
            identifier = f"{entity.name.lower()}_{index}"
            ids[entity.name].append(identifier)
            database.insert(
                relation_name,
                {
                    "ID": identifier,
                    "NAME": f"{entity.name.lower()}-{index}",
                    "DESCRIPTION": f"instance {index} of {entity.name.lower()}",
                },
            )

    for relationship in er_schema.relationships:
        cardinality = relationship.cardinality
        if cardinality.is_many_to_many:
            middle_name = mapping.relation_of_relationship[relationship.name]
            middle = mapping.schema.relation(middle_name)
            left_column, right_column = middle.primary_key[:2]
            seen = set()
            for left_id in ids[relationship.left]:
                rights = rng.sample(
                    ids[relationship.right],
                    min(fanout, len(ids[relationship.right])),
                )
                for right_id in rights:
                    if (left_id, right_id) in seen:
                        continue
                    seen.add((left_id, right_id))
                    database.insert(
                        middle_name, {left_column: left_id, right_column: right_id}
                    )
            continue

        fk_name = mapping.fk_of_relationship[relationship.name]
        fk = mapping.schema.foreign_key(fk_name)
        column = fk.source_columns[0]
        holder_entity = (
            relationship.left
            if mapping.relation_of_entity[relationship.left] == fk.source
            else relationship.right
        )
        referenced_entity = relationship.other_end(holder_entity)
        used_targets: set[str] = set()
        for holder_id in ids[holder_entity]:
            record = database.get(fk.source, holder_id)
            assert record is not None
            if fk.unique:
                available = [
                    t for t in ids[referenced_entity] if t not in used_targets
                ]
                if not available:
                    continue
                target_id = rng.choice(available)
                used_targets.add(target_id)
            else:
                target_id = rng.choice(ids[referenced_entity])
            record.values[column] = target_id

    database.check_integrity()
    database.enforce_foreign_keys = True
    return database, mapping
