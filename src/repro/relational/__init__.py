"""In-memory relational database substrate.

This package implements just enough of a relational engine for keyword
search over structural data: typed relations with primary and foreign keys
(:mod:`repro.relational.schema`), an instance store with integrity
enforcement (:mod:`repro.relational.database`), an inverted index over text
attributes (:mod:`repro.relational.index`) and JSON persistence
(:mod:`repro.relational.io`).
"""

from repro.relational.schema import AttributeDef, DatabaseSchema, ForeignKey, Relation
from repro.relational.database import Database, Tuple
from repro.relational.index import InvertedIndex, tokenize
from repro.relational.types import coerce_value

__all__ = [
    "AttributeDef",
    "Database",
    "DatabaseSchema",
    "ForeignKey",
    "InvertedIndex",
    "Relation",
    "Tuple",
    "coerce_value",
    "tokenize",
]
