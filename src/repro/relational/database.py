"""Database instances: tuples, integrity enforcement, navigation.

A :class:`Database` stores tuples per relation, keyed by primary key, and
enforces primary-key uniqueness on insert.  Foreign-key integrity can be
checked immediately (default) or deferred to :meth:`Database.check_integrity`
for bulk loads with forward references.

Tuples are identified by :class:`TupleId` — ``(relation, primary key
values)`` — and may additionally carry a human-readable *label* (``d1``,
``w_f1``) so that reproduced tables render exactly as in the paper.
Every relation, inserted or snapshot-restored
(:meth:`Database.adopt_columns`), keeps its rows as columns and builds
a row's :class:`Tuple` the first time a caller reads it; the cold build
reads the columns (:meth:`Database.rows`), and an answer renders through
:meth:`Database.label`, so neither builds one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import compress, count as _counting, islice
from operator import not_
from typing import Iterator, Mapping, Optional, Sequence

from repro.errors import (
    ForeignKeyError,
    IntegrityError,
    PrimaryKeyError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational.schema import DatabaseSchema, ForeignKey, Relation
from repro.relational.types import coerce_value

__all__ = ["TupleId", "Tuple", "Database"]


def _reference_key(values: Mapping[str, object], foreign_key: ForeignKey) -> tuple:
    """The key ``values`` hold in a foreign key's columns (NULLs included)."""
    return tuple([values[column] for column in foreign_key.source_columns])


def _references_itself(
    tid: "TupleId", values: Mapping[str, object], foreign_key: ForeignKey
) -> bool:
    """Whether the tuple ``tid`` with ``values`` references its own key
    through ``foreign_key`` (a self-loop): an enforced insert or delete
    accepts it."""
    return (
        foreign_key.source == foreign_key.target == tid.relation
        and _reference_key(values, foreign_key) == tid.key
    )


def _default_label(key: tuple) -> str:
    """A tuple's label unless one is given: its primary key rendered."""
    return ",".join(map(str, key))


class TupleId:
    """Stable identity of a tuple: relation name plus primary key values.

    Immutable; hashed once, on first use.  The hash is never pickled:
    :meth:`__reduce__` rebuilds the id in the receiving process.
    """

    __slots__ = ("relation", "key", "_hash")

    def __init__(self, relation: str, key: tuple[object, ...]) -> None:
        _set_relation(self, relation)
        _set_key(self, key)
        _set_hash(self, None)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.relation, self.key))
            _set_hash(self, value)
        return value

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.relation == other.relation and self.key == other.key

    def __reduce__(self):
        return TupleId, (self.relation, self.key)

    def __repr__(self) -> str:
        return f"TupleId(relation={self.relation!r}, key={self.key!r})"

    def __str__(self) -> str:
        rendered = ",".join(str(part) for part in self.key)
        return f"{self.relation}({rendered})"


# Past the refusing ``__setattr__``, faster than ``object.__setattr__``.
_set_relation, _set_key, _set_hash = (
    slot.__set__ for slot in (TupleId.relation, TupleId.key, TupleId._hash)
)


class Tuple:
    """One stored tuple.

    ``values`` maps attribute name to (coerced) value.  ``label`` is a short
    display name; it defaults to the primary key rendered as a string, which
    for the paper's data (single ``ID`` columns holding ``d1``, ``e1``, ...)
    already matches the notation used in its tables.
    """

    __slots__ = ("tid", "values", "label")

    def __init__(
        self,
        tid: TupleId,
        values: Mapping[str, object],
        label: Optional[str] = None,
    ) -> None:
        self.tid = tid
        self.values = dict(values)
        self.label = _default_label(tid.key) if label is None else label

    @property
    def relation(self) -> str:
        return self.tid.relation

    def __getitem__(self, attribute: str) -> object:
        return self.values[attribute]

    def get(self, attribute: str, default: object = None) -> object:
        return self.values.get(attribute, default)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tuple) and other.tid == self.tid

    def __hash__(self) -> int:
        return hash(self.tid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tuple({self.label!r} in {self.relation})"


class _Rows:
    """One relation's rows as columns, by row number: its attribute
    names (schema order), a primary key and one value per attribute
    column per row, labels (None, or per row the given label or None)
    and the row's :class:`TupleId` (``tids``: made once per inserted
    row; None for a snapshot-restored relation, whose ids derive from
    the keys on demand).  A store maps a row's key to its row number
    until the row is read; a deleted row's slots are cleared to None.
    """

    __slots__ = ("relation", "names", "keys", "columns", "labels", "tids", "unread")

    def __init__(self, relation, names, keys, columns, labels, tids) -> None:
        self.relation = relation
        self.names = names
        self.keys = keys
        self.columns = columns
        self.labels = labels
        self.tids = tids
        #: Rows still held here only (an int in the store); the other
        #: slots are dead: cleared by a delete or read into a Tuple.
        self.unread = len(keys)

    @classmethod
    def empty(cls, relation: str, names) -> "_Rows":
        return cls(relation, names, [], [[] for __ in names], None, [])

    def tid(self, row: int) -> TupleId:
        if self.tids is None:
            return TupleId(self.relation, self.keys[row])
        return self.tids[row]

    def append(self, key: tuple, tid: TupleId, values, label) -> int:
        """Add one row (``values`` in schema order); its row number."""
        row = len(self.keys)
        self.keys.append(key)
        for column, value in zip(self.columns, values):
            column.append(value)
        if label is not None and self.labels is None:
            self.labels = [None] * row
        if self.labels is not None:
            self.labels.append(label)
        if self.tids is not None:
            self.tids.append(tid)
        self.unread += 1
        return row

    def clear(self, row: int) -> None:
        """Drop a deleted unread row's values."""
        self.keys[row] = None
        for column in self.columns:
            column[row] = None
        if self.labels is not None:
            self.labels[row] = None
        if self.tids is not None:
            self.tids[row] = None
        self.unread -= 1

    def values(self, row: int) -> dict:
        return dict(zip(self.names, [column[row] for column in self.columns]))

    def packed(self, order: list) -> "_Rows":
        """The rows ``order`` names, renumbered 0, 1, ... in that order."""
        return _Rows(
            self.relation,
            self.names,
            list(map(self.keys.__getitem__, order)),
            [list(map(column.__getitem__, order)) for column in self.columns],
            None if self.labels is None else list(map(self.labels.__getitem__, order)),
            None if self.tids is None else list(map(self.tids.__getitem__, order)),
        )


class Database:
    """An in-memory relational database instance.

    Parameters
    ----------
    schema:
        The relational schema the instance must conform to.
    enforce_foreign_keys:
        When True (default) every insert validates its outgoing foreign
        keys immediately; deletes reject when referencing tuples remain.
        When False, integrity is only checked by :meth:`check_integrity`.
    """

    def __init__(self, schema: DatabaseSchema, enforce_foreign_keys: bool = True) -> None:
        self.schema = schema
        self.enforce_foreign_keys = enforce_foreign_keys
        #: Per relation, primary key -> row number into its ``_columns``
        #: (unread) or the row's Tuple (read), in store order.
        self._tuples: dict[str, dict[tuple[object, ...], Tuple | int]] = {
            relation.name: {} for relation in schema.relations
        }
        #: Per foreign key (by name): referenced key -> number of tuples
        #: holding it.  A key's counter is built by the first enforced
        #: ``delete`` that needs it and kept current from then on, so
        #: instances that never delete pay neither the scan nor the
        #: memory.
        self._reference_counts: dict[str, dict[tuple, int]] = {}
        #: Per relation with a row: its :class:`_Rows`.  An int in its
        #: store is a row number into them, built into a Tuple on first read.
        self._columns: dict[str, _Rows] = {}
        #: Row counts of restored relations whose store is not loaded yet.
        self._unloaded: dict[str, int] = {}

    def adopt_columns(
        self, relation_name: str, columns: list, labels: Optional[list]
    ) -> dict:
        """A restored relation's store: primary key -> row number into
        ``columns`` (one list per attribute, in schema order; ``labels``
        None, or None wherever a label is the key's default rendering).
        No row is built here; the accessors build each on first read."""
        relation = self.schema.relation(relation_name)
        names = relation.attribute_names
        keys = list(zip(*[columns[names.index(c)] for c in relation.primary_key]))
        self._columns[relation_name] = _Rows(
            relation_name, names, keys, columns, labels, None
        )
        return dict(zip(keys, _counting()))

    def _rows(self, relation_name: str) -> _Rows:
        """The relation's columns (empty ones for a relation never
        inserted into); its store must be loaded first."""
        rows = self._columns.get(relation_name)
        if rows is None:
            names = self.schema.relation(relation_name).attribute_names
            rows = self._columns[relation_name] = _Rows.empty(relation_name, names)
        return rows

    def _build(self, relation_name: str, row: int) -> Tuple:
        """Row ``row`` as its Tuple, written back over the int in its
        store."""
        rows = self._columns[relation_name]
        key = rows.keys[row]
        record = Tuple.__new__(Tuple)
        record.tid = rows.tid(row)
        record.values = rows.values(row)
        label = None if rows.labels is None else rows.labels[row]
        record.label = _default_label(key) if label is None else label
        self._tuples[relation_name][key] = record
        rows.unread -= 1
        return record

    def _read(self, relation_name: str, record):
        """A stored value as its Tuple (None stays None)."""
        if record.__class__ is int:
            return self._build(relation_name, record)
        return record

    def _store(self, relation_name: str) -> dict:
        store = self._tuples.get(relation_name)
        if store is None:
            raise UnknownRelationError("no such relation", relation=relation_name)
        return store

    def _missing(self, tid: TupleId):
        """Raise for a tuple id the database does not store."""
        if tid.relation not in self._tuples:
            raise UnknownRelationError(
                "no such relation", relation=tid.relation
            ) from None
        raise IntegrityError("no such tuple", tid=str(tid)) from None

    def _records(self, relation_name: str) -> dict:
        """A relation's store with every row built (whole-relation reads)."""
        store = self._store(relation_name)
        rows = self._columns.get(relation_name)
        if rows is not None and rows.keys:
            unread = [row for row in store.values() if row.__class__ is int]
            for row in unread:
                self._build(relation_name, row)
            # No int is left to read them: later inserts start afresh.
            self._columns[relation_name] = _Rows.empty(relation_name, rows.names)
        return store

    def rows(self, relation_name: str) -> tuple[list, list, dict]:
        """``(keys, tids, columns)`` of a relation's rows in store order:
        primary keys, tuple ids and, per attribute name, its values.
        Builds no row — an unread row is read from its columns, a read
        one from its Tuple — and may hand out the relation's own lists:
        read them, never change them."""
        store = self._store(relation_name)
        rows = self._rows(relation_name)
        order = list(store.values())
        if len(rows.keys) == rows.unread == len(order) and order == list(range(len(order))):
            # Every row unread, in row order: the columns as they are.
            keys, columns, tids = rows.keys, rows.columns, rows.tids
            if tids is None:
                tids = [TupleId(relation_name, key) for key in keys]
        else:  # read rows, cleared slots or rows a rollback moved
            keys, tids, values = list(store), [], []
            for stored in order:
                if stored.__class__ is int:
                    tids.append(rows.tid(stored))
                    values.append([column[stored] for column in rows.columns])
                else:
                    tids.append(stored.tid)
                    values.append(list(map(stored.values.get, rows.names)))
            columns = list(map(list, zip(*values))) if values else [[] for __ in rows.names]
        return keys, tids, dict(zip(rows.names, columns))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        relation_name: str,
        values: Mapping[str, object],
        label: Optional[str] = None,
    ) -> Tuple:
        """Insert one tuple and return it.

        Values are coerced to their declared types; unknown attributes
        raise; missing attributes become NULL (rejected for key columns).
        The row is stored as columns: the returned Tuple is the caller's
        read of it, and a later read builds an equal one.  It is a copy:
        editing its values leaves the stored row (and the reference
        counts) as they were; :meth:`update` changes a row.
        """
        relation = self.schema.relation(relation_name)
        store = self._tuples[relation_name]

        coerced: dict[str, object] = {}
        for name in values:
            if not relation.has_attribute(name):
                raise UnknownAttributeError(
                    "insert uses unknown attribute",
                    relation=relation_name,
                    attribute=name,
                )
        for attribute in relation.attributes:
            value = coerce_value(values.get(attribute.name), attribute.data_type)
            coerced[attribute.name] = value

        key = tuple(coerced[column] for column in relation.primary_key)
        if any(part is None for part in key):
            raise PrimaryKeyError(
                "primary key may not be NULL", relation=relation_name, key=key
            )
        if key in store:
            raise PrimaryKeyError(
                "duplicate primary key", relation=relation_name, key=key
            )

        tid = TupleId(relation_name, key)
        if self.enforce_foreign_keys:
            for foreign_key in self.schema.foreign_keys_from(relation_name):
                if not _references_itself(tid, coerced, foreign_key):
                    self._check_reference(tid, coerced, foreign_key)
        rows = self._rows(relation_name)
        if len(rows.keys) - rows.unread > len(store):
            rows = self._repack(relation_name)
        store[key] = rows.append(key, tid, coerced.values(), label)
        self._count_references(coerced, relation_name, +1)
        record = Tuple.__new__(Tuple)
        record.tid, record.values = tid, coerced
        record.label = _default_label(key) if label is None else label
        return record

    def _repack(self, relation_name: str) -> _Rows:
        """Drop a relation's dead slots: its unread rows renumbered in
        store order (what an insert does once they outnumber its rows)."""
        store = self._tuples[relation_name]
        order = [stored for stored in store.values() if stored.__class__ is int]
        rows = self._columns[relation_name] = self._columns[relation_name].packed(order)
        for key, row in zip(rows.keys, _counting()):
            store[key] = row
        return rows

    def update(self, tid: TupleId, values: Mapping[str, object]) -> None:
        """Update attribute values of one tuple in place.

        Only the given attributes change; they are coerced to their
        declared types.  Primary-key columns may not change (delete and
        re-insert instead — the tuple's identity is its key).  Changed
        foreign-key columns are validated immediately when the database
        enforces foreign keys.  An unread row is updated in its columns,
        without building it.
        """
        try:
            stored = self._tuples[tid.relation][tid.key]
        except KeyError:
            self._missing(tid)
        rows = self._columns[tid.relation] if stored.__class__ is int else None
        current = stored.values if rows is None else rows.values(stored)
        relation = self.schema.relation(tid.relation)
        coerced: dict[str, object] = {}
        for name in values:
            if not relation.has_attribute(name):
                raise UnknownAttributeError(
                    "update uses unknown attribute",
                    relation=tid.relation,
                    attribute=name,
                )
            coerced[name] = coerce_value(
                values[name], relation.attribute(name).data_type
            )
        for column in relation.primary_key:
            if column in coerced and coerced[column] != current[column]:
                raise PrimaryKeyError(
                    "primary key columns cannot be updated",
                    relation=tid.relation,
                    attribute=column,
                )
        if self.enforce_foreign_keys:
            candidate = {**current, **coerced}
            for foreign_key in self.schema.foreign_keys_from(tid.relation):
                if any(c in coerced for c in foreign_key.source_columns):
                    self._check_reference(tid, candidate, foreign_key)
        self._count_references(current, tid.relation, -1)
        current.update(coerced)
        if rows is not None:
            for name, value in coerced.items():
                rows.columns[rows.names.index(name)][stored] = value
        self._count_references(current, tid.relation, +1)

    def delete(self, tid: TupleId) -> None:
        """Delete a tuple; rejects when other tuples still reference it
        (its own reference, a self-loop, does not hold it).  An unread
        row is deleted from its columns, without building it."""
        try:
            stored = self._tuples[tid.relation][tid.key]
        except KeyError:
            self._missing(tid)
        if stored.__class__ is int:
            values = self._columns[tid.relation].values(stored)
        else:
            values = stored.values
        if self.enforce_foreign_keys and any(
            self._references(foreign_key).get(tid.key, 0)
            > _references_itself(tid, values, foreign_key)
            for foreign_key in self.schema.foreign_keys_to(tid.relation)
        ):
            # Rare path: only now scan for who it is, for the message.
            referencing = list(self.referencing_tuples(self.tuple(tid)))
            raise IntegrityError(
                "tuple is still referenced",
                tid=str(tid),
                referencing=[str(t.tid) for t in referencing[:5]],
            )
        del self._tuples[tid.relation][tid.key]
        if stored.__class__ is int:
            self._columns[tid.relation].clear(stored)
        self._count_references(values, tid.relation, -1)

    def _references(self, foreign_key: ForeignKey) -> dict[tuple, int]:
        """How many tuples reference each key through one foreign key
        (counted on first use: unread rows in one C-level pass over the
        key columns, read ones from their values)."""
        counts = self._reference_counts.get(foreign_key.name)
        if counts is None:
            store = self._tuples[foreign_key.source]  # loaded first: it adopts
            held = list(self._key_columns(self._rows(foreign_key.source), foreign_key))
            unread = [stored for stored in store.values() if stored.__class__ is int]
            counts = Counter(map(held.__getitem__, unread))
            if len(unread) < len(store):
                counts.update(
                    _reference_key(stored.values, foreign_key)
                    for stored in store.values() if stored.__class__ is not int
                )
            self._reference_counts[foreign_key.name] = counts
        return counts

    @staticmethod
    def _key_columns(rows: _Rows, foreign_key: ForeignKey):
        """Per row number, the key a foreign key's columns hold."""
        names = rows.names
        return zip(*[
            rows.columns[names.index(column)] for column in foreign_key.source_columns
        ])

    def _reference_keys(self, foreign_key: ForeignKey) -> Iterator[tuple]:
        """``(stored value, referenced key)`` per tuple of the foreign
        key's source relation, in store order.  An unread row's key is
        read from its columns, a read one's from its (maybe updated)
        values: no row is built."""
        store = self._tuples[foreign_key.source]  # loaded first: it adopts
        held = list(self._key_columns(self._rows(foreign_key.source), foreign_key))
        for record in store.values():
            if record.__class__ is int:
                yield record, held[record]
            else:
                yield record, _reference_key(record.values, foreign_key)

    def _count_references(
        self, values: Mapping[str, object], relation_name: str, step: int
    ) -> None:
        """Add ``step`` to the counters (those already built) of the
        keys one tuple's values reference."""
        if not self._reference_counts:
            return
        for foreign_key in self.schema.foreign_keys_from(relation_name):
            counts = self._reference_counts.get(foreign_key.name)
            if counts is not None:
                key = _reference_key(values, foreign_key)
                counts[key] = counts.get(key, 0) + step

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def tuple(self, tid: TupleId) -> Tuple:
        try:
            record = self._tuples[tid.relation][tid.key]
        except KeyError:
            self._missing(tid)
        if record.__class__ is int:
            return self._build(tid.relation, record)
        return record

    def label(self, tid: TupleId) -> str:
        """A stored tuple's display label, read without building it."""
        try:
            record = self._tuples[tid.relation][tid.key]
        except KeyError:
            self._missing(tid)
        if record.__class__ is not int:
            return record.label
        labels = self._columns[tid.relation].labels
        if labels is not None and labels[record] is not None:
            return labels[record]
        return _default_label(tid.key)

    def values(self, tid: TupleId) -> dict:
        """A stored tuple's values as a new dict, read without building it."""
        try:
            record = self._tuples[tid.relation][tid.key]
        except KeyError:
            self._missing(tid)
        return self._image(tid.relation, record)[1]

    def _image(self, relation_name: str, record) -> tuple[TupleId, dict]:
        """A stored value's tuple id and a copy of its values."""
        if record.__class__ is int:
            rows = self._columns[relation_name]
            return rows.tid(record), rows.values(record)
        return record.tid, dict(record.values)

    def labels(self, relation_name: str) -> Optional[list]:
        """Per row in store order, its label where one was given that is
        not the key's rendering, else None; None when no row has one.
        Builds no row."""
        store = self._store(relation_name)
        given = self._rows(relation_name).labels
        labels = []
        for key, record in store.items():
            if record.__class__ is int:
                label = None if given is None else given[record]
            else:
                label = record.label
            if label is not None and label == _default_label(key):
                label = None
            labels.append(label)
        return None if labels.count(None) == len(labels) else labels

    def get(self, relation_name: str, *key: object) -> Optional[Tuple]:
        """Fetch by primary key values; None when absent."""
        return self._read(relation_name, self._store(relation_name).get(key))

    def tuples(self, relation_name: str) -> tuple[Tuple, ...]:
        """All tuples of a relation, in insertion order."""
        return tuple(self._records(relation_name).values())

    def relation_key_order(self, relation_name: str) -> tuple[tuple, ...]:
        """The relation's primary keys in store order (rollback bookkeeping)."""
        return tuple(self._store(relation_name))

    def restore_key_order(self, relation_name: str, keys: Sequence[tuple]) -> None:
        """Reorder a relation's store to a recorded key sequence.

        Store order is observable (``tuples``/``all_tuples`` feed index
        posting order and answer enumeration), so a transaction rollback
        must restore it, not just the tuple set.  Keys absent from the
        store are skipped; keys not in the recording keep their relative
        order at the end.  Builds no row.
        """
        store = self._store(relation_name)
        ordered = {key: store[key] for key in keys if key in store}
        for key, record in store.items():
            if key not in ordered:
                ordered[key] = record
        self._tuples[relation_name] = ordered

    def keys_after(
        self, relation_name: str, key: tuple, limit: int
    ) -> Optional[tuple[tuple, ...]]:
        """The keys stored after ``key``, in store order — walked back
        from the tail, so O(their count) — or None once more than
        ``limit`` of them are seen (rollback bookkeeping)."""
        after: list[tuple] = []
        for other in reversed(self._store(relation_name)):
            if other == key:
                break
            if len(after) == limit:
                return None
            after.append(other)
        return tuple(reversed(after))

    def move_to_tail(self, relation_name: str, keys: Sequence[tuple]) -> None:
        """Move the stored ones of ``keys`` to the end of the relation's
        store, in the given order (rollback: put back the tuples that
        followed a re-inserted one)."""
        store = self._store(relation_name)
        for key in keys:
            record = store.pop(key, None)
            if record is not None:
                store[key] = record

    def tail(self, relation_name: str, count: int) -> list[tuple[TupleId, dict]]:
        """The relation's last ``count`` tuples, in store order, as
        ``(tuple id, values)`` pairs read without building a row.

        O(count): index maintenance reads a mutation batch's appended
        tuples from here without scanning the relation.
        """
        store = self._store(relation_name)
        last = list(islice(reversed(store.values()), count))
        return [self._image(relation_name, record) for record in reversed(last)]

    def all_tuples(self) -> Iterator[Tuple]:
        """Every tuple in the database, relation by relation."""
        for relation_name in list(self._tuples):
            yield from self._records(relation_name).values()

    def count(self, relation_name: Optional[str] = None) -> int:
        """Number of tuples in one relation, or in the whole database.
        Builds no row, and loads no restored relation's store."""
        if relation_name is None:
            return sum(map(self.count, self._tuples))
        unloaded = self._unloaded.get(relation_name)
        return len(self._store(relation_name)) if unloaded is None else unloaded

    def by_label(self, label: str) -> Tuple:
        """Find a tuple by its display label (unique labels assumed)."""
        matches = [t for t in self.all_tuples() if t.label == label]
        if len(matches) != 1:
            raise IntegrityError(
                "label does not identify exactly one tuple",
                label=label,
                matches=len(matches),
            )
        return matches[0]

    # ------------------------------------------------------------------
    # navigation along foreign keys
    # ------------------------------------------------------------------
    def referenced_tuple(
        self, record: Tuple, foreign_key: ForeignKey
    ) -> Optional[Tuple]:
        """The tuple ``record`` points at via ``foreign_key`` (None if NULL)."""
        if foreign_key.source != record.relation:
            raise IntegrityError(
                "foreign key does not start at tuple's relation",
                foreign_key=foreign_key.name,
                relation=record.relation,
            )
        return self._read(foreign_key.target, self._resolve(record.values, foreign_key)[1])

    def referenced_id(
        self, values: Mapping[str, object], foreign_key: ForeignKey
    ) -> Optional[TupleId]:
        """The id of the tuple that ``values`` (a row of the foreign
        key's source relation) point at via ``foreign_key`` (None if
        NULL or dangling); builds no row."""
        key, stored = self._resolve(values, foreign_key)
        if stored.__class__ is int:
            return TupleId(foreign_key.target, key)
        return None if stored is None else stored.tid

    def _resolve(
        self, values: Mapping[str, object], foreign_key: ForeignKey
    ) -> tuple[Optional[tuple], object]:
        """``(key, stored value)`` that ``values`` reference through
        ``foreign_key``: both None for a NULL reference, the value None
        for a dangling one."""
        key = _reference_key(values, foreign_key)
        for part in key:
            if part is None:
                return None, None
        return key, self._tuples[foreign_key.target].get(key)

    def references(self, foreign_key: ForeignKey) -> Iterator[tuple[Tuple, Tuple]]:
        """Every stored reference through one foreign key, as
        ``(referencing tuple, referenced tuple)`` in the source
        relation's store order — the edges of the data graph.  NULL and
        dangling references are skipped."""
        resolve = self._resolve
        for record in self._records(foreign_key.source).values():
            target = resolve(record.values, foreign_key)[1]
            if target is not None:
                if target.__class__ is int:
                    target = self._build(foreign_key.target, target)
                yield record, target

    def referencing_tuples(
        self, record: Tuple, foreign_key: Optional[ForeignKey] = None
    ) -> Iterator[Tuple]:
        """Tuples pointing at ``record`` (via one FK, or via any FK).
        A foreign key whose reference counts hold no reference to the
        record's key is answered without a scan."""
        if foreign_key is not None:
            candidates = [foreign_key]
        else:
            candidates = list(self.schema.foreign_keys_to(record.relation))
        for fk in candidates:
            if fk.target != record.relation:
                raise IntegrityError(
                    "foreign key does not point at tuple's relation",
                    foreign_key=fk.name,
                    relation=record.relation,
                )
            if not self._references(fk).get(record.tid.key):
                continue
            matches = [
                candidate for candidate, key in self._reference_keys(fk)
                if key == record.tid.key
            ]
            for candidate in matches:
                yield self._read(fk.source, candidate)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def _check_reference(
        self, tid: TupleId, values: Mapping[str, object], foreign_key: ForeignKey
    ) -> None:
        key, target = self._resolve(values, foreign_key)
        if key is not None and target is None:
            raise ForeignKeyError(
                "dangling foreign key",
                foreign_key=foreign_key.name,
                source=str(tid),
                missing_key=key,
            )

    def check_integrity(self) -> None:
        """Validate every foreign key of every tuple (for deferred mode):
        the referenced keys are read off the key columns and looked up in
        one C-level pass per foreign key; no row is built."""
        for foreign_key in self.schema.foreign_keys:
            __, tids, columns = self.rows(foreign_key.source)
            held = list(zip(*[columns[name] for name in foreign_key.source_columns]))
            absent = map(not_, map(self._tuples[foreign_key.target].__contains__, held))
            for tid, key in compress(zip(tids, held), absent):
                # NULL references pass; the first dangling one raises.
                self._check_reference(
                    tid, dict(zip(foreign_key.source_columns, key)), foreign_key
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.schema.name!r}, tuples={self.count()})"
