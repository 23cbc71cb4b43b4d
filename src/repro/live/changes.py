"""Change-log / transaction layer: validated mutation batches → changesets.

A mutation batch is an ordered sequence of :class:`Insert`,
:class:`Update` and :class:`Delete` operations.  :func:`apply_to_database`
applies one batch **atomically**: every operation is validated against
the schema's key and foreign-key constraints as it runs (foreign-key
enforcement is forced on for the duration, whatever the database's bulk
setting), and any failure rolls the already-applied prefix back in
reverse order, leaving the database exactly as it was.

The result of a successful batch is a :class:`ChangeSet` — the *net*
delta: tuples added/removed/updated and FK edges added/removed, with
intra-batch churn cancelled (insert-then-delete nets to nothing,
delete-then-reinsert of one key nets to a *replace* — identity kept,
store position re-derived).  Changesets are what
the incremental maintainers in :mod:`repro.live.maintain` and the
dependency-tracked answer cache consume, and what
``KeywordSearchEngine.apply`` stamps with the engine's monotonically
increasing version.

A mutation's JSON object form (:func:`mutation_to_json` /
:func:`mutation_from_json`) is both the CLI's ``--mutations`` file
format and what a write-ahead-log record carries: replay decodes the
logged batches and runs them through :func:`apply_to_database` again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.errors import MutationError, MutationFormatError
from repro.relational.database import Database, Tuple, TupleId, _default_label
from repro.relational.schema import ForeignKey

__all__ = [
    "Insert",
    "Update",
    "Delete",
    "Mutation",
    "EdgeChange",
    "ChangeSet",
    "apply_to_database",
    "mutation_to_json",
    "mutation_from_json",
    "load_mutation_batches",
]


@dataclass(frozen=True)
class Insert:
    """Insert one tuple into ``relation``."""

    relation: str
    values: Mapping[str, object]
    label: Optional[str] = None


@dataclass(frozen=True)
class Update:
    """Set the given attributes of one existing tuple (PK may not change)."""

    tid: TupleId
    values: Mapping[str, object]


@dataclass(frozen=True)
class Delete:
    """Delete one tuple (rejected while other tuples reference it)."""

    tid: TupleId


Mutation = Union[Insert, Update, Delete]


@dataclass(frozen=True)
class EdgeChange:
    """One FK edge gained or lost by a changeset."""

    referencing: TupleId
    referenced: TupleId
    foreign_key: ForeignKey

    @property
    def key(self) -> tuple[TupleId, TupleId, str]:
        return (self.referencing, self.referenced, self.foreign_key.name)


@dataclass
class ChangeSet:
    """Net effect of one applied mutation batch.

    ``version`` is stamped by ``KeywordSearchEngine.apply`` — the engine
    version the batch produced; ``None`` for changesets applied straight
    to a database.
    """

    tuples_added: tuple[TupleId, ...] = ()
    tuples_removed: tuple[TupleId, ...] = ()
    tuples_updated: tuple[TupleId, ...] = ()
    #: Delete-then-reinsert of one key within the batch: the tuple's
    #: identity survives (graph node kept, edge deltas netted) but its
    #: store *position* moved to the relation tail, so index maintenance
    #: must re-derive its posting position instead of keeping it.
    tuples_replaced: tuple[TupleId, ...] = ()
    edges_added: tuple[EdgeChange, ...] = ()
    edges_removed: tuple[EdgeChange, ...] = ()
    version: Optional[int] = None
    #: Pre-batch values of every removed, updated and replaced tuple —
    #: what the index posted them under, re-tokenised to unpost them.
    before: Mapping[TupleId, Mapping[str, object]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (
            self.tuples_added
            or self.tuples_removed
            or self.tuples_updated
            or self.tuples_replaced
            or self.edges_added
            or self.edges_removed
        )

    def structural_tuples(self) -> frozenset[TupleId]:
        """Tuples whose graph neighbourhood changed: added/removed tuples
        plus both endpoints of every added or removed FK edge.  Value-only
        updates are excluded — they change postings and renderings, never
        adjacency or distances."""
        structural = set(self.tuples_added)
        structural.update(self.tuples_removed)
        for edge in self.edges_added:
            structural.add(edge.referencing)
            structural.add(edge.referenced)
        for edge in self.edges_removed:
            structural.add(edge.referencing)
            structural.add(edge.referenced)
        return frozenset(structural)

    def appended(self, database: Database) -> dict[str, list[tuple[TupleId, dict]]]:
        """Per relation, the tuples the batch left appended — added or
        replaced — as ``(tuple id, values)`` pairs in store order, read
        from the just-mutated database without building a row.

        Inserts append, so whatever a batch inserted and kept sits
        behind every older tuple of its relation: the batch's survivors
        *are* each store's tail, and reading them costs their count,
        not the relation's size.
        """
        counts: dict[str, int] = {}
        for tid in self.tuples_added + self.tuples_replaced:
            counts[tid.relation] = counts.get(tid.relation, 0) + 1
        return {
            relation: database.tail(relation, count)
            for relation, count in counts.items()
        }

    def touched(self) -> frozenset[TupleId]:
        """Every tuple the batch touched: mutated tuples + edge endpoints."""
        return (
            self.structural_tuples()
            | frozenset(self.tuples_updated)
            | frozenset(self.tuples_replaced)
        )


def _outgoing_edges(
    database: Database, tid: TupleId, values: Mapping[str, object]
) -> list[EdgeChange]:
    """The FK edges the tuple ``tid`` with ``values`` contributes to the
    data graph right now."""
    edges = []
    for foreign_key in database.schema.foreign_keys_from(tid.relation):
        target = database.referenced_id(values, foreign_key)
        if target is not None:
            edges.append(EdgeChange(tid, target, foreign_key))
    return edges


def _resolved_edges(database: Database, record: Tuple) -> list[EdgeChange]:
    """The FK edges of stored tuples that named ``record``'s key before
    it was inserted — references left dangling while the database's
    foreign-key checks were off, which its insert now resolves.  Its own
    reference is an outgoing edge, not one of these."""
    return [
        EdgeChange(source.tid, record.tid, foreign_key)
        for foreign_key in database.schema.foreign_keys_to(record.relation)
        for source in database.referencing_tuples(record, foreign_key)
        if source.tid != record.tid
    ]


class _Builder:
    """Accumulates the net delta while a batch applies."""

    def __init__(self) -> None:
        self.added: dict[TupleId, None] = {}
        self.removed: dict[TupleId, None] = {}
        self.updated: dict[TupleId, None] = {}
        self.replaced: dict[TupleId, None] = {}
        self.edges_added: dict[tuple, EdgeChange] = {}
        self.edges_removed: dict[tuple, EdgeChange] = {}
        self.before: dict[TupleId, dict] = {}  # at first delete / update

    def note_insert(self, tid: TupleId) -> None:
        if tid in self.removed:
            # Delete-then-reinsert of the same key: the identity
            # survives, but the store position moved to the tail.
            del self.removed[tid]
            self.replaced[tid] = None
        else:
            self.added[tid] = None

    def note_delete(self, tid: TupleId, values: dict) -> None:
        if tid in self.added:
            del self.added[tid]
        else:
            self.before.setdefault(tid, values)
            self.updated.pop(tid, None)
            self.replaced.pop(tid, None)
            self.removed[tid] = None

    def note_update(self, tid: TupleId, values: dict) -> None:
        if tid not in self.added:
            self.before.setdefault(tid, values)
            if tid not in self.replaced:
                self.updated.setdefault(tid, None)

    def note_edge_added(self, edge: EdgeChange) -> None:
        if edge.key in self.edges_removed:
            del self.edges_removed[edge.key]
        else:
            self.edges_added[edge.key] = edge

    def note_edge_removed(self, edge: EdgeChange) -> None:
        if edge.key in self.edges_added:
            del self.edges_added[edge.key]
        else:
            self.edges_removed[edge.key] = edge

    def changeset(self) -> ChangeSet:
        return ChangeSet(
            tuples_added=tuple(self.added),
            tuples_removed=tuple(self.removed),
            tuples_updated=tuple(self.updated),
            tuples_replaced=tuple(self.replaced),
            edges_added=tuple(self.edges_added.values()),
            edges_removed=tuple(self.edges_removed.values()),
            before=self.before,
        )


def apply_to_database(
    database: Database,
    mutations: Iterable[Mutation],
    commit: Optional[Callable[[], object]] = None,
) -> ChangeSet:
    """Apply one mutation batch atomically and return its net changeset.

    Foreign-key enforcement is forced on while the batch runs, so every
    insert/update validates its references and deletes of referenced
    tuples are rejected.  ``commit`` (the engine's WAL append) runs after
    the last mutation, as part of the batch.  On any failure, a raising
    ``commit`` included, the already-applied prefix is rolled back in
    reverse order and the error re-raised — the database is never left
    half-mutated.
    """
    builder = _Builder()
    undo: list[tuple] = []
    #: Relations whose whole store order a delete captured.  A rollback
    #: re-insert appends at the store tail, so the order — observable
    #: through index posting order and answer enumeration — is put back
    #: explicitly: each delete records the keys stored after its tuple,
    #: which the undo moves back behind it, unless that walk passes half
    #: the relation; then the relation's whole order is captured once,
    #: restored when that delete is undone, and later deletes in it
    #: record nothing.
    captured: set[str] = set()
    previous_enforcement = database.enforce_foreign_keys
    database.enforce_foreign_keys = True
    try:
        for mutation in mutations:
            if isinstance(mutation, Insert):
                record = database.insert(
                    mutation.relation, mutation.values, label=mutation.label
                )
                undo.append(("delete", record.tid))
                builder.note_insert(record.tid)
                for edge in _outgoing_edges(database, record.tid, record.values):
                    builder.note_edge_added(edge)
                for edge in _resolved_edges(database, record):
                    builder.note_edge_added(edge)
            elif isinstance(mutation, Delete):
                # The before-image is read as values: no row is built.
                old_values = database.values(mutation.tid)
                # An unlabelled row re-inserts unlabelled: a rollback
                # then adds no labels column to its relation.
                old_label = database.label(mutation.tid)
                if old_label == _default_label(mutation.tid.key):
                    old_label = None
                old_edges = _outgoing_edges(database, mutation.tid, old_values)
                relation = mutation.tid.relation
                reorder = None
                if relation not in captured:
                    after = database.keys_after(
                        relation, mutation.tid.key, database.count(relation) // 2
                    )
                    if after is None:
                        captured.add(relation)
                        reorder = (
                            database.restore_key_order,
                            database.relation_key_order(relation),
                        )
                    else:
                        reorder = (database.move_to_tail, after)
                database.delete(mutation.tid)
                undo.append(("insert", relation, old_values, old_label, reorder))
                builder.note_delete(mutation.tid, old_values)
                for edge in old_edges:
                    builder.note_edge_removed(edge)
            elif isinstance(mutation, Update):
                old_values = database.values(mutation.tid)
                old_edges = _outgoing_edges(database, mutation.tid, old_values)
                database.update(mutation.tid, mutation.values)
                undo.append(("restore", mutation.tid, old_values))
                builder.note_update(mutation.tid, old_values)
                new_edges = _outgoing_edges(
                    database, mutation.tid, database.values(mutation.tid)
                )
                old_keys = {edge.key: edge for edge in old_edges}
                new_keys = {edge.key: edge for edge in new_edges}
                for key, edge in old_keys.items():
                    if key not in new_keys:
                        builder.note_edge_removed(edge)
                for key, edge in new_keys.items():
                    if key not in old_keys:
                        builder.note_edge_added(edge)
            else:
                raise MutationError(
                    "unknown mutation type", got=type(mutation).__name__
                )
        if commit is not None:
            commit()
    except BaseException:
        # Undo in reverse order: later mutations may depend on earlier
        # ones (a batch inserts a target then tuples referencing it), so
        # reversing keeps every undo step consistent.  Enforcement is
        # switched off for the replay — each step restores state that
        # existed before the batch, and re-validating it could spuriously
        # fail (e.g. re-inserting a tuple whose dangling FK was legal on
        # an enforcement-off database), masking the original error.
        database.enforce_foreign_keys = False
        for action in reversed(undo):
            if action[0] == "delete":
                database.delete(action[1])
            elif action[0] == "insert":
                __, relation, values, label, reorder = action
                database.insert(relation, values, label=label)
                if reorder is not None:
                    put_back, keys = reorder
                    put_back(relation, keys)
            else:  # restore
                __, tid, values = action
                database.update(tid, values)
        raise
    finally:
        database.enforce_foreign_keys = previous_enforcement
    return builder.changeset()


# ----------------------------------------------------------------------
# JSON form (the CLI's ``--mutations`` files and WAL records)
# ----------------------------------------------------------------------
def mutation_to_json(mutation: Mutation) -> dict:
    """The JSON object form of one mutation, as :func:`mutation_from_json`
    reads it back (a ``None`` label is left out)."""
    if isinstance(mutation, Insert):
        obj = {"op": "insert", "relation": mutation.relation,
               "values": dict(mutation.values)}
        if mutation.label is not None:
            obj["label"] = mutation.label
        return obj
    if isinstance(mutation, Update):
        return {"op": "update", "relation": mutation.tid.relation,
                "key": list(mutation.tid.key), "values": dict(mutation.values)}
    if isinstance(mutation, Delete):
        return {"op": "delete", "relation": mutation.tid.relation,
                "key": list(mutation.tid.key)}
    raise MutationError("unknown mutation type", got=type(mutation).__name__)


def mutation_from_json(obj: Mapping, **where: object) -> Mutation:
    """Decode one mutation from its JSON object form.

    ``{"op": "insert", "relation": R, "values": {...}, "label": ...}``,
    ``{"op": "update", "relation": R, "key": [...], "values": {...}}`` or
    ``{"op": "delete", "relation": R, "key": [...]}``.

    ``where`` keyword context (``path=``, ``batch=``, ``record=``) is
    carried on the raised :class:`MutationFormatError` so a broken replay
    file can be located down to the failing record.
    """
    if not isinstance(obj, Mapping):
        raise MutationFormatError("mutation is not a JSON object", **where)
    op = obj.get("op")
    try:
        if op == "insert":
            label = obj.get("label")
            if label is not None and not isinstance(label, str):
                raise TypeError(f"label is a {type(label).__name__}, not a str")
            return Insert(obj["relation"], dict(obj["values"]), label)
        if op == "update":
            return Update(
                TupleId(obj["relation"], tuple(obj["key"])),
                dict(obj["values"]),
            )
        if op == "delete":
            return Delete(TupleId(obj["relation"], tuple(obj["key"])))
    except (KeyError, TypeError, ValueError) as error:
        raise MutationFormatError(
            "malformed mutation object", op=op, problem=str(error), **where
        ) from None
    raise MutationFormatError("unknown mutation op", op=op, **where)


def load_mutation_batches(path: str) -> list[list[Mutation]]:
    """Load a replay file: a JSON list of batches (or one flat batch).

    Malformed files raise :class:`MutationFormatError` carrying the file
    path plus line/column/byte-offset (bad JSON) or batch/record indices
    (bad shape) — never a raw ``json.JSONDecodeError`` or ``KeyError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise MutationFormatError(
                "mutation file is not valid JSON",
                path=path,
                line=error.lineno,
                column=error.colno,
                offset=error.pos,
            ) from None
    if not isinstance(data, list):
        raise MutationFormatError(
            "mutation file must hold a JSON list", path=path
        )
    if data and all(isinstance(item, Mapping) for item in data):
        data = [data]
    for position, batch in enumerate(data):
        if not isinstance(batch, list) or not all(
            isinstance(item, Mapping) for item in batch
        ):
            raise MutationFormatError(
                "each batch must be a JSON list of mutation objects",
                path=path,
                batch=position,
            )
    return [
        [
            mutation_from_json(item, path=path, batch=position, record=slot)
            for slot, item in enumerate(batch)
        ]
        for position, batch in enumerate(data)
    ]
