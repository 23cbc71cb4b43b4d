"""Versioned binary engine snapshots with mmap-loadable array sections.

A snapshot makes engine state a cheap artifact instead of a cold build:
``KeywordSearchEngine.save(path)`` writes everything a serving process
needs — the database instance, the compiled CSR buffers, the interning
table and the inverted-index postings — and
``KeywordSearchEngine.open(path)`` brings an engine up an order of
magnitude faster than rebuilding those structures from raw tuples.  The
array sections are ``mmap``-backed: forked pool workers share the pages.

File layout::

    MAGIC  u32 toc_length  toc_json  section bytes...

    sections: meta  schema  interning:<R>...  csr_offsets  csr_targets
              edge_keys  edge_ref  postings  rows:<R>...  [delta]

The TOC records ``[offset, length, crc32]`` per section (offsets are
relative to the data area, so the TOC's own size never feeds back into
it).  Every section is integrity-checked on open; corruption, truncation
and format or platform mismatches raise
:class:`~repro.errors.SnapshotError` instead of producing a silently
wrong engine (binary sections also against their structure).  A
relation's primary keys are stored once, in ``rows:<R>`` (JSON: one
list per attribute, in store order, and the labels); ``interning:<R>``
holds the ``int32`` row number of each of its graph nodes, in node order.

A compacted file may end in a ``delta`` section (:func:`write_delta_snapshot`):
WAL record frames that open replays from ``meta.base_version`` up to
``meta.engine_version``.  Such a file carries format 7, so a reader
that would ignore the section refuses it.

Sections an older writer added and the loader no longer reads — the
corpus statistics (``stats``) and ``shard_assignment`` — are verified
and otherwise ignored: a delta compaction byte-copies them like any
base section, a full ``save`` writes neither.

Restoration is lazy wherever queries and replayed WAL records allow it:

* the CSR ``array('i')`` buffers and the ``edge_ref`` flag bytes are
  zero-copy ``memoryview`` casts over the mapped file, held by the
  compiled graph as a cold build holds its own (edge keys decode at
  open; an edge's data dict is built per yielded path step);
* a relation's rows are parsed on its first touch into a store of
  primary key -> row number, a row becoming a ``Tuple`` when first read
  (:meth:`~repro.relational.database.Database.adopt_columns`), and its
  interning run resolves through the adopted key column then
  (:class:`_Interning`): the store, the interning table and the graph's
  node map share one key tuple per row;
* posting lists decode per token on first touch: the ``postings``
  section maps as the posting columns a cold-built index holds too
  (:class:`_MappedPostings`), its sorted token directory parsed into a
  plain list and bisected, and is read through the same
  :class:`~repro.relational.index._LazyPostings`, so a write to a
  still-raw token is queued and folded on the token's first read;
* the networkx tuple graph — only needed by :mod:`repro.oracle` and
  the baselines — builds on first demand
  (:class:`~repro.graph.data_graph.DataGraph` is lazy); no query,
  ranker, explanation or write of an opened engine builds it.

A full write (:func:`write_snapshot`) builds no row — it reads
:meth:`~repro.relational.database.Database.rows` — and decodes only the
tokens with queued writes: every other still-raw token's slice is
copied from the columns, its nodes remapped to the compiled graph's.

The snapshot stores the engine's live-update ``version``: batches
applied to an opened engine bump it through the ordinary
:class:`~repro.live.changes.ChangeSet` path, and ``save`` persists it.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from itertools import chain, islice
from operator import lt
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.durable import fault
from repro.durable.wal import atomic_write_bytes, decode_frames, replay_into
from repro.errors import SnapshotError, WalError
from repro.graph.csr import FrozenGraph
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.relational.database import Database, TupleId
from repro.relational.index import (
    _FIRST,
    _WHOLE,
    InvertedIndex,
    _LazyPostings,
    _PostingColumns,
    attribute_table,
)
from repro.relational.io import schema_from_dict, schema_to_dict

__all__ = ["SNAPSHOT_FORMAT", "Snapshot", "write_snapshot", "load_engine"]

_MAGIC = b"REPROSNP\x01"
SNAPSHOT_FORMAT = 5
_DELTA_FORMAT = 7  # of a file that carries a ``delta`` section (WAL frames)
#: A ``delta`` holds up to 1/8 of the base sections' bytes — ≈ 660 bib
#: records of ≈ 390 B, whose replay on open (≈ 0.06 s for the first 48,
#: ≈ 0.25 ms each past them) costs about what one full rewrite does
#: (≈ 0.22 s).
DELTA_FRACTION = 8

_REQUIRED_SECTIONS = (
    "meta", "schema", "csr_offsets", "csr_targets", "edge_keys", "edge_ref", "postings",
)

#: What a stored primary-key value may decode to.
_KEY_TYPES = {str, int, float, bool}


class _LazyStores(dict):
    """Per-relation tuple stores loaded from their snapshot sections on
    first access.

    Each relation's rows live in their own integrity-checked section, so
    a serving process only parses the relations its replay and queries
    touch.  ``pending`` — relation -> row count, shared with the
    database as its ``_unloaded`` — loses a relation once its store is
    loaded (or assigned — e.g. by a rollback's order restore); from then
    on plain dict semantics apply.
    """

    def __init__(self, load, pending: dict) -> None:
        super().__init__()
        self._load = load
        self._pending = pending

    def __missing__(self, name: str) -> dict:
        if name not in self._pending:
            raise KeyError(name)
        store = self[name] = self._load(name, self._pending[name])
        return store

    def __setitem__(self, name, store) -> None:
        self._pending.pop(name, None)
        dict.__setitem__(self, name, store)

    def get(self, name, default=None):
        if name in self:
            return self[name]
        return default

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name) or name in self._pending

    def __iter__(self):
        yield from dict.__iter__(self)
        yield from list(self._pending)

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._pending)


class _Interning:
    """The interning table — node int -> :class:`TupleId` — resolved per
    relation on demand, and the loader of the rows it resolves through.

    Nodes are in ``_sort_key`` order, so each relation owns one run of
    them (``meta.interning``: ``[relation, count]`` in node order), whose
    ``interning:<relation>`` section gives each node's ``int32`` row
    number in ``rows:<relation>``.  A node of the run, or the relation's
    node map (:meth:`nodes_of`, which builds no tuple id), loads the
    relation's rows, and that resolves the run (:meth:`load_rows`).  The
    table takes the patches :meth:`FrozenGraph.apply_changeset` makes
    (append, ``None`` for a tombstone); iterating it (an index past the
    end raises ``IndexError``) builds every tuple id.
    """

    __slots__ = ("_snapshot", "_database", "_runs", "_at", "_length", "_keys",
                 "_cache", "_appended")

    def __init__(self, snapshot: "Snapshot", database: Database) -> None:
        self._snapshot = snapshot
        self._database = database
        #: ``(relation, first node, count)`` in node order.
        self._runs = []
        start = 0
        for relation, count in snapshot.meta["interning"]:
            self._runs.append((relation, start, count))
            start += count
        self._at = {run[0]: at for at, run in enumerate(self._runs)}
        self._length = start
        #: Per run, its primary keys once resolved.
        self._keys: list[Optional[list]] = [None] * len(self._runs)
        self._cache: dict[int, Optional[TupleId]] = {}
        self._appended: list = []

    def load_rows(self, name: str, count: int) -> dict:
        """One relation's store from its ``rows:<R>`` section — ``columns``,
        one list of ``count`` values per attribute in schema order, key
        columns of ``_KEY_TYPES`` only; ``labels`` null or ``count``
        strings and nulls — checked against that structure and for
        duplicate keys.  The relation's run resolves through the adopted
        key column now, before a replayed delete clears a slot or a
        re-pack renumbers rows; an ``interning:<R>`` section that is not
        a permutation of the row numbers, one per node, is refused."""
        snapshot, database = self._snapshot, self._database
        section = f"rows:{name}"
        document = snapshot.json(section)
        relation = database.schema.relation(name)
        columns = labels = None
        if isinstance(document, dict):
            columns, labels = document.get("columns"), document.get("labels")
        key_at = [relation.attribute_names.index(c) for c in relation.primary_key]
        if not (
            isinstance(columns, list)
            and len(columns) == len(relation.attributes)
            and all(isinstance(column, list) and len(column) == count for column in columns)
            and all(set(map(type, columns[at])) <= _KEY_TYPES for at in key_at)
            and (labels is None or isinstance(labels, list) and len(labels) == count
                 and set(map(type, labels)) <= {str, type(None)})
        ):
            raise SnapshotError(
                "snapshot rows section is inconsistent", path=str(snapshot.path),
                section=section, expected=count,
            )
        store = database.adopt_columns(name, columns, labels)
        if len(store) != count:
            raise SnapshotError(
                "snapshot rows section repeats a primary key", path=str(snapshot.path),
                section=section,
            )
        if name in self._at:
            section = f"interning:{name}"
            data = snapshot.read(section)
            size = snapshot.meta["itemsize"]
            rows = memoryview(data).cast("i") if len(data) == size * count else b""
            if not (len(set(rows)) == count and 0 <= min(rows, default=0)
                    and max(rows, default=0) < count):
                raise SnapshotError(
                    "snapshot interning section is not a permutation of its rows",
                    path=str(snapshot.path), section=section, expected=count,
                )
            keys = database._columns[name].keys
            self._keys[self._at[name]] = list(map(keys.__getitem__, rows))
        return store

    def _run_keys(self, at: int) -> list[tuple]:
        if self._keys[at] is None:
            self._database._tuples[self._runs[at][0]]  # loading resolves the run
        return self._keys[at]

    def __len__(self) -> int:
        return self._length + len(self._appended)

    def __getitem__(self, node: int):
        if node >= self._length:
            return self._appended[node - self._length]
        try:
            return self._cache[node]
        except KeyError:
            at = bisect_right(self._runs, node, key=lambda run: run[1]) - 1
            relation, start = self._runs[at][:2]
            key = self._run_keys(at)[node - start]
            tid = self._cache[node] = TupleId(relation, key)
            return tid

    def __setitem__(self, node: int, value) -> None:
        if node >= self._length:
            self._appended[node - self._length] = value
        else:
            self._cache[node] = value

    def append(self, value) -> None:
        self._appended.append(value)

    def runs(self) -> Iterator[tuple[str, list[tuple]]]:
        """``(relation, primary keys in node order)`` per stored run, in
        node order: an unpatched table's whole content, read without
        building a tuple id."""
        for at, (relation, __, __) in enumerate(self._runs):
            yield relation, self._run_keys(at)

    def nodes_of(self, relation: str) -> dict:
        """Primary key -> node int of one relation's stored run."""
        at = self._at.get(relation)
        if at is None:
            return {}
        __, start, count = self._runs[at]
        return dict(zip(self._run_keys(at), range(start, start + count)))


class _MappedPostings(_PostingColumns):
    """The binary ``postings`` section as posting columns: ``int32``
    offsets, then columns of node ``int32``, attribute-id byte and flag
    byte, zero-copy over the mapped file, then the token directory, a
    JSON list in token order.  The directory is parsed on first touch
    and held as a plain list, checked once: ``str`` tokens, one per
    offset slice, in strict order (so unique).  Each slice is checked
    (:meth:`_check`) as :meth:`~repro.relational.index._PostingColumns.decode`
    reads it.
    """

    def __init__(self, snapshot: "Snapshot", tid_of, attributes: list) -> None:
        tokens, postings, directory = snapshot.meta["postings"]
        nodes = 4 * (tokens + 1)
        self._directory_at = nodes + 6 * postings
        if snapshot._toc["postings"][1] != self._directory_at + directory:
            raise SnapshotError(
                "snapshot postings section disagrees with the meta section",
                path=str(snapshot.path),
            )
        attributes_at, flags_at = nodes + 4 * postings, nodes + 5 * postings
        super().__init__(
            None,
            snapshot.int_array("postings", 0, nodes),
            snapshot.int_array("postings", nodes, attributes_at),
            snapshot.int_array("postings", attributes_at, flags_at, "B"),
            snapshot.int_array("postings", flags_at, self._directory_at, "B"),
            tid_of,
            attributes,
        )
        self._snapshot = snapshot

    def _check(self, start: int, stop: int, nodes, attributes, flags) -> None:
        """A slice inside the columns, ``_FIRST`` on exactly its first
        slot, nodes below the stored count, attribute ids inside their
        table."""
        if not (
            0 <= start < stop <= len(self.nodes)
            and flags[0] & ~_WHOLE == _FIRST
            and not flags[1:].translate(None, bytes((0, _WHOLE)))
            and (stop == len(self.flags) or self.flags[stop] & _FIRST)
            and 0 <= min(nodes) <= max(nodes) < len(self.tid_of)
            and max(attributes) < len(self.names)
        ):
            raise SnapshotError(
                "snapshot postings are inconsistent",
                path=str(self._snapshot.path),
                postings=[start, stop],
            )

    def directory(self) -> list[str]:
        if self._tokens is None:
            with self._snapshot._section("postings") as view:
                directory = view[self._directory_at:].tobytes()
            try:
                tokens = json.loads(directory)
            except ValueError:
                tokens = None
            if not (
                isinstance(tokens, list)
                and set(map(type, tokens)) <= {str}
                and len(tokens) == len(self.offsets) - 1
                and all(map(lt, tokens, islice(tokens, 1, None)))
            ):
                raise SnapshotError(
                    "snapshot postings are inconsistent",
                    path=str(self._snapshot.path),
                    problem="token directory",
                )
            self._tokens = tokens
        return self._tokens


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _id_tables(schema) -> tuple[list, list[str]]:
    """What the one-byte ids of ``edge_keys`` and of the postings'
    attribute column index: the schema's foreign keys and attribute
    names, in schema order."""
    return list(schema.foreign_keys), attribute_table(schema)


def _encode_postings(postings: _LazyPostings, frozen) -> tuple[bytes, list]:
    """The binary ``postings`` section (:class:`_MappedPostings`) and its
    ``[tokens, postings, directory bytes]`` counts for ``meta``.

    A token still raw in the index's columns is copied slice by slice,
    runs of adjacent slices at once, its nodes remapped to the compiled
    graph's ints through one column node -> graph node table; only the
    decoded tokens go through their ``Posting`` objects.  Call with no
    writes queued (:meth:`_LazyPostings.fold_pending`).
    """
    raw = postings._raw
    columns = raw.columns
    decoded = {token: entries for token, entries in dict.items(postings) if entries}
    if frozen._tid_of is columns.tid_of:
        remap = None  # restored and not folded since: the same node ints
    else:
        remap = [
            None if tid is None else frozen.node_of(tid) for tid in columns.tid_of
        ]
    attribute_id = {name: at for at, name in enumerate(columns.names)}
    tokens = sorted(chain(raw, decoded))
    positions = raw.positions()
    offsets = array("i", [0])
    nodes = array("i")
    attributes = bytearray()
    flags = bytearray()
    run = [0, 0]  # column slots still to copy

    def copy_run() -> None:
        start, stop = run
        if remap is None:
            nodes.frombytes(columns.nodes[start:stop].tobytes())
        else:
            nodes.extend(map(remap.__getitem__, columns.nodes[start:stop]))
        attributes.extend(columns.attributes[start:stop].tolist())
        flags.extend(columns.flags[start:stop])
        run[:] = [stop, stop]

    total = 0
    for token in tokens:
        entries = decoded.get(token)
        if entries is None:
            at = next(positions)
            start, stop = columns.offsets[at], columns.offsets[at + 1]
            if start != run[1]:
                copy_run()
                run[:] = [start, start]
            run[1] = stop
            total += stop - start
        else:
            copy_run()
            first = _FIRST
            for posting in entries:
                nodes.append(frozen.node_of(posting.tid))
                attributes.append(attribute_id[posting.attribute])
                flags.append(first | posting.whole_value)
                first = 0
            total += len(entries)
        offsets.append(total)
    copy_run()
    directory = _json_bytes(tokens)
    blob = b"".join(
        (offsets.tobytes(), nodes.tobytes(), attributes, flags, directory)
    )
    return blob, [len(tokens), len(nodes), len(directory)]


def write_snapshot(engine, path: Union[str, Path]) -> dict:
    """Write one engine's full state to ``path``; returns the meta dict.

    The compiled graph is compacted first (patched side tables folded
    back into flat CSR form), so a snapshot always stores the clean
    array representation regardless of how many live-update batches the
    engine absorbed.  A schema with more attribute names or foreign keys
    than one-byte ids can name is refused before anything is written.
    """
    schema = engine.database.schema
    foreign_keys, attributes = _id_tables(schema)
    for table, ids in (("foreign keys", foreign_keys), ("attributes", attributes)):
        if len(ids) > 256:
            raise SnapshotError(
                "schema is too wide for a snapshot's one-byte ids",
                path=str(path), table=table, size=len(ids), limit=256,
            )
    frozen = engine.traversal_cache.frozen()
    if frozen._override:
        frozen._compile()
        frozen.compactions += 1
    postings = engine.index._postings
    # Tokens with queued writes are decoded; the rest are copied raw.
    postings.fold_pending()
    database = engine.database
    # Folded: no tombstones, and each relation one run in node order.
    # A restored table that was never folded lists its runs' keys without
    # building a tuple id.
    if isinstance(frozen._tid_of, _Interning):
        runs = dict(frozen._tid_of.runs())
    else:
        runs = {}
        for tid in frozen._tid_of:
            runs.setdefault(tid.relation, []).append(tid.key)
    # Rows in store order, read without building one; each run becomes
    # its nodes' row numbers.
    rows = []
    for relation in schema.relations:
        keys, __, columns = database.rows(relation.name)
        if relation.name in runs:
            row_of = dict(zip(keys, range(len(keys))))
            runs[relation.name] = array("i", map(row_of.__getitem__, runs[relation.name]))
        rows.append((f"rows:{relation.name}", _json_bytes({
            "columns": [columns[name] for name in relation.attribute_names],
            "labels": database.labels(relation.name),
        })))

    fk_id = {fk.name: at for at, fk in enumerate(foreign_keys)}
    posting_blob, posting_counts = _encode_postings(postings, frozen)

    meta = {
        "format": SNAPSHOT_FORMAT,
        "engine_version": engine.version,
        "byteorder": sys.byteorder,
        "itemsize": frozen._offsets.itemsize,
        "nodes": frozen.capacity,
        "entries": len(frozen._targets),
        "tuples": database.count(),
        "schema": schema.name,
        "interning": [[relation, len(nodes)] for relation, nodes in runs.items()],
        "postings": posting_counts,
    }

    sections: list[tuple[str, bytes]] = [
        ("meta", _json_bytes(meta)),
        ("schema", _json_bytes(schema_to_dict(schema))),
        *((f"interning:{relation}", nodes.tobytes()) for relation, nodes in runs.items()),
        ("csr_offsets", frozen._offsets.tobytes()),
        ("csr_targets", frozen._targets.tobytes()),
        ("edge_keys", bytes(map(fk_id.__getitem__, frozen._edge_keys))),
        ("edge_ref", bytes(frozen._edge_refs)),
        ("postings", posting_blob),
        *rows,
    ]
    meta["generation"] = _publish(path, SNAPSHOT_FORMAT, sections)
    return meta


def write_delta_snapshot(engine, path: Union[str, Path]) -> Optional[dict]:
    """Republish the WAL-paired snapshot at ``path`` with the WAL's record
    frames appended to its ``delta`` section: base sections byte-copied
    with length and CRC reused, only ``meta`` re-encoded.  The engine is
    only read — nothing folded, decoded or dropped.  Returns the meta dict, or ``None`` when
    only :func:`write_snapshot` will do — the base fails its CRC verify
    or is not the generation the WAL pairs with, the records do not run
    gap-free from its version to the engine's, or the delta would pass
    ``1 / DELTA_FRACTION`` of the base bytes (the bound on open's replay).
    """
    wal = engine.wal
    try:
        versions = [record.get("version") for __, record in wal.scan()]
        base = Snapshot(engine._wal_snapshot_path)
    except (SnapshotError, WalError):
        return None
    with base, open(wal.path, "rb") as log:
        expected = list(range(base.meta["engine_version"] + 1, engine.version + 1))
        if base.generation != wal.generation or not versions or versions != expected:
            return None
        log.seek(wal._data_offset)
        delta = log.read(wal._append_offset - wal._data_offset)
        if "delta" in base.sections():
            delta = base.read("delta") + delta
        copied = [n for n in base.sections() if n not in ("meta", "delta")]
        if len(delta) * DELTA_FRACTION > sum(base._toc[n][1] for n in copied):
            return None
        frozen = engine.traversal_cache.frozen()
        # The copied arrays keep the base's sizes for the loader; the rest
        # describes the engine the delta replays to, as a fold would write
        # it (a node per tuple), counted without folding.
        meta = dict(base.meta, format=_DELTA_FORMAT, base_version=base.base_version)
        meta.setdefault("base_nodes", meta["nodes"])
        meta.setdefault("base_entries", meta["entries"])
        meta.update(engine_version=engine.version, entries=frozen.entry_count())
        meta["tuples"] = meta["nodes"] = frozen.live_count()
        crcs = {name: base._toc[name][2] for name in copied}
        blobs = [
            ("meta", _json_bytes(meta)),
            *((name, base.section(name)) for name in copied),
            ("delta", delta),
        ]
        meta["generation"] = _publish(path, _DELTA_FORMAT, blobs, crcs)
    return meta


def _publish(path, file_format: int, sections, crcs=()) -> str:
    """Publish ``(name, blob)`` sections as one snapshot file — a crash
    at any instant leaves the previous file or the complete new one —
    and return its generation.  ``crcs``: checksums already known."""
    toc: dict[str, list] = {}
    offset = 0
    for name, blob in sections:
        crc = crcs[name] if name in crcs else zlib.crc32(blob)
        toc[name] = [offset, len(blob), crc]
        offset += len(blob)
    toc_bytes = _json_bytes({"format": file_format, "sections": toc})

    def chunks():
        yield _MAGIC + struct.pack("<I", len(toc_bytes)) + toc_bytes
        fault.maybe("snapshot.mid-save")
        yield from (blob for __, blob in sections)

    atomic_write_bytes(path, chunks(), pre_replace="snapshot.pre-replace")
    return _generation_of(toc_bytes)


def _generation_of(toc_bytes: bytes) -> str:
    """The snapshot's *generation*: a content hash of its table of
    contents.  The TOC carries every section's length and CRC, so any
    state change produces a new generation — the WAL handshake token."""
    return f"{zlib.crc32(toc_bytes):08x}"


def _json_bytes(document) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class Snapshot:
    """One opened snapshot file: verified TOC plus mmap-backed sections."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.closed = False
        #: Every view handed out (sections and their casts) — released
        #: ahead of the mmap in :meth:`close`, because an mmap with live
        #: exported buffers refuses to close.
        self._exported: list = []
        try:
            with self.path.open("rb") as handle:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as error:
            raise SnapshotError(
                "cannot open snapshot file", path=str(path), problem=str(error)
            ) from None
        view = memoryview(self._mmap)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise SnapshotError("not a repro snapshot (bad magic)", path=str(path))
        try:
            (toc_length,) = struct.unpack_from("<I", view, len(_MAGIC))
            toc_start = len(_MAGIC) + 4
            toc = json.loads(bytes(view[toc_start : toc_start + toc_length]))
        except (struct.error, ValueError) as error:
            raise SnapshotError(
                "snapshot table of contents is corrupt",
                path=str(path),
                problem=str(error),
            ) from None
        self._data_start = toc_start + toc_length
        self._toc: dict[str, list] = toc.get("sections") or {}
        # ``_DELTA_FORMAT`` marks exactly the files whose state includes a delta.
        expected = _DELTA_FORMAT if "delta" in self._toc else SNAPSHOT_FORMAT
        if toc.get("format") != expected:
            raise SnapshotError(
                "unsupported snapshot format version",
                path=str(path),
                got=toc.get("format"),
                expected=expected,
            )
        self._view = view
        #: Content hash of the raw TOC bytes — the WAL pairing token
        #: (identical to the ``generation`` in ``write_snapshot`` meta).
        self.generation = _generation_of(
            bytes(view[toc_start : toc_start + toc_length])
        )
        for name in _REQUIRED_SECTIONS:
            if name not in self._toc:
                raise SnapshotError(
                    "snapshot is missing a required section",
                    path=str(path),
                    section=name,
                )
        self.verify()
        self.meta = self.json("meta")
        if self.meta.get("format") != expected:
            raise SnapshotError(
                "unsupported snapshot format version",
                path=str(path),
                got=self.meta.get("format"),
            )
        if (
            self.meta.get("byteorder") != sys.byteorder
            or self.meta.get("itemsize") != array("i").itemsize
        ):
            raise SnapshotError(
                "snapshot was written on an incompatible platform",
                path=str(path),
                byteorder=self.meta.get("byteorder"),
                itemsize=self.meta.get("itemsize"),
            )

    def sections(self) -> tuple[str, ...]:
        return tuple(self._toc)

    def _section(self, name: str) -> memoryview:
        """Zero-copy view of one section; the caller must release it."""
        if self.closed:
            raise SnapshotError(
                "snapshot is closed", path=str(self.path), section=name
            )
        try:
            offset, length, __ = self._toc[name]
        except KeyError:
            raise SnapshotError(
                "snapshot has no such section", path=str(self.path), section=name
            ) from None
        start = self._data_start + offset
        end = start + length
        if end > len(self._view):
            raise SnapshotError(
                "snapshot section is truncated",
                path=str(self.path),
                section=name,
            )
        return self._view[start:end]

    def section(self, name: str) -> memoryview:
        """Zero-copy view of one section's bytes.

        The view is retained until :meth:`close`; internal transient
        reads (:meth:`json`, :meth:`verify`) go through :meth:`_section`
        instead so repeated calls do not grow the exported list.
        """
        view = self._section(name)
        self._exported.append(view)
        return view

    @property
    def base_version(self) -> int:
        """Engine version the base sections hold; a ``delta`` starts there."""
        return self.meta.get("base_version", self.meta.get("engine_version", 0))

    def read(self, name: str) -> bytes:
        """A copy of one section's bytes; retains no view."""
        with self._section(name) as view:
            return bytes(view)

    def delta(self) -> list:
        """The ``delta`` section's ``(offset, record)`` pairs, oldest first
        (none without one); a damaged frame raises ``WalError``."""
        data = self.read("delta") if "delta" in self._toc else b""
        return decode_frames(data, 0, str(self.path))[0]

    def json(self, name: str):
        try:
            return json.loads(self.read(name))
        except ValueError as error:
            raise SnapshotError(
                "snapshot section holds invalid JSON",
                path=str(self.path),
                section=name,
                problem=str(error),
            ) from None

    def int_array(self, name: str, start=0, stop=None, typecode="i") -> memoryview:
        """Bytes ``start:stop`` of a section as a zero-copy int view on the mmap."""
        part = self.section(name)[start:stop]
        cast = part.cast(typecode)
        self._exported.extend((part, cast))
        return cast

    def close(self) -> None:
        """Release every exported view and the mmap itself.

        Lazily restored structures still holding a released view fail
        loudly (``ValueError: operation forbidden on released
        memoryview object``) instead of silently reading unmapped pages
        — close an engine only once its queries are done.  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        for view in self._exported:
            view.release()
        self._exported.clear()
        self._view.release()
        self._mmap.close()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def verify(self) -> None:
        """CRC-check every section; raises on any corruption."""
        for name, (__, ___, crc) in self._toc.items():
            with self._section(name) as view:
                matches = zlib.crc32(view) == crc
            if not matches:
                raise SnapshotError(
                    "snapshot section failed its integrity check",
                    path=str(self.path),
                    section=name,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({str(self.path)!r}, v{self.meta.get('engine_version')}, "
            f"{self.meta.get('nodes')} nodes)"
        )


def load_engine(path: Union[str, Path], **engine_options):
    """Open a snapshot into a ready :class:`KeywordSearchEngine`.

    The restored engine is bit-identical in query behaviour to the one
    that wrote the snapshot: same database store order, same posting
    order, same compiled CSR expansion order.
    :class:`KeywordSearchEngine` construction options pass through.  A
    ``core`` key in the meta of a file written while the engine had a
    traversal-core selector is never read: every engine runs on csr.

    Observability: emits a ``snapshot.open`` span (on the ambient trace
    unless a query trace is active) when tracing is on.
    """
    from repro.obs import trace as obs_trace

    with obs_trace.span("snapshot.open", path=str(path)) as open_span:
        engine = _load_engine(path, **engine_options)
        if open_span is not None:
            open_span.tag(
                nodes=engine._snapshot.meta.get("nodes"),
                version=engine.version,
            )
    return engine


def _load_engine(path: Union[str, Path], **engine_options):
    from repro.core.engine import KeywordSearchEngine

    snapshot = Snapshot(path)
    meta = snapshot.meta

    schema = schema_from_dict(snapshot.json("schema"))
    database = Database(schema, enforce_foreign_keys=True)

    counts = dict(meta["interning"])
    database._unloaded = {
        relation.name: counts.get(relation.name, 0) for relation in schema.relations
    }
    tid_of = _Interning(snapshot, database)
    database._tuples = _LazyStores(tid_of.load_rows, database._unloaded)

    data_graph = DataGraph(database)

    fks, attributes = _id_tables(schema)
    columns = _MappedPostings(snapshot, tid_of, attributes)
    offsets = snapshot.int_array("csr_offsets")
    targets = snapshot.int_array("csr_targets")
    edge_ids = snapshot.read("edge_keys")
    edge_ref = snapshot.section("edge_ref")
    if (
        len(tid_of) != meta.get("base_nodes", meta.get("nodes"))
        or len(offsets) != len(tid_of) + 1
        or len(targets) != meta.get("base_entries", meta.get("entries"))
        or not len(edge_ref) == len(edge_ids) == len(targets)
        or edge_ref.tobytes().translate(None, b"\x00\x01")
    ):
        raise SnapshotError(
            "snapshot CSR sections are inconsistent",
            path=str(path),
            nodes=len(tid_of),
            offsets=len(offsets),
            entries=len(targets),
        )
    if edge_ids.translate(None, bytes(range(len(fks)))):
        raise SnapshotError(
            "snapshot edges carry an unknown foreign-key id", path=str(path)
        )
    edge_keys = list(map([fk.name for fk in fks].__getitem__, edge_ids))
    cache = TraversalCache(data_graph)
    cache._frozen = FrozenGraph.from_parts(
        data_graph, tid_of, offsets, targets, edge_keys, edge_ref,
        counters=cache,
    )

    index = InvertedIndex.from_state(database, _LazyPostings(columns))

    engine = KeywordSearchEngine._from_parts(
        database=database,
        data_graph=data_graph,
        index=index,
        traversal_cache=cache,
        version=snapshot.base_version,
        **engine_options,
    )
    engine.snapshot_path = str(path)
    engine._snapshot_generation = snapshot.generation
    engine._snapshot = snapshot
    if "delta" in snapshot.sections():
        _replay_delta(engine, snapshot)
    engine._snapshot_version = engine.version
    return engine


def _replay_delta(engine, snapshot: Snapshot) -> None:
    """Bring a restored base up to ``meta.engine_version`` through the replay
    loop WAL attach uses; landing anywhere else is an error, never an older engine."""
    problem = None
    try:
        replay_into(engine, snapshot.delta(), str(snapshot.path))
    except WalError as error:
        problem = str(error)
    if problem or engine.version != snapshot.meta.get("engine_version"):
        engine.close()
        raise SnapshotError(
            "snapshot delta does not replay to the recorded engine version",
            path=str(snapshot.path),
            reached=engine.version,
            problem=problem,
        )
