"""Versioned binary engine snapshots with mmap-loadable array sections.

A snapshot makes engine state a cheap artifact instead of a cold build:
``KeywordSearchEngine.save(path)`` writes everything a serving process
needs — the database instance, the compiled CSR buffers, the interning
table, the inverted-index postings, corpus statistics and the shard
assignment — and ``KeywordSearchEngine.open(path)`` brings an engine up
an order of magnitude faster than rebuilding those structures from raw
tuples.  Worker processes of the parallel executor each open the same
file; the array sections are ``mmap``-backed, so the page cache shares
them across the fleet.

File layout::

    MAGIC  u32 toc_length  toc_json  section bytes...

The TOC records ``[offset, length, crc32]`` per section (offsets are
relative to the data area, so the TOC's own size never feeds back into
it).  Every section is integrity-checked on open; corruption, truncation
and format or platform mismatches raise
:class:`~repro.errors.SnapshotError` instead of producing a silently
wrong engine (binary sections also against their structure).

A compacted file may end in a ``delta`` section (:func:`write_delta_snapshot`):
WAL record frames that open replays from ``meta.base_version`` up to
``meta.engine_version``.  Such a file carries format 4, so a reader
that would ignore the section refuses it.

Restoration is lazy wherever queries and replayed WAL records allow it:

* the CSR ``array('i')`` buffers are zero-copy ``memoryview`` casts
  over the mapped file (the one-byte edge keys decode at open);
* the interning table decodes per relation (:class:`_Interning`),
  edge-payload dicts per CSR entry (:class:`_LazyEdgeData`), posting
  lists per token (:class:`_PostingColumns`), each on first touch;
* the networkx tuple graph — only needed by the reference core
  and by joining-network metrics — builds on first demand
  (:class:`~repro.graph.data_graph.DataGraph` is lazy); a pure-CSR
  path query never builds it.

The snapshot stores the engine's live-update ``version``; applying
mutation batches to an opened engine bumps it through the ordinary
:class:`~repro.live.changes.ChangeSet` path, and a subsequent ``save``
persists the bumped version.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Optional, Union

from repro.durable import fault
from repro.durable.wal import atomic_write_bytes, decode_frames, replay_into
from repro.errors import SnapshotError, WalError
from repro.graph.csr import FrozenGraph
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.relational.database import Database, TupleId
from repro.relational.index import InvertedIndex, Posting, _LazyPostings
from repro.relational.io import schema_from_dict, schema_to_dict
from repro.relational.statistics import DatabaseStatistics

__all__ = ["SNAPSHOT_FORMAT", "Snapshot", "write_snapshot", "load_engine"]

_MAGIC = b"REPROSNP\x01"
SNAPSHOT_FORMAT = 3
_DELTA_FORMAT = 4  # of a file that carries a ``delta`` section
#: A ``delta`` holds up to 1/8 of the base sections' bytes — ≈ 400 bib
#: records, whose replay on open (≈ 0.6 ms each) costs about what one
#: full rewrite does (≈ 0.35 s).
DELTA_FRACTION = 8

_REQUIRED_SECTIONS = (
    "meta",
    "schema",
    "csr_offsets",
    "csr_targets",
    "edge_keys",
    "edge_ref",
    "postings",
    "stats",
)

#: Posting flag bits: the keyword is the whole attribute value; the
#: posting opens its token's slice.
_WHOLE = 0x01
_FIRST = 0x80
#: What a stored primary-key value may decode to.
_KEY_TYPES = {str, int, float, bool}


class _LazyStores(dict):
    """Per-relation tuple stores materialised from their snapshot
    sections on first access.

    Each relation's rows live in their own integrity-checked section, so
    a serving process only parses and objectifies the relations its
    queries actually render.  Once a store is built (or assigned — e.g.
    by a rollback's order restore) plain dict semantics apply.
    """

    def __init__(self, loaders: dict) -> None:
        super().__init__()
        self._pending = loaders

    def __missing__(self, name: str) -> dict:
        loader = self._pending.pop(name, None)
        if loader is None:
            raise KeyError(name)
        store = loader()
        self[name] = store
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

    def keys(self):
        return list(self)

    def values(self):
        for name in list(self):
            yield self[name]

    def items(self):
        for name in list(self):
            yield name, self[name]


class _Interning:
    """The interning table — node int -> :class:`TupleId` — decoded per
    relation on demand.

    Nodes are in ``_sort_key`` order, so each relation owns one run of
    them (``meta.interning``: ``[relation, count]`` in node order), its
    primary keys flattened into its own ``interning:<relation>`` section,
    parsed the first time a node of the run or the relation's node map
    (:meth:`nodes_of`, which builds no tuple id) is asked for.  The table
    takes the patches :meth:`FrozenGraph.apply_changeset` makes (append,
    ``None`` for a tombstone); iterating it (an index past the end raises
    ``IndexError``) builds every tuple id.
    """

    __slots__ = ("_snapshot", "_runs", "_length", "_keys", "_cache", "_appended")

    def __init__(self, snapshot: "Snapshot", schema) -> None:
        self._snapshot = snapshot
        #: ``(relation, first node, count, key width)`` in node order.
        self._runs = []
        start = 0
        for relation, count in snapshot.meta["interning"]:
            width = len(schema.relation(relation).primary_key)
            self._runs.append((relation, start, count, width))
            start += count
        self._length = start
        #: Per run, its primary keys once parsed.
        self._keys: list[Optional[list]] = [None] * len(self._runs)
        self._cache: dict[int, Optional[TupleId]] = {}
        self._appended: list = []

    def _run_keys(self, at: int) -> list[tuple]:
        keys = self._keys[at]
        if keys is None:
            relation, __, count, width = self._runs[at]
            flat = self._snapshot.json(f"interning:{relation}")
            if (
                not isinstance(flat, list)
                or len(flat) != count * width
                or not set(map(type, flat)) <= _KEY_TYPES
            ):
                raise SnapshotError(
                    "interning section disagrees with the meta section",
                    relation=relation,
                    expected=count,
                )
            keys = self._keys[at] = list(zip(*[iter(flat)] * width))
        return keys

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

    def tids(self, nodes) -> list:
        """The tuple ids of many live nodes, from the cache where it has them."""
        cached = self._cache.get
        return [cached(node) or self[node] for node in nodes]

    def __setitem__(self, node: int, value) -> None:
        if node >= self._length:
            self._appended[node - self._length] = value
        else:
            self._cache[node] = value

    def append(self, value) -> None:
        self._appended.append(value)

    def nodes_of(self, relation: str) -> dict:
        """Primary key -> node int of one relation's stored run."""
        for at, (name, start, count, __) in enumerate(self._runs):
            if name == relation:
                return dict(zip(self._run_keys(at), range(start, start + count)))
        return {}


class _LazyEdgeData:
    """Edge-payload dicts materialised per CSR entry on first access.

    A payload dict is ``{"foreign_key": fk, "referencing": tid}`` —
    derivable from the edge key (the FK name), the stored reference
    flag and the interning table, so the snapshot stores two bytes per
    entry instead of a pickled dict, and opening defers all dict
    allocation to the queries that walk the edges.
    """

    __slots__ = ("_cache", "_fk_by_name", "_tid_of", "_keys", "_ref", "_owner")

    def __init__(self, fk_by_name, tid_of, keys, ref_flags, owner_of_entry):
        self._cache: dict[int, dict] = {}
        self._fk_by_name = fk_by_name
        self._tid_of = tid_of
        self._keys = keys
        self._ref = ref_flags
        #: entry index -> (row-owner node, target node)
        self._owner = owner_of_entry

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[at] for at in range(*position.indices(len(self)))]
        cached = self._cache.get(position)
        if cached is None:
            owner, target = self._owner(position)
            referencing = owner if self._ref[position] else target
            cached = {
                "foreign_key": self._fk_by_name[self._keys[position]],
                "referencing": self._tid_of[referencing],
            }
            self._cache[position] = cached
        return cached

    def __iter__(self):
        for position in range(len(self)):
            yield self[position]


class _PostingColumns:
    """The binary ``postings`` section: ``int32`` offsets (a token's
    postings are slots ``offsets[t]:offsets[t + 1]``), one column each of
    node ``int32``, attribute-id byte and flag byte per slot, then the
    token directory, a JSON list in offset order.  :meth:`pending` parses
    the directory alone; :meth:`decode` reads one token's slice, checked
    against the structure: inside the columns, ``_FIRST`` on exactly its
    first posting, node ids below the stored count, attribute ids inside
    their table.
    """

    def __init__(self, snapshot: "Snapshot", tid_of, attributes: list) -> None:
        tokens, postings, directory = snapshot.meta["postings"]
        nodes = 4 * (tokens + 1)
        self._columns = nodes + 6 * postings  # where the directory starts
        if snapshot._toc["postings"][1] != self._columns + directory:
            raise SnapshotError(
                "snapshot postings section disagrees with the meta section",
                path=str(snapshot.path),
            )
        attributes_at, flags_at = nodes + 4 * postings, nodes + 5 * postings
        self._offsets = snapshot.int_array("postings", 0, nodes)
        self._nodes = snapshot.int_array("postings", nodes, attributes_at)
        self._attributes = snapshot.int_array("postings", attributes_at, flags_at, "B")
        self._flags = snapshot.int_array("postings", flags_at, self._columns, "B")
        self._snapshot, self._tid_of, self._names = snapshot, tid_of, attributes

    def _damaged(self, **where) -> SnapshotError:
        return SnapshotError(
            "snapshot postings are inconsistent", path=str(self._snapshot.path), **where
        )

    def pending(self) -> dict[str, range]:
        """Token -> the ``range`` of its posting slots, every token."""
        with self._snapshot._section("postings") as view:
            directory = view[self._columns:].tobytes()
        try:
            tokens = json.loads(directory)
        except ValueError:
            tokens = None
        offsets = self._offsets.tolist()
        if not (
            isinstance(tokens, list)
            and set(map(type, tokens)) <= {str}
            and len(set(tokens)) == len(tokens) == len(offsets) - 1
        ):
            raise self._damaged(problem="token directory")
        return dict(zip(tokens, map(range, offsets, offsets[1:])))

    def decode(self, span: range) -> list:
        """One token's postings, validated as they are read."""
        start, stop = span.start, span.stop
        nodes = self._nodes[start:stop].tolist()
        attributes = self._attributes[start:stop].tobytes()
        flags = self._flags[start:stop].tobytes()
        if not (
            0 <= start < stop <= len(self._nodes)
            and flags[0] & ~_WHOLE == _FIRST
            and not flags[1:].translate(None, bytes((0, _WHOLE)))
            and (stop == len(self._flags) or self._flags[stop] & _FIRST)
            and 0 <= min(nodes) <= max(nodes) < len(self._tid_of)
            and max(attributes) < len(self._names)
        ):
            raise self._damaged(postings=[start, stop])
        tid_of, names = self._tid_of, self._names
        return [
            Posting(tid_of[node], names[attribute], bool(flag & _WHOLE))
            for node, attribute, flag in zip(nodes, attributes, flags)
        ]


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _statistics_doc(engine) -> dict:
    """Corpus statistics plus the engine's learned planner calibration.

    Calibration rides the stats section
    (:meth:`DatabaseStatistics.to_dict` carries the key only when
    non-empty) so learned estimates survive save/open without a snapshot
    format change — an engine that never calibrated writes the exact
    payload older snapshots had, and older snapshots restore with an
    empty table.
    """
    # Every ``apply`` resets the held statistics: a held value is current.
    statistics = engine._statistics or DatabaseStatistics(engine.database)
    calibration = getattr(engine, "calibration", None)
    statistics.calibration = calibration.to_dict() if calibration else {}
    return statistics.to_dict()


def _id_tables(schema) -> tuple[list, list[str]]:
    """What the one-byte ids of ``edge_keys`` and of the postings'
    attribute column index: the schema's foreign keys and attribute
    names, in schema order."""
    return list(schema.foreign_keys), list(dict.fromkeys(
        attribute.name
        for relation in schema.relations
        for attribute in relation.attributes
    ))


def _encode_postings(postings, node_of, attribute_id: dict) -> tuple[bytes, list]:
    """The binary ``postings`` section (:class:`_PostingColumns`) and its
    ``[tokens, postings, directory bytes]`` counts for ``meta``."""
    tokens = sorted(token for token, entries in postings.items() if entries)
    offsets = array("i", [0])
    nodes = array("i")
    attributes = bytearray()
    flags = bytearray()
    for token in tokens:
        first = _FIRST
        for posting in postings[token]:
            nodes.append(node_of(posting.tid))
            attributes.append(attribute_id[posting.attribute])
            flags.append(first | posting.whole_value)
            first = 0
        offsets.append(len(nodes))
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
    engine absorbed.
    """
    frozen = engine.traversal_cache.frozen()
    if frozen._override:
        frozen._compile()
        frozen.compactions += 1
    if isinstance(engine.index._postings, _LazyPostings):
        engine.index._postings.decode_all()
    capacity = frozen.capacity
    schema = engine.database.schema
    tids = list(frozen._tid_of)
    # Folded: no tombstones, and each relation one run in node order.
    runs: dict[str, list] = {}
    for tid in tids:
        runs.setdefault(tid.relation, []).append(tid.key)

    edge_data = frozen._edge_data
    if isinstance(edge_data, _LazyEdgeData):
        # Never folded since restored: the stored flags still hold, and
        # reading them builds no payload dict per entry.
        edge_ref = bytes(edge_data._ref)
    else:
        edge_ref = bytearray(len(frozen._targets))
        for node in range(capacity):
            owner = tids[node]
            for entry in range(frozen._offsets[node], frozen._offsets[node + 1]):
                edge_ref[entry] = edge_data[entry]["referencing"] == owner
    foreign_keys, attributes = _id_tables(schema)
    fk_id = {fk.name: at for at, fk in enumerate(foreign_keys)}
    postings, posting_counts = _encode_postings(
        engine.index._postings,
        frozen.node_of,
        {name: at for at, name in enumerate(attributes)},
    )

    shard_plan = getattr(engine, "_shard_plan", None)
    meta = {
        "format": SNAPSHOT_FORMAT,
        "engine_version": engine.version,
        "core": engine.core,
        "shard_count": shard_plan.shard_count if shard_plan is not None else (
            engine.shards or 0
        ),
        "byteorder": sys.byteorder,
        "itemsize": frozen._offsets.itemsize,
        "nodes": capacity,
        "entries": len(frozen._targets),
        "tuples": engine.database.count(),
        "schema": schema.name,
        "interning": [[relation, len(keys)] for relation, keys in runs.items()],
        "postings": posting_counts,
    }

    sections: list[tuple[str, bytes]] = [
        ("meta", _json_bytes(meta)),
        ("schema", _json_bytes(schema_to_dict(schema))),
        *(
            (f"interning:{relation}", _json_bytes([v for key in keys for v in key]))
            for relation, keys in runs.items()
        ),
        ("csr_offsets", frozen._offsets.tobytes()),
        ("csr_targets", frozen._targets.tobytes()),
        ("edge_keys", bytes(map(fk_id.__getitem__, frozen._edge_keys))),
        ("edge_ref", bytes(edge_ref)),
        ("postings", postings),
        ("stats", _json_bytes(_statistics_doc(engine))),
    ]
    for relation in schema.relations:
        records = engine.database.tuples(relation.name)
        sections.append((
            f"rows:{relation.name}",
            _json_bytes({
                "rows": [record.values for record in records],
                "labels": [record.label for record in records],
            }),
        ))
    if shard_plan is not None:
        sections.append(("shard_assignment", shard_plan.assignment_bytes()))

    meta["generation"] = _publish(path, SNAPSHOT_FORMAT, sections)
    return meta


def write_delta_snapshot(engine, path: Union[str, Path]) -> Optional[dict]:
    """Republish the WAL-paired snapshot at ``path`` with the WAL's record
    frames appended to its ``delta`` section: base sections byte-copied
    with length and CRC reused, only ``meta`` and the planner calibration
    in ``stats`` re-encoded.  The engine is only read — nothing folded,
    decoded or dropped.  Returns the meta dict, or ``None`` when
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
        sections = {name: base.section(name) for name in copied}
        crcs = {name: base._toc[name][2] for name in copied}
        if engine._calibration_loader is None:  # else the stored table is current
            # The statistics beside it stay the base's: open's replay drops
            # them, as the live engine's first ``apply`` did.
            del crcs["stats"]
            sections["stats"] = _json_bytes(
                dict(base.json("stats"), calibration=engine.calibration.to_dict())
            )
        blobs = [("meta", _json_bytes(meta)), *sections.items(), ("delta", delta)]
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
        # Format 2 marks exactly the files whose state includes a delta.
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

    def statistics(self, database: Database) -> DatabaseStatistics:
        """The stored corpus statistics, bound to a restored database."""
        return DatabaseStatistics.from_dict(database, self.json("stats"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({str(self.path)!r}, v{self.meta.get('engine_version')}, "
            f"{self.meta.get('nodes')} nodes)"
        )


def _stored_core(meta: dict) -> Optional[str]:
    """The writer's traversal core.  Files written while the retired
    ``fast`` core existed may name it; its answers were bit-identical
    to ``csr`` by contract, so they open on ``csr``."""
    core = meta.get("core")
    return "csr" if core == "fast" else core


def load_engine(
    path: Union[str, Path],
    *,
    core: Optional[str] = None,
    shards: Optional[int] = None,
    **engine_options,
):
    """Open a snapshot into a ready :class:`KeywordSearchEngine`.

    The restored engine is bit-identical in query behaviour to the one
    that wrote the snapshot: same database store order, same posting
    order, same compiled CSR expansion order.  ``core`` and ``shards``
    default to the writer's settings; any other
    :class:`KeywordSearchEngine` construction options pass through.

    Observability: emits a ``snapshot.open`` span (on the ambient trace
    unless a query trace is active) and bumps ``snapshot.opens`` when
    the obs layer is enabled — pool workers inherit the same site, so
    ``repro stats`` shows coordinator and worker opens alike.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    with obs_trace.span("snapshot.open", path=str(path)) as open_span:
        engine = _load_engine(
            path, core=core, shards=shards, **engine_options
        )
        if open_span is not None:
            open_span.tag(
                nodes=engine._snapshot.meta.get("nodes"),
                version=engine.version,
            )
    if obs_metrics.ENABLED:
        obs_metrics.REGISTRY.inc("snapshot.opens")
    return engine


def _load_engine(
    path: Union[str, Path],
    *,
    core: Optional[str] = None,
    shards: Optional[int] = None,
    **engine_options,
):
    from repro.core.engine import KeywordSearchEngine

    snapshot = Snapshot(path)
    meta = snapshot.meta

    schema = schema_from_dict(snapshot.json("schema"))
    database = Database(schema, enforce_foreign_keys=True)

    def store_loader(relation_name: str):
        def load() -> dict:
            doc = snapshot.json(f"rows:{relation_name}")
            rows = doc["rows"]
            labels = doc.get("labels") or [None] * len(rows)
            return Database.build_store(schema, relation_name, zip(rows, labels))

        return load

    database._tuples = _LazyStores(
        {relation.name: store_loader(relation.name)
         for relation in schema.relations}
    )

    data_graph = DataGraph(database)

    fks, attributes = _id_tables(schema)
    tid_of = _Interning(snapshot, schema)
    columns = _PostingColumns(snapshot, tid_of, attributes)
    offsets = snapshot.int_array("csr_offsets")
    targets = snapshot.int_array("csr_targets")
    edge_ids = snapshot.read("edge_keys")
    edge_ref = snapshot.section("edge_ref")
    if (
        len(tid_of) != meta.get("base_nodes", meta.get("nodes"))
        or len(offsets) != len(tid_of) + 1
        or len(targets) != meta.get("base_entries", meta.get("entries"))
        or not len(edge_ref) == len(edge_ids) == len(targets)
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

    # Rows the snapshot itself stores.  Live appends grow ``tid_of``
    # past this, but appended nodes keep their edges in override side
    # tables — a stored CSR entry is always owned by a stored row, so
    # the binary search must not wander into offsets the mmap lacks.
    stored_nodes = len(tid_of)

    def owner_of_entry(position: int) -> tuple[int, int]:
        # The row owning a CSR entry is the last one starting at or
        # before it (empty rows share their successor's offset).
        owner = bisect_right(offsets, position, 0, stored_nodes) - 1
        return owner, targets[position]

    edge_data = _LazyEdgeData(
        {fk.name: fk for fk in fks}, tid_of, edge_keys, edge_ref, owner_of_entry
    )
    # The vector backend wraps the mmap-backed CSR sections in zero-copy
    # numpy views (engine.close() drops them before the mmap closes).
    vector = engine_options.get("vector")
    frozen = FrozenGraph.from_parts(
        data_graph, tid_of, offsets, targets, edge_keys, edge_data,
        vector=vector,
    )
    cache = TraversalCache(data_graph, vector=vector)
    cache._frozen = frozen
    frozen._counters = cache

    index = InvertedIndex.from_state(
        database, _LazyPostings(columns.pending, columns.decode)
    )

    engine = KeywordSearchEngine._from_parts(
        database=database,
        data_graph=data_graph,
        index=index,
        traversal_cache=cache,
        core=core if core is not None else _stored_core(meta),
        shards=shards if shards is not None else (meta.get("shard_count") or None),
        version=snapshot.base_version,
        **engine_options,
    )
    engine._statistics_loader = lambda: snapshot.statistics(database)
    # Planner calibration rides the stats section; deferred like every
    # other section until the first cost estimate needs it.
    engine._calibration_loader = (
        lambda: snapshot.json("stats").get("calibration")
    )
    engine.snapshot_path = str(path)
    engine._snapshot_generation = snapshot.generation
    engine._snapshot = snapshot

    if engine.shards and "shard_assignment" in snapshot.sections():
        from repro.scale.shards import ShardPlan

        if meta.get("shard_count") == engine.shards:
            engine._shard_plan = ShardPlan.from_state(
                cache, engine.shards, snapshot.int_array("shard_assignment")
            )
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
