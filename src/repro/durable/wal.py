"""Length-prefixed, CRC-checked write-ahead log beside a snapshot.

Layout::

    REPROWAL\\x01 | u32 header_length | header_json | record*
    record := u32 payload_length | u32 crc32(payload) | payload_json

The header pins the log to one snapshot *generation* (the CRC of the
snapshot's table of contents — see ``repro.scale.snapshot``) and records
the engine version the snapshot held (``base_version``).  Every
``KeywordSearchEngine.apply`` batch appends one record,
``{"version": v, "mutations": [...]}`` — the batch as its caller gave
it, each mutation in the JSON form of ``repro.live.changes``
``mutation_to_json`` — once the batch has validated and *before* the
index, graph and caches are patched, then fsyncs, so a crash at any
instant loses at most the batch that had not yet returned.  The record
is encoded before the database changes, so a batch the log cannot
carry is refused with the database untouched.

Replay (:func:`replay_into`) is the live write path run once: the
logged batches, concatenated, go through one validated
``apply_to_database`` and one ``engine._maintain``.  A record that does
not apply — a foreign key it breaks, a key it repeats — rolls the whole
replay back and raises :class:`~repro.errors.WalError`.

Reading tolerates exactly the damage a crash can cause: appends are
sequential, so a torn write truncates the file mid-record and the log
ends at the last complete, CRC-valid record.  A CRC mismatch *followed
by more data* cannot come from a torn append and raises
:class:`~repro.errors.WalError` instead of silently dropping records.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from typing import List, Optional, Tuple

from repro.durable import fault
from repro.errors import MutationFormatError, ReproError, WalError
from repro.live.changes import apply_to_database, mutation_from_json, mutation_to_json

__all__ = [
    "WriteAheadLog",
    "atomic_write_bytes",
    "default_wal_path",
    "decode_frames",
    "encode_record",
    "replay_into",
]

MAGIC = b"REPROWAL\x01"
FORMAT = 2
_RECORD_HEADER = struct.Struct("<II")
#: Per-append sync primitive.  ``fdatasync`` persists the record bytes
#: and the file-size change but skips the pure-metadata (mtime) flush —
#: the classic WAL sync method — and falls back to ``fsync`` where the
#: platform lacks it.  Snapshot publication keeps full ``fsync``.
_datasync = getattr(os, "fdatasync", os.fsync)
#: Defensive ceiling on one record's payload (a batch of mutations is
#: far below this); larger length fields are treated as damage.
MAX_RECORD_BYTES = 1 << 30


def default_wal_path(snapshot_path) -> str:
    """The conventional WAL location for a snapshot: ``<snapshot>.wal``."""
    return f"{snapshot_path}.wal"


def atomic_write_bytes(path, data, pre_replace: Optional[str] = None) -> None:
    """Write ``data`` (bytes, or an iterable of bytes-likes in order) to
    ``path`` crash-atomically — how snapshots and WAL headers publish.

    Same-directory temp file, fsync, ``os.replace``, then fsync the
    directory so the rename itself is durable.  Readers see either the
    old file or the complete new one, never a torn write.
    ``pre_replace`` names the fault point between fsync and rename.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, temp_name = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in (data,) if isinstance(data, bytes) else data:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        if pre_replace is not None:
            fault.maybe(pre_replace)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def _header_bytes(generation: str, base_version: int) -> bytes:
    header = json.dumps(
        {
            "format": FORMAT,
            "generation": generation,
            "base_version": base_version,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + struct.pack("<I", len(header)) + header


def _payload(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode()


def encode_record(version: int, mutations) -> bytes:
    """The payload of the record that logs one batch as engine version
    ``version``.  A batch JSON cannot carry (a ``bytes`` label, an
    object value) raises :class:`MutationFormatError`."""
    try:
        return _payload({
            "version": version,
            "mutations": [mutation_to_json(mutation) for mutation in mutations],
        })
    except (TypeError, ValueError) as error:
        raise MutationFormatError(
            "mutation batch cannot be logged as JSON",
            version=version,
            problem=str(error),
        ) from None


def decode_frames(data, offset: int, path: str):
    """The complete, CRC-valid records of ``data[offset:]`` as ``(offset,
    record)``, and the offset decoding stopped at — short of
    ``len(data)`` exactly when the data ends in a torn record.  Damage
    followed by more data raises :class:`WalError`.
    """
    records: List[Tuple[int, dict]] = []
    end = len(data)
    while offset + _RECORD_HEADER.size <= end:
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        payload_start = offset + _RECORD_HEADER.size
        payload_end = payload_start + length
        if length > MAX_RECORD_BYTES or payload_end > end:
            break
        payload = bytes(data[payload_start:payload_end])
        try:
            if zlib.crc32(payload) != crc:
                raise ValueError("checksum mismatch")
            record = json.loads(payload.decode("utf-8"))
        except ValueError as error:
            if payload_end == end:
                # A torn append can leave a complete-length garbage
                # tail; damage mid-file cannot come from one.
                break
            raise WalError(
                "damaged WAL record mid-file",
                path=path,
                offset=offset,
                problem=str(error),
            ) from None
        records.append((offset, record))
        offset = payload_end
    return records, offset


class WriteAheadLog:
    """One append-only log file paired with one snapshot generation.

    Opening an existing file parses and validates its header; creating a
    fresh one requires the pairing ``generation``.  The generation
    *policy* (replay / refuse / stale-reset) lives in
    ``KeywordSearchEngine.attach_wal`` — this class only stores and
    reports the pairing.
    """

    def __init__(
        self,
        path,
        *,
        generation: Optional[str] = None,
        base_version: int = 0,
        sync: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        #: fsync after every append (the durable default).  ``False``
        #: trades the durability of the latest batches for speed — data
        #: still reaches the OS on every append.
        self.sync = sync
        self._handle = None
        self._append_offset: Optional[int] = None
        self.torn_tail = False
        try:
            existing = os.path.getsize(self.path) > 0
        except OSError:
            existing = False
        if existing:
            self.generation, self.base_version, self._data_offset = (
                self._read_header()
            )
        else:
            if generation is None:
                raise WalError(
                    "creating a WAL requires its snapshot generation",
                    path=self.path,
                )
            self.generation = generation
            self.base_version = base_version
            header = _header_bytes(generation, base_version)
            atomic_write_bytes(self.path, header)
            self._data_offset = len(header)
            self._append_offset = self._data_offset

    def _read_header(self) -> Tuple[str, int, int]:
        with open(self.path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + 4)
            if len(prefix) < len(MAGIC) + 4 or not prefix.startswith(MAGIC):
                raise WalError("not a WAL file", path=self.path)
            (length,) = struct.unpack("<I", prefix[len(MAGIC):])
            raw = handle.read(length)
            if len(raw) < length:
                raise WalError("truncated WAL header", path=self.path)
            try:
                header = json.loads(raw.decode("utf-8"))
            except ValueError:
                raise WalError("corrupt WAL header", path=self.path) from None
        if header.get("format") != FORMAT:
            raise WalError(
                "unsupported WAL format",
                path=self.path,
                format=header.get("format"),
            )
        return (
            header["generation"],
            int(header["base_version"]),
            len(MAGIC) + 4 + length,
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def scan(self) -> List[Tuple[int, dict]]:
        """All complete records as ``(offset, record)``, oldest first.

        Sets :attr:`torn_tail` when the file ends mid-record (tolerated
        — the tail is truncated away by the next append).  Mid-file
        damage raises :class:`WalError`.
        """
        with open(self.path, "rb") as handle:
            data = handle.read()
        records, end = decode_frames(data, self._data_offset, self.path)
        self.torn_tail = end < len(data)
        self._append_offset = end
        return records

    def records(self) -> List[dict]:
        """The decoded records without their offsets."""
        return [record for __, record in self.scan()]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _ensure_handle(self):
        if self._handle is not None:
            return self._handle
        if self._append_offset is None:
            self.scan()
        handle = open(self.path, "r+b")
        try:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > self._append_offset:
                # Drop the torn tail before the first new append so the
                # log stays a clean prefix of complete records.
                handle.truncate(self._append_offset)
            handle.seek(self._append_offset)
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        return handle

    def append(self, record) -> int:
        """Append one record — a dict, or the payload bytes
        :func:`encode_record` made — durably; returns its file offset.
        An append that raises leaves the file as it was."""
        handle = self._ensure_handle()
        payload = record if isinstance(record, bytes) else _payload(record)
        offset = self._append_offset
        try:
            handle.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
            handle.write(payload)
            handle.flush()
            if self.sync:
                _datasync(handle.fileno())
        except BaseException:
            # Closing flushes what the buffer still holds, or fails to;
            # the truncate cuts either back, and the next append reopens
            # at the offset.
            self._handle = None
            try:
                handle.close()
            except OSError:
                pass
            os.truncate(self.path, offset)
            raise
        self._append_offset = offset + _RECORD_HEADER.size + len(payload)
        return offset

    def reset(self, *, generation: str, base_version: int) -> None:
        """Start the log over for a new snapshot generation.

        Used after compaction folded every record into a fresh snapshot:
        the file is atomically replaced by a bare header, so a crash
        leaves either the old complete log or the new empty one.
        """
        self.close()
        header = _header_bytes(generation, base_version)
        atomic_write_bytes(self.path, header)
        self.generation = generation
        self.base_version = base_version
        self._data_offset = len(header)
        self._append_offset = self._data_offset
        self.torn_tail = False

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_into(engine, records, path: str) -> int:
    """Replay ``(offset, record)`` pairs — a WAL's ``scan()`` or a snapshot's
    ``delta``, read from ``path`` — into an engine one version behind them,
    and return how many were replayed.

    The records' versions must run gap-free from the engine's.  Their
    batches, concatenated, are one ``apply_to_database`` and one
    ``engine._maintain`` — the live write path, validation included —
    after which the engine holds the last record's version.  A record
    that does not decode or apply raises :class:`WalError` and leaves the
    database and version as they were.
    """
    mutations = []
    version = engine.version
    for offset, record in records:
        got = record.get("version") if isinstance(record, dict) else None
        if type(got) is not int or got != version + 1:
            raise WalError(
                "WAL record version does not follow engine state",
                path=path,
                offset=offset,
                expected=version + 1,
                got=got,
            )
        try:
            mutations.extend(map(mutation_from_json, record["mutations"]))
        except (KeyError, TypeError, MutationFormatError) as error:
            raise WalError(
                "malformed WAL record", path=path, offset=offset, problem=str(error)
            ) from None
        version = got
    if version == engine.version:
        return 0
    try:
        changeset = apply_to_database(engine.database, mutations)
    except (ReproError, TypeError, ValueError) as error:
        raise WalError(
            "WAL records do not apply to this database",
            path=path,
            problem=f"{type(error).__name__}: {error}",
        ) from None
    if not changeset.is_empty():
        engine._maintain(changeset)
    replayed = version - engine.version
    engine.version = version
    return replayed
