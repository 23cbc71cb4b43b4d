"""Fold a write-ahead log into a fresh snapshot.

The live engine already *is* snapshot + WAL.  Compaction publishes that
state as a new snapshot, crash-atomically (temp file, fsync,
``os.replace``), and resets the WAL to an empty log paired with the new
generation.  A delta — the paired file's sections byte-copied, the log's
records appended — only reads the engine; a full rewrite, when a delta
cannot be proven or would outgrow its bound, folds the compiled graph
and decodes pending postings on the way.  Either way the crash windows
are both recoverable:

* before the ``os.replace`` — the old snapshot + full WAL pair is
  untouched and replays completely;
* between the replace and the WAL reset — the new snapshot sits beside
  a *stale* WAL (older generation, every record already folded in);
  ``KeywordSearchEngine.attach_wal`` detects exactly this shape and
  resets the log instead of refusing.

Compaction changes no state a query reads, so a live engine's worker
pool keeps serving through it untouched: its workers are forks of the
engine at the same version and never read the snapshot file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.durable import fault
from repro.durable.wal import WriteAheadLog, default_wal_path
from repro.errors import WalError

__all__ = ["CompactionReport", "hot_compact", "compact_snapshot"]


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction did."""

    snapshot_path: str
    wal_path: str
    generation: str
    records_folded: int
    engine_version: int

    def describe(self) -> str:
        return (
            f"folded {self.records_folded} WAL record(s) into "
            f"{self.snapshot_path} (generation {self.generation}, "
            f"engine version {self.engine_version})"
        )


def hot_compact(engine, out=None) -> CompactionReport:
    """Compact a live engine's WAL.

    With ``out`` unset (the normal case) the engine's paired snapshot is
    atomically replaced and its WAL reset in place.  With ``out`` set,
    the fold goes to a *copy* — new snapshot plus a fresh empty WAL
    beside it — and the original snapshot/WAL pair stays untouched.
    """
    from repro.scale.snapshot import write_delta_snapshot, write_snapshot

    wal = engine.wal
    if wal is None:
        raise WalError("engine has no attached WAL to compact")
    target = os.fspath(out) if out is not None else engine._wal_snapshot_path
    in_place = os.path.abspath(target) == os.path.abspath(
        engine._wal_snapshot_path
    )
    folded = engine.version - wal.base_version
    fault.maybe("compact.fold")
    meta = write_delta_snapshot(engine, target) or write_snapshot(engine, target)
    generation = meta["generation"]
    fault.maybe("compact.swap")
    if in_place:
        wal.reset(generation=generation, base_version=engine.version)
        wal_path = wal.path
        engine.snapshot_path = str(target)
        engine._snapshot_version = engine.version
        engine._snapshot_generation = generation
    else:
        wal_path = default_wal_path(target)
        WriteAheadLog(
            wal_path, generation=generation, base_version=engine.version
        ).close()
    return CompactionReport(
        snapshot_path=str(target),
        wal_path=wal_path,
        generation=generation,
        records_folded=folded,
        engine_version=engine.version,
    )


def compact_snapshot(
    snapshot_path,
    wal_path=None,
    out=None,
    **engine_options,
) -> CompactionReport:
    """Offline compaction: open snapshot + WAL, fold, swap, close.

    This is the CLI's ``repro wal compact``.  ``engine_options`` pass
    through to :meth:`KeywordSearchEngine.open`.
    """
    from repro.core.engine import KeywordSearchEngine

    engine = KeywordSearchEngine.open(
        snapshot_path,
        wal=wal_path if wal_path is not None else True,
        **engine_options,
    )
    try:
        return hot_compact(engine, out=out)
    finally:
        engine.close()
