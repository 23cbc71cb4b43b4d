"""Durability layer: write-ahead log, compaction and fault injection.

``wal`` pairs a CRC-checked append-only log with a snapshot generation
so every applied changeset survives ``kill -9``; ``compact`` folds the
log back into a fresh snapshot and re-pairs a live engine's log with
it; ``fault`` makes the crash windows deterministically testable.  See DESIGN.md "Durability & recovery".
"""

from __future__ import annotations

from repro.durable import fault
from repro.durable.wal import (
    WriteAheadLog,
    atomic_write_bytes,
    default_wal_path,
    replay_into,
)

__all__ = [
    "fault",
    "WriteAheadLog",
    "atomic_write_bytes",
    "default_wal_path",
    "replay_into",
    "compact_snapshot",
    "hot_compact",
    "CompactionReport",
]


def __getattr__(name):
    # ``compact`` imports the engine and snapshot modules, which import
    # this package for fault points — resolve it lazily to stay acyclic.
    if name in ("compact_snapshot", "hot_compact", "CompactionReport"):
        from repro.durable import compact

        return getattr(compact, name)
    raise AttributeError(name)
