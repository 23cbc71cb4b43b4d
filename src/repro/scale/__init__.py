"""Horizontal-scale serving layer: snapshots and parallel execution.

Two cooperating pieces turn the single-process engine into something a
serving fleet can run:

* :mod:`repro.scale.snapshot` — a versioned binary snapshot of the full
  engine state (rows, CSR buffers, interning, index postings) whose
  array sections load via ``mmap``;
  opening a snapshot is an order of magnitude cheaper than a cold
  build, and page-cache sharing makes per-process opens nearly free.
* :mod:`repro.scale.parallel` — a process-pool batch executor: each
  worker is a fork of the serving engine and answers whole queries
  with the engine it inherits; the coordinator reassembles results (and
  the first error) in input order, bit-identical to the serial path.
"""

from repro.scale.parallel import ParallelSearcher
from repro.scale.snapshot import Snapshot, load_engine, write_snapshot

__all__ = [
    "Snapshot",
    "write_snapshot",
    "load_engine",
    "ParallelSearcher",
]
