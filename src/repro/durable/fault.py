"""Deterministic fault injection for the durability crash points.

The recovery paths in this package (WAL replay, atomic snapshot swap,
worker respawn) only matter when a process dies at the worst possible
moment.  This module makes those moments reproducible: production code
calls :func:`maybe` at each named crash point, and tests arm a point
either through the ``REPRO_FAULT`` environment variable (inherited by
forked pool workers and by ``kill -9`` subprocess tests) or in-process
via :func:`configure`.

Spec syntax (comma-separated)::

    point[:mode][:once=/path/to/sentinel]

``mode`` is ``kill`` (default — ``SIGKILL`` the current process, the
honest crash) or ``raise`` (raise :class:`~repro.errors.FaultInjected`,
for in-process assertions).  ``once=`` names a sentinel file created
with ``O_CREAT | O_EXCL`` before firing, so exactly one process in a
tree triggers the fault — a respawned worker must not die again.

Known points:

==================== ====================================================
``apply.commit``     a batch's last mutation applied, before its commit
                     (the WAL append)
``wal.append``       after the WAL record is durable, before the
                     in-memory state is patched
``live.maintain``    the index patched with a batch, before the
                     compiled graph is
``snapshot.mid-save`` while snapshot bytes are being written to the temp
                     file (target must stay readable)
``snapshot.pre-replace`` temp file complete and synced, before
                     ``os.replace``
``compact.fold``     WAL replayed, before the fresh snapshot is written
``compact.swap``     fresh snapshot swapped in, before the WAL is reset
                     (the stale-WAL recovery window)
``pool.chunk``       inside a worker executing a batch chunk
==================== ====================================================
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import FaultInjected

ENV_VAR = "REPRO_FAULT"

#: Cheap guard consulted by every :func:`maybe` call before any lookup.
ACTIVE = False

_FAULTS: Dict[str, "_Fault"] = {}
_LOADED = False


@dataclass(frozen=True)
class _Fault:
    point: str
    mode: str  # "kill" | "raise"
    once_path: Optional[str]


def _parse(text: str) -> Dict[str, _Fault]:
    faults: Dict[str, _Fault] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        point = pieces[0]
        mode = "kill"
        once_path = None
        for piece in pieces[1:]:
            if piece.startswith("once="):
                once_path = piece[len("once="):]
            elif piece in ("kill", "raise"):
                mode = piece
            else:
                raise ValueError(f"unknown fault option {piece!r} in {part!r}")
        faults[point] = _Fault(point, mode, once_path)
    return faults


def configure(spec: Optional[str]) -> None:
    """Arm the harness from a spec string (``None`` or ``""`` disarms)."""
    global ACTIVE, _FAULTS, _LOADED
    _FAULTS = _parse(spec) if spec else {}
    ACTIVE = bool(_FAULTS)
    _LOADED = True


def reset() -> None:
    """Disarm everything and forget that the environment was read."""
    global ACTIVE, _FAULTS, _LOADED
    ACTIVE = False
    _FAULTS = {}
    _LOADED = False


def _load_env() -> None:
    global _LOADED
    spec = os.environ.get(ENV_VAR)
    configure(spec)
    _LOADED = True


def maybe(point: str) -> None:
    """Fire the fault armed for ``point``, if any.

    ``kill`` faults terminate the process with ``SIGKILL`` — no atexit
    handlers, no flushes: the same crash the recovery code must survive
    in production.
    """
    global ACTIVE
    if not _LOADED:
        _load_env()
    if not ACTIVE:
        return
    fault = _FAULTS.get(point)
    if fault is None:
        return
    if fault.once_path is not None:
        try:
            os.close(os.open(fault.once_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # another process already took this fault
    if fault.mode == "raise":
        raise FaultInjected("injected fault", point=point)
    os.kill(os.getpid(), signal.SIGKILL)
