"""The keyword-search semantics the paper positions itself against.

:mod:`repro.baselines.discover` implements DISCOVER's Minimal Total
Joining Network of Tuples (MTJNT) semantics (Hristidis &
Papakonstantinou, VLDB 2002) from the paper's description — the
semantics the paper shows to lose connections.  It serves ``repro
mtjnt`` and claim C1.
"""

from repro.baselines.discover import find_mtjnts, is_mtjnt

__all__ = [
    "find_mtjnts",
    "is_mtjnt",
]
