"""Reproduction harness: regenerate every table, figure and claim.

Each function returns structured rows *and* checks them against the
published values, raising :class:`ReproductionMismatch` on any deviation —
``repro reproduce``, the tests and EXPERIMENTS.md are generated from
these.

* :mod:`repro.experiments.tables` — Tables 1, 2 and 3;
* :mod:`repro.experiments.figures` — Figures 1 and 2;
* :mod:`repro.experiments.claims` — the MTJNT-loss and ranking claims of §3;
* :mod:`repro.experiments.report` — plain-text table rendering.
"""

from repro.experiments.claims import mtjnt_loss, ranking_comparison
from repro.experiments.figures import figure1, figure2
from repro.experiments.report import ReproductionMismatch, render_table
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "ReproductionMismatch",
    "figure1",
    "figure2",
    "mtjnt_loss",
    "ranking_comparison",
    "render_table",
    "table1",
    "table2",
    "table3",
]
