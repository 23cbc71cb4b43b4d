"""Datasets: the paper's running example plus synthetic generators.

* :mod:`repro.datasets.company` — Figure 1's ER schema and Figure 2's
  database instance, verbatim;
* :mod:`repro.datasets.synthetic` — scalable company-shaped instances with
  planted keywords, for ``repro generate`` and the examples;
* :mod:`repro.datasets.text` — deterministic text synthesis.
"""

from repro.datasets.company import (
    build_company_database,
    build_company_er_schema,
    build_company_schema,
)
from repro.datasets.synthetic import SyntheticConfig, generate_company_like

__all__ = [
    "SyntheticConfig",
    "build_company_database",
    "build_company_er_schema",
    "build_company_schema",
    "generate_company_like",
]
