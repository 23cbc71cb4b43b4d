"""Shared fixtures: the paper's database and derived structures."""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import (
    build_company_database,
    build_company_er_schema,
    build_company_schema,
)
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.relational.index import InvertedIndex


@pytest.fixture
def er_schema():
    """Figure 1's ER schema."""
    return build_company_er_schema()


@pytest.fixture
def db_schema():
    """Figure 2's relational schema."""
    return build_company_schema()


@pytest.fixture
def company_db():
    """Figure 2's instance, verbatim."""
    return build_company_database()


@pytest.fixture
def data_graph(company_db):
    return DataGraph(company_db)


@pytest.fixture
def traversal_cache(data_graph):
    """The compiled-graph cache connections are built on."""
    return TraversalCache(data_graph)


@pytest.fixture
def index(company_db):
    return InvertedIndex(company_db)


@pytest.fixture
def engine(company_db):
    return KeywordSearchEngine(company_db)


@pytest.fixture(autouse=True)
def _obs_off():
    """Leave observability disabled and empty around every test.

    Tests that enable repro.obs flip the process-global tracing flag and
    fill the process-global ambient trace; resetting afterwards keeps
    them from leaking determinism-breaking state into later tests.
    """
    yield
    from repro import obs

    obs.set_enabled(False)
    obs.reset()


@pytest.fixture(scope="session")
def small_synthetic():
    """A small deterministic synthetic database (shared, do not mutate)."""
    return generate_company_like(
        SyntheticConfig(
            departments=3,
            projects_per_department=2,
            employees_per_department=4,
            works_on_per_employee=2,
            dependents_per_employee=0.5,
            seed=42,
        )
    )


@pytest.fixture(scope="session")
def planted_synthetic():
    """About 570 synthetic tuples with ``kwalpha`` planted in two
    departments and ``kwbeta`` in three employees (shared, do not
    mutate)."""
    database = generate_company_like(
        SyntheticConfig(
            departments=15,
            projects_per_department=3,
            employees_per_department=10,
            works_on_per_employee=2,
            dependents_per_employee=0.4,
            seed=17,
        )
    )
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    return database
