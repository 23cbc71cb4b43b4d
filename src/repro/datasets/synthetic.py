"""Scalable company-shaped synthetic instances with planted keywords.

:func:`generate_company_like` grows the paper's schema to arbitrary size
while preserving its shape: departments control projects (1:N), employ
employees (1:N), employees raise dependents (1:N) and work on projects
through the ``WORKS_FOR`` middle relation (N:M).  All randomness flows from
one seed, so a configuration identifies one database exactly.

Keyword planting controls workload selectivity: ``plant("needle",
relation="EMPLOYEE", count=5)`` guarantees the keyword matches exactly five
employee tuples — workloads set match counts this way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets import text as text_module
from repro.datasets.company import build_company_schema
from repro.errors import QueryError
from repro.relational.database import Database

__all__ = ["SyntheticConfig", "generate_company_like", "generate_tenants", "plant"]

_LAST_NAMES = (
    "Smith", "Miller", "Walker", "Jones", "Brown", "Wilson", "Moore",
    "Taylor", "Clark", "Lewis", "Young", "Hall", "King", "Wright",
)
_FIRST_NAMES = (
    "John", "Barbara", "Melina", "Alice", "Theodore", "Maria", "Peter",
    "Susan", "David", "Laura", "Frank", "Nina", "Oscar", "Ruth",
)
_DEPARTMENT_NAMES = (
    "cs", "inf", "history", "math", "physics", "biology", "chemistry",
    "law", "economics", "linguistics",
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Size and shape knobs for :func:`generate_company_like`.

    ``works_on_per_employee`` controls ``N:M`` density; ``dependents_per
    _employee`` is an expected value (Poisson-ish via geometric draws).
    """

    departments: int = 5
    projects_per_department: int = 3
    employees_per_department: int = 10
    works_on_per_employee: int = 2
    dependents_per_employee: float = 0.5
    description_words: int = 10
    seed: int = 7


def generate_company_like(config: SyntheticConfig = SyntheticConfig()) -> Database:
    """Generate a deterministic company-shaped database."""
    rng = random.Random(config.seed)
    database = Database(build_company_schema(), enforce_foreign_keys=False)
    _populate(database, config, rng, prefix="")
    database.check_integrity()
    database.enforce_foreign_keys = True
    return database


def generate_tenants(
    config: SyntheticConfig = SyntheticConfig(), tenants: int = 4
) -> Database:
    """Generate K independent company instances inside one schema.

    Each tenant's keys carry a ``t<i>`` prefix and its ``WORKS_FOR``
    rows stay inside the tenant, so the data graph decomposes into one
    connected component per tenant (give or take isolated tuples): a
    graph whose matches spread over many disconnected components.
    With ``tenants=1`` and an empty prefix this reduces to
    :func:`generate_company_like`; all randomness flows from
    ``config.seed`` and the tenant number.
    """
    if tenants < 1:
        raise QueryError("tenants must be positive", got=tenants)
    database = Database(build_company_schema(), enforce_foreign_keys=False)
    for tenant in range(tenants):
        rng = random.Random(config.seed * 1_000_003 + tenant)
        _populate(database, config, rng, prefix=f"t{tenant + 1}")
    database.check_integrity()
    database.enforce_foreign_keys = True
    return database


def _populate(
    database: Database, config: SyntheticConfig, rng: random.Random, prefix: str
) -> None:
    """Insert one company instance; ``prefix`` namespaces every key."""
    department_ids = []
    for index in range(config.departments):
        department_id = f"{prefix}d{index + 1}"
        department_ids.append(department_id)
        database.insert(
            "DEPARTMENT",
            {
                "ID": department_id,
                "D_NAME": _DEPARTMENT_NAMES[index % len(_DEPARTMENT_NAMES)],
                "D_DESCRIPTION": text_module.make_description(
                    rng, config.description_words
                ),
            },
        )

    project_ids = []
    for dept_index, department_id in enumerate(department_ids):
        for offset in range(config.projects_per_department):
            project_id = f"{prefix}p{len(project_ids) + 1}"
            project_ids.append(project_id)
            database.insert(
                "PROJECT",
                {
                    "ID": project_id,
                    "D_ID": department_id,
                    "P_NAME": f"project-{dept_index + 1}-{offset + 1}",
                    "P_DESCRIPTION": text_module.make_description(
                        rng, config.description_words
                    ),
                },
            )

    employee_ids = []
    for department_id in department_ids:
        for __ in range(config.employees_per_department):
            employee_id = f"{prefix}e{len(employee_ids) + 1}"
            employee_ids.append(employee_id)
            database.insert(
                "EMPLOYEE",
                {
                    "SSN": employee_id,
                    "L_NAME": rng.choice(_LAST_NAMES),
                    "S_NAME": rng.choice(_FIRST_NAMES),
                    "D_ID": department_id,
                },
            )

    works_for_count = 0
    for employee_id in employee_ids:
        assigned = rng.sample(
            project_ids, min(config.works_on_per_employee, len(project_ids))
        )
        for project_id in assigned:
            works_for_count += 1
            database.insert(
                "WORKS_FOR",
                {
                    "ESSN": employee_id,
                    "P_ID": project_id,
                    "HOURS": rng.randrange(5, 80),
                },
                label=f"{prefix}w_f{works_for_count}",
            )

    dependent_count = 0
    for employee_id in employee_ids:
        # Geometric draw with the configured expectation.
        probability = min(0.95, config.dependents_per_employee / (
            1.0 + config.dependents_per_employee))
        while rng.random() < probability:
            dependent_count += 1
            database.insert(
                "DEPENDENT",
                {
                    "ID": f"{prefix}t{dependent_count}",
                    "ESSN": employee_id,
                    "DEPENDENT_NAME": rng.choice(_FIRST_NAMES),
                },
            )


def plant(
    database: Database,
    keyword: str,
    relation: str,
    attribute: str,
    count: int,
    seed: int = 11,
) -> list[str]:
    """Plant a keyword into exactly ``count`` tuples of one relation.

    Rewrites the chosen attribute of ``count`` uniformly drawn tuples to
    include the keyword, returning the labels of the rewritten tuples.
    Raises :class:`~repro.errors.QueryError` when the relation holds fewer
    than ``count`` tuples.  Callers must rebuild derived indexes/graphs.
    """
    rng = random.Random(seed)
    records = list(database.tuples(relation))
    if count > len(records):
        raise QueryError(
            "cannot plant keyword into more tuples than exist",
            relation=relation,
            requested=count,
            available=len(records),
        )
    chosen = rng.sample(records, count)
    for record in chosen:
        current = record.values.get(attribute)
        base = str(current) if current is not None else ""
        record.values[attribute] = text_module.plant_keyword(base, keyword, rng)
    return [record.label for record in chosen]
