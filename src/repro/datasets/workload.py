"""Keyword query workload generation with selectivity control.

A workload is a list of queries whose keywords are *planted* into the
database with known match counts, so benchmark sweeps can vary exactly one
variable at a time (number of keywords, selectivity, relation distance).

:func:`generate_mixed_workload` turns a planted query workload into a
mixed read/write operation stream — skewed repeated searches interleaved
with mutation batches for ``engine.apply`` — the shape the live-update
subsystem (:mod:`repro.live`) is benchmarked under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets import text as text_module
from repro.datasets.synthetic import plant
from repro.live.changes import Delete, Insert, Mutation, Update
from repro.relational.database import Database, TupleId

__all__ = [
    "WorkloadConfig",
    "WorkloadQuery",
    "MixedWorkloadConfig",
    "MixedOperation",
    "SkewedWorkloadConfig",
    "generate_workload",
    "generate_mixed_workload",
    "generate_skewed_workload",
]

#: Relations and text attributes that keywords may be planted into.
_PLANT_SITES = (
    ("DEPARTMENT", "D_DESCRIPTION"),
    ("PROJECT", "P_DESCRIPTION"),
    ("EMPLOYEE", "L_NAME"),
    ("DEPENDENT", "DEPENDENT_NAME"),
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a generated workload."""

    queries: int = 10
    keywords_per_query: int = 2
    matches_per_keyword: int = 3
    seed: int = 13


@dataclass(frozen=True)
class WorkloadQuery:
    """One planted query: the text plus ground-truth match labels."""

    text: str
    keywords: tuple[str, ...]
    planted_labels: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class MixedWorkloadConfig:
    """Shape of a mixed read/write operation stream.

    ``update_ratio`` is the probability an operation is a mutation batch
    rather than a search; ``skew`` is the Zipf-style exponent of query
    popularity (0 = uniform — higher values concentrate reads on the
    first queries, which is what makes an answer cache pay off).
    """

    operations: int = 40
    update_ratio: float = 0.25
    mutations_per_batch: int = 4
    skew: float = 1.0
    seed: int = 29


@dataclass(frozen=True)
class MixedOperation:
    """One step of a mixed workload: a search or a mutation batch."""

    kind: str  # "search" | "apply"
    query: str = ""
    mutations: tuple[Mutation, ...] = ()


def generate_mixed_workload(
    database: Database,
    queries: list[WorkloadQuery],
    config: MixedWorkloadConfig = MixedWorkloadConfig(),
) -> list[MixedOperation]:
    """Interleave skewed searches with mutation batches, deterministically.

    Mutation batches mix the three shapes the live subsystem must stay
    exact under: inserts of ``DEPENDENT`` tuples referencing random
    employees (sometimes carrying a workload keyword, so keyword match
    sets change), description updates on ``DEPARTMENT`` tuples, and
    deletes of dependents this workload inserted earlier.  All draws
    flow from ``config.seed``.
    """
    if not queries:
        raise ValueError("mixed workload needs at least one query")
    rng = random.Random(config.seed)
    weights = [
        1.0 / (rank + 1) ** config.skew for rank in range(len(queries))
    ]
    employees = [record.tid for record in database.tuples("EMPLOYEE")]
    departments = [record.tid for record in database.tuples("DEPARTMENT")]
    keywords = [kw for query in queries for kw in query.keywords]
    live_dependents: list[str] = []
    counter = 0
    operations: list[MixedOperation] = []
    for __ in range(config.operations):
        if rng.random() >= config.update_ratio:
            chosen = rng.choices(queries, weights=weights)[0]
            operations.append(MixedOperation("search", query=chosen.text))
            continue
        batch: list[Mutation] = []
        for __ in range(config.mutations_per_batch):
            roll = rng.random()
            if roll < 0.5 or not live_dependents:
                counter += 1
                name = (
                    rng.choice(keywords)
                    if keywords and rng.random() < 0.3
                    else text_module.make_description(rng, 1)
                )
                essn = rng.choice(employees).key[0]
                key = f"lw{counter}"
                batch.append(
                    Insert(
                        "DEPENDENT",
                        {"ID": key, "ESSN": essn, "DEPENDENT_NAME": name},
                    )
                )
                live_dependents.append(key)
            elif roll < 0.8:
                words = text_module.make_description(rng, 6)
                if keywords and rng.random() < 0.3:
                    words = f"{words} {rng.choice(keywords)}"
                batch.append(
                    Update(
                        rng.choice(departments), {"D_DESCRIPTION": words}
                    )
                )
            else:
                key = live_dependents.pop(
                    rng.randrange(len(live_dependents))
                )
                batch.append(Delete(TupleId("DEPENDENT", (key,))))
        operations.append(MixedOperation("apply", mutations=tuple(batch)))
    return operations


@dataclass(frozen=True)
class SkewedWorkloadConfig:
    """Shape of a skewed workload: Zipfian popularity x mixed selectivity.

    A pool of ``keyword_pool`` keywords is planted once; keyword rank
    decides both how *popular* it is (queries draw keywords with weight
    ``1/(rank+1)**skew``) and how *heavy* it is (match counts interpolate
    from ``max_matches`` at rank 0 down to ``min_matches`` at the coldest
    rank).  Popular keywords are therefore the expensive ones — the shape
    where a static plan-order enumeration wastes the most work and a
    cost-ordered one pays off.
    """

    queries: int = 20
    keywords_per_query: int = 2
    keyword_pool: int = 8
    max_matches: int = 12
    min_matches: int = 1
    skew: float = 1.0
    seed: int = 17


def generate_skewed_workload(
    database: Database, config: SkewedWorkloadConfig = SkewedWorkloadConfig()
) -> list[WorkloadQuery]:
    """Plant a skewed keyword pool and draw Zipf-popular queries from it.

    Pool keywords are fresh unique tokens (``sk<rank>``) planted into a
    round-robin choice of relation; each query samples
    ``config.keywords_per_query`` *distinct* pool keywords by popularity
    weight, so hot (heavy) keywords co-occur often while cold (cheap)
    ones appear in the tail.  All draws flow from ``config.seed``.  As
    with :func:`generate_workload`, the engine must be constructed after
    planting so derived structures see the planted tokens.
    """
    if config.keyword_pool < config.keywords_per_query:
        raise ValueError("keyword_pool must cover keywords_per_query")
    rng = random.Random(config.seed)
    pool: list[str] = []
    planted: dict[str, tuple[str, ...]] = {}
    span = max(1, config.keyword_pool - 1)
    for rank in range(config.keyword_pool):
        keyword = f"sk{rank + 1}"
        relation, attribute = _PLANT_SITES[rank % len(_PLANT_SITES)]
        target = round(
            config.max_matches
            - (config.max_matches - config.min_matches) * rank / span
        )
        count = min(max(1, target), database.count(relation))
        labels = plant(
            database,
            keyword,
            relation,
            attribute,
            count,
            seed=rng.randrange(1 << 30),
        )
        pool.append(keyword)
        planted[keyword] = tuple(labels)
    weights = [
        1.0 / (rank + 1) ** config.skew for rank in range(len(pool))
    ]
    queries: list[WorkloadQuery] = []
    for __ in range(config.queries):
        chosen: list[str] = []
        while len(chosen) < config.keywords_per_query:
            keyword = rng.choices(pool, weights=weights)[0]
            if keyword not in chosen:
                chosen.append(keyword)
        queries.append(
            WorkloadQuery(
                text=" ".join(chosen),
                keywords=tuple(chosen),
                planted_labels={kw: planted[kw] for kw in chosen},
            )
        )
    return queries


def generate_workload(
    database: Database, config: WorkloadConfig = WorkloadConfig()
) -> list[WorkloadQuery]:
    """Plant keywords into a database and return the induced queries.

    Every keyword is a fresh unique token (``qk<i>``), planted into a
    round-robin choice of relation with exactly
    ``config.matches_per_keyword`` matches.  The database's derived
    structures (index, data graph) must be rebuilt afterwards — the engine
    does this when constructed after planting.
    """
    rng = random.Random(config.seed)
    queries = []
    token_counter = 0
    for query_index in range(config.queries):
        keywords = []
        planted: dict[str, tuple[str, ...]] = {}
        for position in range(config.keywords_per_query):
            token_counter += 1
            keyword = f"qk{token_counter}"
            relation, attribute = _PLANT_SITES[
                (query_index + position) % len(_PLANT_SITES)
            ]
            available = database.count(relation)
            count = min(config.matches_per_keyword, available)
            labels = plant(
                database,
                keyword,
                relation,
                attribute,
                count,
                seed=rng.randrange(1 << 30),
            )
            keywords.append(keyword)
            planted[keyword] = tuple(labels)
        queries.append(
            WorkloadQuery(
                text=" ".join(keywords),
                keywords=tuple(keywords),
                planted_labels=planted,
            )
        )
    return queries
