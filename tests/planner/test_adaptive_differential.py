"""Differential oracle: adaptive planning is answer-invisible.

The adaptive planner may only change *how hard* the engine works —
enumeration order inside the pushdown heaps, provably-empty units
skipped, batches routed by cost.  Every answer, score and rank must
stay bit-identical to the static planner across cores, semantics,
top-k cuts, snapshot restore and the worker pool.
"""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import (
    SkewedWorkloadConfig,
    generate_skewed_workload,
)
from repro.planner import route_by_cost

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)


def snap(results):
    return [(r.render(), r.score, r.rank) for r in results]


@pytest.fixture(scope="module")
def skewed():
    """A skewed synthetic database plus its workload queries."""
    database = generate_company_like(
        SyntheticConfig(
            departments=4,
            projects_per_department=2,
            employees_per_department=5,
            works_on_per_employee=2,
            dependents_per_employee=0.5,
            seed=11,
        )
    )
    queries = generate_skewed_workload(
        database,
        SkewedWorkloadConfig(queries=8, keyword_pool=6, max_matches=8,
                             seed=5),
    )
    return database, [query.text for query in queries]


@pytest.mark.parametrize("core", ["csr", "reference"])
@pytest.mark.parametrize("semantics", ["and", "or"])
def test_adaptive_matches_static_across_cores(skewed, core, semantics):
    database, texts = skewed
    adaptive = KeywordSearchEngine(database, core=core, adaptive=True)
    static = KeywordSearchEngine(database, core=core, adaptive=False)
    assert adaptive.adaptive and not static.adaptive
    for text in texts[:4]:
        for top_k in (None, 3):
            expected = snap(static.search(
                text, limits=_LIMITS, top_k=top_k, semantics=semantics))
            observed = snap(adaptive.search(
                text, limits=_LIMITS, top_k=top_k, semantics=semantics))
            assert observed == expected


def test_adaptive_prunes_and_enumerates_less(skewed):
    """The pushdown leg: at least 30% fewer kernel enumerations (26 vs
    63 units on this fixture), identical answers."""
    database, texts = skewed
    adaptive = KeywordSearchEngine(database, adaptive=True)
    static = KeywordSearchEngine(database, adaptive=False)
    pruned = 0
    for text in texts:
        expected = snap(static.search(text, limits=_LIMITS, top_k=2))
        observed = snap(adaptive.search(text, limits=_LIMITS, top_k=2))
        assert observed == expected
        pruned += adaptive.last_stats.pruned
    assert pruned > 0, "skewed workload should skip provably-empty units"
    enumerated = (adaptive.traversal_cache.paths_enumerated
                  + adaptive.traversal_cache.trees_enumerated)
    baseline = (static.traversal_cache.paths_enumerated
                + static.traversal_cache.trees_enumerated)
    assert enumerated * 10 <= baseline * 7, (enumerated, baseline)


def test_cost_routing_makespan_not_worse_than_contiguous():
    """LPT routing of a ``jobs=4`` full-enumeration batch by
    ``engine.query_cost`` achieves a makespan (per-worker sum of the
    candidates each query built) no worse than contiguous chunking:
    584 vs 724 on this workload.

    The workload is the larger skewed one on purpose: on the module's
    ``skewed`` fixture cost routing is worse than contiguous chunking
    (108 vs 77)."""
    database = generate_company_like(
        SyntheticConfig(
            departments=8,
            projects_per_department=3,
            employees_per_department=8,
            works_on_per_employee=2,
            dependents_per_employee=0.5,
            seed=11,
        )
    )
    texts = [query.text for query in generate_skewed_workload(
        database,
        SkewedWorkloadConfig(queries=30, keyword_pool=10, max_matches=16,
                             seed=5),
    )][:20]
    jobs = 4
    engine = KeywordSearchEngine(database, adaptive=True)
    work = []
    for text in texts:
        engine.search(text, limits=_LIMITS)
        work.append(max(1, engine.last_stats.candidates))

    def makespan(assignment):
        return max(sum(work[query] for query in chunk) for chunk in assignment)

    routed = route_by_cost([engine.query_cost(text) for text in texts], jobs)
    size = -(-len(texts) // jobs)
    contiguous = [range(start, min(start + size, len(texts)))
                  for start in range(0, len(texts), size)]
    assert makespan(routed) <= makespan(contiguous), (
        makespan(routed), makespan(contiguous))


def test_adaptive_matches_static_through_snapshot(skewed, tmp_path):
    database, texts = skewed
    origin = KeywordSearchEngine(database, adaptive=True)
    for text in texts[:4]:
        origin.search(text, limits=_LIMITS, top_k=3)
    path = str(tmp_path / "skewed.snap")
    origin.save(path)

    restored = KeywordSearchEngine.open(path, adaptive=True)
    static = KeywordSearchEngine.open(path, adaptive=False)
    try:
        for text in texts:
            assert snap(restored.search(text, limits=_LIMITS, top_k=3)) \
                == snap(static.search(text, limits=_LIMITS, top_k=3))
    finally:
        restored.close()
        static.close()


def test_adaptive_matches_static_through_pool(skewed, tmp_path):
    database, texts = skewed
    origin = KeywordSearchEngine(database)
    origin.save(str(tmp_path / "pool.snap"))
    adaptive = KeywordSearchEngine.open(str(tmp_path / "pool.snap"),
                                        adaptive=True)
    static = KeywordSearchEngine.open(str(tmp_path / "pool.snap"),
                                      adaptive=False)
    try:
        batch = texts[:6]
        expected = static.search_batch(batch, limits=_LIMITS, top_k=3)
        observed = adaptive.search_batch(batch, limits=_LIMITS, top_k=3,
                                         jobs=2)
        assert [snap(results) for results in observed] \
            == [snap(results) for results in expected]
    finally:
        adaptive.close_pool()
        adaptive.close()
        static.close()
