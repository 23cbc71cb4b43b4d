"""Differential oracle: adaptive planning is answer-invisible.

The adaptive planner may only change *how hard* the engine works —
enumeration order inside the pushdown heaps, provably-empty units
skipped.  Every answer, score and rank must stay bit-identical to the
static planner and to :func:`repro.oracle.search` across semantics,
top-k cuts, snapshot restore and the worker pool.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.oracle import search as oracle_search

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)


def snap(results):
    return [(r.render(), r.score, r.rank) for r in results]


@pytest.fixture(scope="module")
def skewed():
    """A skewed synthetic database plus its queries."""
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
    # A keyword's match count falls with its rank, and the popular (heavy)
    # keywords co-occur most often in the queries.
    for keyword, relation, attribute, count, seed in (
        ("sk1", "DEPARTMENT", "D_DESCRIPTION", 4, 548563996),
        ("sk2", "PROJECT", "P_DESCRIPTION", 7, 769949150),
        ("sk3", "EMPLOYEE", "L_NAME", 5, 62288247),
        ("sk4", "DEPENDENT", "DEPENDENT_NAME", 2, 999917037),
        ("sk5", "DEPARTMENT", "D_DESCRIPTION", 2, 534836507),
        ("sk6", "PROJECT", "P_DESCRIPTION", 1, 111354012),
    ):
        plant(database, keyword, relation, attribute, count, seed=seed)
    return database, ["sk5 sk1", "sk2 sk1", "sk2 sk1", "sk1 sk5",
                      "sk4 sk1", "sk4 sk1", "sk3 sk1", "sk1 sk5"]


@pytest.mark.parametrize("core", ["csr", "reference"])
@pytest.mark.parametrize("semantics", ["and", "or"])
def test_adaptive_matches_static_across_cores(skewed, core, semantics):
    """``core`` names the kernels of the static side: a static csr
    engine, or :func:`repro.oracle.search` on the networkx kernels."""
    database, texts = skewed
    adaptive = KeywordSearchEngine(database, adaptive=True)
    assert adaptive.adaptive
    if core == "csr":
        static = KeywordSearchEngine(database, adaptive=False)
        static_search = static.search
    else:
        static_search = partial(oracle_search, database)
    for text in texts[:4]:
        for top_k in (None, 3):
            expected = snap(static_search(
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
