"""Observability properties: observe-only, and deterministic shapes.

Two contracts from DESIGN.md's observability section:

* enabling tracing never changes answers, their order, scores,
  ranks or ``SearchLimitError`` points — checked differentially, and
  against :func:`repro.oracle.search` run under observation, across
  semantics on hypothesis-driven instances;
* a fixed-seed workload traced twice produces identical trace *shapes*
  (names, tags, counters, child order — everything but timings) and
  identical engine counter values, which tracing does not move either;
  durations are explicitly exempt.
"""

from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import SearchLimitError
from repro.oracle import search as oracle_search

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=2),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=2, max_value=3),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=30),
)

LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5, max_paths_per_pair=50)
QUERIES = ["kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha", "zzmiss"]


def planted(config):
    database = generate_tenants(config, tenants=2)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2,
          seed=config.seed + 1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 2, seed=config.seed + 2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 2,
          seed=config.seed + 3)
    return database


def outcomes(search, semantics):
    collected = []
    for query in QUERIES:
        try:
            results = search(query, limits=LIMITS, semantics=semantics)
        except SearchLimitError as error:
            collected.append(("error", str(error)))
        else:
            collected.append(
                [(r.render(), r.score, r.rank) for r in results]
            )
    return collected


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs, semantics=st.sampled_from(["and", "or"]))
def test_observability_never_changes_answers(config, semantics):
    database = planted(config)
    plain = outcomes(KeywordSearchEngine(database).search, semantics)
    obs.set_enabled(True)
    try:
        observed = outcomes(KeywordSearchEngine(database).search, semantics)
        oracle = outcomes(partial(oracle_search, database), semantics)
    finally:
        obs.set_enabled(False)
        obs.reset()
    assert observed == plain == oracle


def _run(database, traced=True):
    """One full workload: per-query trace shapes (when traced) and the
    engine's counter values."""
    obs.reset()
    obs.set_enabled(traced)
    try:
        engine = KeywordSearchEngine(database)
        shapes = []
        for query in QUERIES:
            try:
                engine.search(query, limits=LIMITS)
            except SearchLimitError:
                pass
            if traced:
                shapes.append(engine.last_trace.shape())
    finally:
        obs.set_enabled(False)
        obs.reset()
    return shapes, engine.metrics_snapshot()


def test_fixed_seed_workload_is_shape_and_counter_deterministic():
    database = planted(SyntheticConfig(
        departments=2,
        projects_per_department=2,
        employees_per_department=3,
        works_on_per_employee=2,
        seed=17,
    ))
    first = _run(database)
    second = _run(database)
    assert first[0] == second[0], "trace shapes diverged between runs"
    assert first[1] == second[1], "counter values diverged between runs"
    assert _run(database, traced=False)[1] == first[1], "tracing moved a counter"
    # and the workload actually exercised the instrumented layers
    assert first[1]["result_cache.misses"] == len(QUERIES)
    assert first[1]["traversal_cache.misses"] > 0
    assert "csr.compactions" in first[1]
