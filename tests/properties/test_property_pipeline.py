"""Property-based tests: the query pipeline is bit-identical to legacy.

Hypothesis drives synthetic database shapes, query shapes (AND/OR, one,
two and three keywords) and top-k cuts; on every instance the
planner/executor pipeline — full mode, pushdown mode and the streaming
entry point — must reproduce the legacy enumerate-sort-cut results
exactly: answers, order, scores and ranks — and a top-k cut must equal
:func:`repro.oracle.search`'s.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.oracle import search as oracle_search

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=3),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=4),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=50),
)

rankers = st.sampled_from(
    [ClosenessRanker(), RdbLengthRanker(), ErLengthRanker(),
     InstanceAmbiguityRanker()]
)

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)


def planted_engine(config):
    database = generate_company_like(config)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(2, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(2, database.count("EMPLOYEE")), seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION",
          min(2, database.count("PROJECT")), seed=3)
    return KeywordSearchEngine(database)


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


class TestPushdownIdentity:
    @relaxed
    @given(configs, rankers, st.integers(min_value=1, max_value=8),
           st.sampled_from(["and", "or"]))
    def test_top_k_identical_to_full_enumeration(self, config, ranker, k,
                                                 semantics):
        engine = planted_engine(config)
        for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha"):
            pushed = engine.search(
                query, ranker=ranker, limits=_LIMITS, top_k=k,
                semantics=semantics,
            )
            full = engine.search(
                query, ranker=ranker, limits=_LIMITS, top_k=k,
                semantics=semantics, pushdown=False,
            )
            assert rendered(pushed) == rendered(full)

    @relaxed
    @given(configs, st.sampled_from(["and", "or"]))
    def test_forced_streaming_identical_without_cut(self, config, semantics):
        engine = planted_engine(config)
        for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
            streamed = engine.search(
                query, limits=_LIMITS, semantics=semantics, pushdown=True
            )
            full = engine.search(
                query, limits=_LIMITS, semantics=semantics, pushdown=False
            )
            assert rendered(streamed) == rendered(full)

    @relaxed
    @given(configs, st.integers(min_value=1, max_value=5))
    def test_both_cores_agree_under_pushdown(self, config, k):
        engine = planted_engine(config)
        for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
            assert rendered(
                engine.search(query, limits=_LIMITS, top_k=k)
            ) == rendered(
                oracle_search(engine.database, query, limits=_LIMITS, top_k=k)
            )


class TestStreamingIdentity:
    @relaxed
    @given(configs, st.sampled_from(["and", "or"]))
    def test_stream_equals_search(self, config, semantics):
        engine = planted_engine(config)
        for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
            streamed = list(
                engine.search_stream(query, limits=_LIMITS,
                                     semantics=semantics)
            )
            materialised = engine.search(
                query, limits=_LIMITS, semantics=semantics
            )
            assert rendered(streamed) == rendered(materialised)


class TestBatchSharing:
    @relaxed
    @given(configs)
    def test_batch_with_shared_subplans_matches_sequential(self, config):
        engine = planted_engine(config)
        # Case variants and overlapping keyword sets share enumeration
        # sub-plans across distinct query texts.
        queries = ["kwalpha kwbeta", "KWALPHA KWBETA",
                   "kwalpha kwbeta kwgamma", "kwbeta kwgamma"]
        batched = engine.search_batch(queries, limits=_LIMITS)
        sequential = [engine.search(query, limits=_LIMITS)
                      for query in queries]
        assert [rendered(results) for results in batched] == [
            rendered(results) for results in sequential
        ]

    @relaxed
    @given(configs, st.integers(min_value=1, max_value=5))
    def test_batch_top_k_matches_sequential(self, config, k):
        engine = planted_engine(config)
        queries = ["kwalpha kwbeta", "kwalpha KWBETA"]
        batched = engine.search_batch(queries, limits=_LIMITS, top_k=k)
        sequential = [engine.search(query, limits=_LIMITS, top_k=k)
                      for query in queries]
        assert [rendered(results) for results in batched] == [
            rendered(results) for results in sequential
        ]


class TestOrSemanticsInvariants:
    @relaxed
    @given(configs)
    def test_or_results_superset_coverage(self, config):
        """OR results are coverage-sorted and include every AND answer's
        tuple set."""
        engine = planted_engine(config)
        and_results = engine.search("kwalpha kwbeta", limits=_LIMITS)
        or_results = engine.search(
            "kwalpha kwbeta", semantics="or", limits=_LIMITS
        )
        coverages = [-r.score[0] for r in or_results]
        assert coverages == sorted(coverages, reverse=True)
        and_sets = {frozenset(r.answer.tuple_ids()) for r in and_results}
        or_sets = {frozenset(r.answer.tuple_ids()) for r in or_results}
        assert and_sets <= or_sets
