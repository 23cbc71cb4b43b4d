"""Differential tests: the planner/executor pipeline vs the legacy paths.

``legacy_search`` below is a verbatim port of the pre-pipeline
``KeywordSearchEngine.search`` / ``_search_or`` code (full enumeration
through ``find_connections`` / ``find_joining_networks``, ranked with
``rank_connections``, cut after sorting).  The pipeline must reproduce
it bit for bit — answers, order, scores, ranks and budget errors — in
full mode, and in pushdown mode whenever no budget error interferes.
"""

from itertools import combinations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.executor import (
    ExecutionStats,
    Executor,
    SharedEnumerations,
    SharedStream,
)
from repro.core.matching import match_keywords
from repro.core.plan import plan_query
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
    WeightedRanker,
    rank_connections,
)
from repro.core.search import (
    JoiningNetwork,
    SearchLimits,
    SingleTupleAnswer,
    find_connections,
    find_joining_networks,
)
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.errors import SearchLimitError

RANKERS = [
    ClosenessRanker(),
    RdbLengthRanker(),
    ErLengthRanker(),
    InstanceAmbiguityRanker(),
    WeightedRanker(),
]


def legacy_search(engine, query, ranker=None, limits=None, top_k=None,
                  semantics="and"):
    """The pre-pipeline engine, ported verbatim (enumerate, sort, cut)."""
    ranker = ranker or engine.ranker
    limits = limits or engine.limits
    matches = engine.match(query)

    if semantics == "or":
        return _legacy_search_or(engine, matches, ranker, limits, top_k)
    if any(match.is_empty for match in matches):
        return []

    if len(matches) == 1:
        answers = [
            SingleTupleAnswer(
                engine.data_graph, tid, frozenset((matches[0].keyword,))
            )
            for tid in matches[0].tuple_ids
        ]
    elif len(matches) == 2:
        answers = list(
            find_connections(
                engine.data_graph,
                matches,
                limits,
                core=engine.core,
                cache=engine.traversal_cache,
            )
        )
    else:
        answers = list(
            find_joining_networks(
                engine.data_graph,
                matches,
                limits,
                core=engine.core,
                cache=engine.traversal_cache,
            )
        )

    ranked = rank_connections(answers, ranker)
    if top_k is not None:
        ranked = ranked[:top_k]
    return [(answer.render(), score, position + 1)
            for position, (answer, score) in enumerate(ranked)]


def _legacy_search_or(engine, matches, ranker, limits, top_k):
    populated = [match for match in matches if not match.is_empty]
    if not populated:
        return []

    answers = []
    seen_singles = {}
    for match in populated:
        for tid in match.tuple_ids:
            seen_singles.setdefault(tid, set()).add(match.keyword)
    for tid, keywords in seen_singles.items():
        answers.append(
            SingleTupleAnswer(engine.data_graph, tid, frozenset(keywords))
        )
    if len(populated) >= 2:
        for first, second in combinations(populated, 2):
            answers.extend(
                find_connections(
                    engine.data_graph,
                    (first, second),
                    limits,
                    include_single_tuples=False,
                    core=engine.core,
                    cache=engine.traversal_cache,
                )
            )
    if len(populated) >= 3:
        answers.extend(
            find_joining_networks(
                engine.data_graph,
                populated,
                limits,
                core=engine.core,
                cache=engine.traversal_cache,
            )
        )

    def coverage(answer):
        if isinstance(answer, (SingleTupleAnswer, JoiningNetwork)):
            return len(answer.covered_keywords)
        covered = set()
        for keywords in answer.keyword_matches.values():
            covered |= keywords
        return len(covered)

    scored = [
        (answer, (-coverage(answer),) + ranker.score(answer))
        for answer in answers
    ]
    scored.sort(key=lambda pair: (pair[1], pair[0].render()))
    if top_k is not None:
        scored = scored[:top_k]
    return [(answer.render(), score, position + 1)
            for position, (answer, score) in enumerate(scored)]


def pipeline_search(engine, query, pushdown=None, **options):
    results = engine.search(query, pushdown=pushdown, **options)
    return [(r.render(), r.score, r.rank) for r in results]


QUERIES = ["XML", "Smith XML", "Smith Alice Cs", "Smith unicorn", "Smith"]
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)


class TestBitIdentityCompany:
    @pytest.mark.parametrize("semantics", ["and", "or"])
    @pytest.mark.parametrize("ranker", RANKERS, ids=lambda r: r.name)
    @pytest.mark.parametrize(
        "core", ["csr", "reference"], ids=["fast", "networkx"]
    )
    def test_full_mode_matches_legacy(self, company_db, semantics, ranker, core):
        engine = KeywordSearchEngine(company_db, core=core)
        for query in QUERIES:
            for top_k in (None, 1, 3, 100):
                expected = legacy_search(
                    engine, query, ranker=ranker, limits=LIMITS,
                    top_k=top_k, semantics=semantics,
                )
                actual = pipeline_search(
                    engine, query, pushdown=False, ranker=ranker,
                    limits=LIMITS, top_k=top_k, semantics=semantics,
                )
                assert actual == expected, (query, top_k)

    @pytest.mark.parametrize("semantics", ["and", "or"])
    @pytest.mark.parametrize("ranker", RANKERS, ids=lambda r: r.name)
    def test_pushdown_matches_legacy(self, engine, semantics, ranker):
        for query in QUERIES:
            for top_k in (1, 2, 5, 100):
                expected = legacy_search(
                    engine, query, ranker=ranker, limits=LIMITS,
                    top_k=top_k, semantics=semantics,
                )
                actual = pipeline_search(
                    engine, query, ranker=ranker, limits=LIMITS,
                    top_k=top_k, semantics=semantics,
                )
                assert actual == expected, (query, top_k)

    def test_forced_streaming_without_cut_matches_legacy(self, engine):
        for semantics in ("and", "or"):
            for query in QUERIES:
                expected = legacy_search(
                    engine, query, limits=LIMITS, semantics=semantics
                )
                actual = pipeline_search(
                    engine, query, pushdown=True, limits=LIMITS,
                    semantics=semantics,
                )
                assert actual == expected, (query, semantics)


@pytest.fixture(scope="module")
def synthetic_engine():
    database = generate_company_like(
        SyntheticConfig(
            departments=8,
            projects_per_department=3,
            employees_per_department=8,
            works_on_per_employee=3,
            seed=17,
        )
    )
    workload = generate_workload(
        database,
        WorkloadConfig(queries=4, keywords_per_query=2,
                       matches_per_keyword=3, seed=13),
    )
    return KeywordSearchEngine(database), [w.text for w in workload]


class TestBitIdentitySynthetic:
    def test_top_k_pushdown_matches_legacy(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=5)
        for text in texts:
            for top_k in (1, 3, 10):
                expected = legacy_search(
                    engine, text, limits=limits, top_k=top_k
                )
                actual = pipeline_search(
                    engine, text, limits=limits, top_k=top_k
                )
                assert actual == expected, (text, top_k)

    def test_pushdown_enumerates_less(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=6)
        pushed = full = 0
        for text in texts:
            engine.search(text, top_k=2, limits=limits)
            assert engine.last_stats.pushdown
            pushed += engine.last_stats.candidates
            engine.search(text, top_k=2, limits=limits, pushdown=False)
            assert not engine.last_stats.pushdown
            full += engine.last_stats.candidates
        assert pushed < full

    def test_or_three_keywords_matches_legacy(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=4, max_tuples=4)
        query = texts[0] + " " + texts[1].split()[0]
        for top_k in (None, 2, 5):
            expected = legacy_search(
                engine, query, limits=limits, top_k=top_k, semantics="or"
            )
            actual = pipeline_search(
                engine, query, limits=limits, top_k=top_k, semantics="or"
            )
            assert actual == expected, top_k


class TestBudgetBehaviour:
    def test_full_mode_budget_error_identical_to_legacy(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=6, max_paths_per_pair=5)
        with pytest.raises(SearchLimitError) as legacy_error:
            legacy_search(engine, texts[0], limits=limits)
        with pytest.raises(SearchLimitError) as pipeline_error:
            engine.search(texts[0], limits=limits)
        assert str(pipeline_error.value) == str(legacy_error.value)
        assert pipeline_error.value.context == legacy_error.value.context

    def test_pushdown_skips_budget_beyond_the_cut(self, synthetic_engine):
        """Early termination may never reach a budget full mode exceeds."""
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=6, max_paths_per_pair=5)
        with pytest.raises(SearchLimitError):
            engine.search(texts[0], top_k=2, limits=limits, pushdown=False)
        results = engine.search(texts[0], top_k=2, limits=limits)
        reference = engine.search(
            texts[0], top_k=2, limits=SearchLimits(max_rdb_length=6)
        )
        assert [(r.render(), r.score) for r in results] == [
            (r.render(), r.score) for r in reference
        ]

    def test_pushdown_raises_when_budget_inside_consumed_prefix(
        self, synthetic_engine
    ):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=6, max_paths_per_pair=1)
        with pytest.raises(SearchLimitError):
            engine.search(texts[0], top_k=1000, limits=limits)


class TestStreaming:
    def test_stream_equals_search(self, engine):
        for semantics in ("and", "or"):
            for query in ("Smith XML", "Smith Alice Cs"):
                streamed = [
                    (r.render(), r.score, r.rank)
                    for r in engine.search_stream(
                        query, limits=LIMITS, semantics=semantics
                    )
                ]
                assert streamed == pipeline_search(
                    engine, query, limits=LIMITS, semantics=semantics
                )

    def test_stream_is_lazy_under_top_k(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=6)
        engine.search(texts[0], limits=limits, pushdown=False)
        full_candidates = engine.last_stats.candidates
        stream = engine.search_stream(texts[0], top_k=1, limits=limits)
        first = next(stream)
        assert engine.last_stats.candidates < full_candidates
        stream.close()
        reference = engine.search(texts[0], top_k=1, limits=limits)
        assert first.render() == reference[0].render()


class TestSharedEnumerations:
    def test_shared_stream_replays_items(self):
        calls = []

        def factory():
            calls.append(1)
            yield from [10, 20, 30]

        stream = SharedStream(factory)
        assert list(stream) == [10, 20, 30]
        assert list(stream) == [10, 20, 30]
        assert len(calls) == 1
        assert stream.consumers == 2
        assert stream.produced == 3

    def test_shared_stream_interleaved_consumers(self):
        stream = SharedStream(lambda: iter(range(5)))
        one, two = iter(stream), iter(stream)
        assert next(one) == 0
        assert next(two) == 0
        assert next(two) == 1
        assert list(one) == [1, 2, 3, 4]
        assert list(two) == [2, 3, 4]

    def test_shared_stream_replays_errors_at_the_same_point(self):
        def failing():
            yield 1
            yield 2
            raise SearchLimitError("budget", max_paths=2)

        stream = SharedStream(failing)
        for __ in range(2):
            seen = []
            with pytest.raises(SearchLimitError):
                for item in stream:
                    seen.append(item)
            assert seen == [1, 2]
        assert stream.produced == 2

    def test_partial_consumer_extends_later(self):
        produced = []

        def factory():
            for value in range(4):
                produced.append(value)
                yield value

        stream = SharedStream(factory)
        first = iter(stream)
        assert next(first) == 0
        assert produced == [0]
        assert list(stream) == [0, 1, 2, 3]
        assert produced == [0, 1, 2, 3]

    def test_batch_shares_identical_subplans(self, synthetic_engine):
        engine, texts = synthetic_engine
        limits = SearchLimits(max_rdb_length=5)
        # Same keywords, different spellings: distinct query texts whose
        # pair sub-plans name the same tuple pairs.
        batch = [texts[0], texts[0].upper(), texts[1]]
        batched = engine.search_batch(batch, limits=limits)
        assert engine.last_shared.hits > 0
        for text, results in zip(batch, batched):
            individual = engine.search(text, limits=limits)
            assert [(r.render(), r.score) for r in results] == [
                (r.render(), r.score) for r in individual
            ]

    def test_executor_reuses_streams_within_a_query(self, company_db):
        engine = KeywordSearchEngine(company_db)
        shared = SharedEnumerations()
        executor = Executor(
            engine.data_graph,
            cache=engine.traversal_cache,
            shared=shared,
        )
        plan = plan_query(
            match_keywords(engine.index, ("Smith", "XML"))
        )
        executor.run(plan, ClosenessRanker(), LIMITS)
        first_misses = shared.misses
        executor.run(plan, ClosenessRanker(), LIMITS)
        assert shared.misses == first_misses
        assert shared.hits >= first_misses


class TestStats:
    def test_candidates_counted_in_full_mode(self, engine):
        results = engine.search("Smith XML", limits=LIMITS)
        assert engine.last_stats.candidates == len(results)
        assert engine.last_stats.emitted == len(results)
        assert not engine.last_stats.pushdown

    def test_emitted_respects_cut(self, engine):
        engine.search("Smith XML", top_k=2, limits=LIMITS)
        assert engine.last_stats.emitted == 2
        assert engine.last_stats.pushdown

    def test_top_k_zero_identical_in_both_modes(self, engine):
        assert engine.search("Smith XML", top_k=0, limits=LIMITS) == []
        assert engine.search(
            "Smith XML", top_k=0, limits=LIMITS, pushdown=False
        ) == []

    def test_empty_stream_still_updates_stats(self, engine):
        engine.search("Smith XML", limits=LIMITS)  # plant non-run stats
        assert list(engine.search_stream("unicorn rainbow", top_k=2)) == []
        assert engine.last_stats.pushdown
        assert engine.last_stats.emitted == 0
        assert engine.last_stats.candidates == 0


class TestStatsMerge:
    """Parallel workers complete in arbitrary order; aggregation must not
    care (every field folds with a commutative, associative operation)."""

    @staticmethod
    def _samples():
        return [
            ExecutionStats(candidates=3, emitted=2, pushdown=False, shard_skips=1),
            ExecutionStats(candidates=0, emitted=0, pushdown=True, shard_skips=0),
            ExecutionStats(candidates=7, emitted=7, pushdown=False, shard_skips=12),
            ExecutionStats(candidates=1, emitted=1, pushdown=True, shard_skips=4),
        ]

    def test_merge_is_commutative_and_deterministic(self):
        from itertools import permutations

        totals = set()
        for order in permutations(range(4)):
            samples = self._samples()
            merged = ExecutionStats()
            for index in order:
                merged.merge(samples[index])
            totals.add(
                (merged.candidates, merged.emitted, merged.pushdown,
                 merged.shard_skips)
            )
        assert totals == {(11, 10, True, 17)}

    def test_merge_is_associative(self):
        a, b, c, __ = self._samples()
        left = ExecutionStats()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        ab = ExecutionStats()
        ab.merge(a)
        ab.merge(b)
        right = ExecutionStats()
        right.merge(ab)
        right.merge(c)
        assert (left.candidates, left.emitted, left.pushdown, left.shard_skips) == (
            right.candidates, right.emitted, right.pushdown, right.shard_skips
        )

    def test_every_field_participates_in_merge(self):
        """A field added to ExecutionStats without a merge rule would
        silently vanish from parallel aggregation — catch it here."""
        from dataclasses import fields

        merged = ExecutionStats()
        merged.merge(
            ExecutionStats(
                candidates=1, emitted=1, pushdown=True, shard_skips=1, pruned=1
            )
        )
        for field in fields(ExecutionStats):
            default = field.default
            assert getattr(merged, field.name) != default, field.name
