"""Differential tests: the planner/executor pipeline vs the legacy paths.

``legacy_search`` below is a verbatim port of the pre-pipeline
``KeywordSearchEngine.search`` / ``_search_or`` code (full enumeration
through ``find_connections`` and the executor's network source, ranked
with ``rank_connections``, cut after sorting).  The pipeline must reproduce
it bit for bit — answers, order, scores, ranks and budget errors — in
full mode, and in pushdown mode whenever no budget error interferes.
"""

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.executor import ExecutionStats
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
    ShapeFacts,
    rank_connections,
    shape_facts,
)
from repro.core.search import (
    JoiningNetwork,
    SearchLimits,
    SingleTupleAnswer,
    find_connections,
)
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.errors import QueryError, SearchLimitError
from repro.oracle import search as oracle_search
from network_source import joining_networks

@dataclass(frozen=True)
class WeightedShapeRanker:
    """A user-defined schema-level ranker: one weighted sum of all three
    shape facts, so the executor serves it from the shape memo."""

    name: str = "weighted"
    schema_level = True

    def score(self, answer):
        return self.score_shape(shape_facts(answer))

    def score_shape(self, facts: ShapeFacts):
        return (
            2.0 * facts.loose_joints + facts.er_length
            + 0.5 * facts.rdb_length,
        )


RANKERS = [
    ClosenessRanker(),
    RdbLengthRanker(),
    ErLengthRanker(),
    InstanceAmbiguityRanker(),
    WeightedShapeRanker(),
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
                cache=engine.traversal_cache,
            )
        )
    else:
        answers = list(
            joining_networks(
                engine.data_graph,
                matches,
                limits,
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
                    cache=engine.traversal_cache,
                )
            )
    if len(populated) >= 3:
        answers.extend(
            joining_networks(
                engine.data_graph,
                populated,
                limits,
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
        "pipeline", ["engine", "oracle"], ids=["fast", "networkx"]
    )
    def test_full_mode_matches_legacy(
        self, company_db, semantics, ranker, pipeline
    ):
        """The pipeline runs in the engine (csr kernels) or in
        :func:`repro.oracle.search` (networkx kernels)."""
        engine = KeywordSearchEngine(company_db)
        search = (
            engine.search if pipeline == "engine"
            else partial(oracle_search, company_db)
        )
        for query in QUERIES:
            for top_k in (None, 1, 3, 100):
                expected = legacy_search(
                    engine, query, ranker=ranker, limits=LIMITS,
                    top_k=top_k, semantics=semantics,
                )
                actual = [
                    (r.render(), r.score, r.rank)
                    for r in search(
                        query, pushdown=False, ranker=ranker, limits=LIMITS,
                        top_k=top_k, semantics=semantics,
                    )
                ]
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


SYNTHETIC = SyntheticConfig(
    departments=8,
    projects_per_department=3,
    employees_per_department=8,
    works_on_per_employee=3,
    seed=17,
)


#: Keywords planted into three tuples each of the SYNTHETIC database:
#: ``(keyword, relation, attribute, plant seed)``.
SYNTHETIC_PLANTS = (
    ("qk1", "DEPARTMENT", "D_DESCRIPTION", 556216509),
    ("qk2", "PROJECT", "P_DESCRIPTION", 624397381),
    ("qk3", "PROJECT", "P_DESCRIPTION", 398839630),
    ("qk4", "EMPLOYEE", "L_NAME", 495120841),
    ("qk5", "EMPLOYEE", "L_NAME", 316023504),
    ("qk6", "DEPENDENT", "DEPENDENT_NAME", 483533712),
    ("qk7", "DEPENDENT", "DEPENDENT_NAME", 402382974),
    ("qk8", "DEPARTMENT", "D_DESCRIPTION", 279630350),
)


@pytest.fixture(scope="module")
def synthetic_engine():
    database = generate_company_like(SYNTHETIC)
    for keyword, relation, attribute, seed in SYNTHETIC_PLANTS:
        plant(database, keyword, relation, attribute, 3, seed=seed)
    texts = ["qk1 qk2", "qk3 qk4", "qk5 qk6", "qk7 qk8"]
    return KeywordSearchEngine(database), texts


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
        """Top-k pushdown builds at least 2x fewer candidates than full
        enumeration of the same queries (95 vs 271 on this fixture)."""
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
        assert full >= 2 * pushed, (pushed, full)

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


class TestPairBoundRadius:
    def test_pair_paths_never_sweep_past_half_the_budget(
        self, synthetic_engine, monkeypatch
    ):
        """Two-keyword reads meet in the middle: every row a csr engine
        holds after AND and OR texts, top-k and full mode, reaches at
        most ⌈B/2⌉ levels, the prefetch still runs as a block, answers
        equal :func:`repro.oracle.search`'s, ``candidates`` / ``emitted``
        a static engine's (it prunes nothing), and ``pruned`` equals that
        of pair bounds read off unbounded rows."""
        from repro.core.executor import Executor
        from repro.graph.csr import _UNREACHABLE, FrozenGraph

        engine, texts = synthetic_engine
        database = engine.database
        blocks = []
        distances_block = FrozenGraph.distances_block

        def counted_block(self, nodes, radius=None):
            blocks.append(radius)
            return distances_block(self, nodes, radius)

        def exact_bounds(self, first, second, limits):
            frozen = self.cache.frozen()
            for source in first:
                for target in second:
                    if source == target:
                        continue
                    row, __ = frozen._bfs_row_scalar(frozen.node_of(target))
                    depth = row[frozen.node_of(source)]
                    yield source, target, (
                        depth if depth <= limits.max_rdb_length else _UNREACHABLE
                    )

        def outcome(engine, text, **options):
            results = [
                (r.render(), r.score, r.rank)
                for r in engine.search(text, **options)
            ]
            stats = engine.last_stats
            return results, stats.pruned, stats.candidates, stats.emitted

        monkeypatch.setattr(FrozenGraph, "distances_block", counted_block)
        pruned = 0
        for budget in (4, 5):
            csr, exact = (
                KeywordSearchEngine(database, result_cache_entries=0)
                for __ in range(2)
            )
            static = KeywordSearchEngine(
                database, adaptive=False, result_cache_entries=0
            )
            limits = SearchLimits(max_rdb_length=budget)
            for text in texts:
                for semantics in ("and", "or"):
                    for mode in ({"top_k": 3}, {"pushdown": False}):
                        options = dict(mode, limits=limits, semantics=semantics)
                        actual = outcome(csr, text, **options)
                        expected = outcome(static, text, **options)
                        with monkeypatch.context() as patch:
                            patch.setattr(Executor, "_pair_bounds", exact_bounds)
                            oracle = outcome(exact, text, **options)
                        assert actual[0] == expected[0] == oracle[0] == [
                            (r.render(), r.score, r.rank)
                            for r in oracle_search(database, text, **options)
                        ]
                        assert actual[2:] == expected[2:] == oracle[2:]
                        assert actual[1] == oracle[1]
                        assert expected[1] == 0
                        pruned += actual[1]
            held = csr.traversal_cache.frozen()._distances.values()
            assert held and {radius for __, radius, *___ in held} == {
                budget - budget // 2
            }
        assert blocks and set(blocks) == {2, 3}
        assert pruned, "no pair was proven out of budget"


@pytest.fixture(scope="module")
def planted_synthetic():
    """The synthetic company database with a rare keyword in two
    departments and a common one in five employees."""
    database = generate_company_like(SYNTHETIC)
    plant(database, "kwrare", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwcommon", "EMPLOYEE", "L_NAME", 5, seed=2)
    return database


class TestPairSideRule:
    @pytest.mark.parametrize("text", ["kwrare kwcommon", "kwcommon kwrare"])
    def test_rows_go_to_the_shorter_match_list(
        self, planted_synthetic, monkeypatch, text
    ):
        """A pair op prefetches its ⌈B/2⌉ rows for the shorter match
        list's tuples only, whichever keyword comes first; ``pruned``
        equals the pair bounds read off unbounded rows, and the answers
        equal :func:`repro.oracle.search`'s."""
        from repro.graph.csr import FrozenGraph

        database = planted_synthetic
        blocks = []
        distances_block = FrozenGraph.distances_block

        def counted_block(self, nodes, radius=None):
            blocks.append((sorted(nodes), radius))
            return distances_block(self, nodes, radius)

        monkeypatch.setattr(FrozenGraph, "distances_block", counted_block)
        for budget in (4, 5):
            engine = KeywordSearchEngine(database, result_cache_entries=0)
            frozen = engine.traversal_cache.frozen()
            first, second = (match.tuple_ids for match in engine.match(text))
            shorter = min(second, first, key=len)
            options = dict(top_k=3, limits=SearchLimits(max_rdb_length=budget))
            blocks.clear()
            results = engine.search(text, **options)
            assert blocks == [
                (sorted(map(frozen.node_of, shorter)), budget - budget // 2)
            ]
            exact = {
                tid: frozen._bfs_row_scalar(frozen.node_of(tid))[0]
                for tid in second
            }
            assert engine.last_stats.pruned == sum(
                exact[target][frozen.node_of(source)] > budget
                for source in first
                for target in second
                if source != target
            )
            assert [(r.render(), r.score) for r in results] == [
                (r.render(), r.score)
                for r in oracle_search(database, text, **options)
            ]
        assert len(first) != len(second)


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

    @pytest.mark.parametrize("pushdown", [None, False])
    @pytest.mark.parametrize(
        "entry", ["search", "search_stream", "search_batch", "plan", "oracle"]
    )
    def test_negative_top_k_is_refused_everywhere(self, engine, entry, pushdown):
        calls = {
            "search": lambda: engine.search(
                "Smith XML", top_k=-1, pushdown=pushdown),
            "search_stream": lambda: list(engine.search_stream(
                "Smith XML", top_k=-1, pushdown=pushdown)),
            "search_batch": lambda: engine.search_batch(
                ["Smith XML"], top_k=-1, pushdown=pushdown),
            "plan": lambda: engine.plan("Smith XML", top_k=-1),
            "oracle": lambda: oracle_search(
                engine.database, "Smith XML", top_k=-1, pushdown=pushdown),
        }
        with pytest.raises(QueryError, match="top_k"):
            calls[entry]()

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
            ExecutionStats(candidates=3, emitted=2, pushdown=False, pruned=1),
            ExecutionStats(candidates=0, emitted=0, pushdown=True, pruned=0),
            ExecutionStats(candidates=7, emitted=7, pushdown=False, pruned=12),
            ExecutionStats(candidates=1, emitted=1, pushdown=True, pruned=4),
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
                 merged.pruned)
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
        assert (left.candidates, left.emitted, left.pushdown, left.pruned) == (
            right.candidates, right.emitted, right.pushdown, right.pruned
        )

    def test_every_field_participates_in_merge(self):
        """A field added to ExecutionStats without a merge rule would
        silently vanish from parallel aggregation — catch it here."""
        from dataclasses import fields

        merged = ExecutionStats()
        merged.merge(
            ExecutionStats(
                candidates=1, emitted=1, pushdown=True, pruned=1
            )
        )
        for field in fields(ExecutionStats):
            default = field.default
            assert getattr(merged, field.name) != default, field.name
