"""Property-based tests over generated databases: search invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.discover import (
    find_mtjnts,
    is_connected_set,
    is_mtjnt,
    is_total,
)
from repro.core.connections import Connection
from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=3),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=4),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=50),
)

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def planted_engine(config, counts=(2, 2)):
    database = generate_company_like(config)
    first = min(counts[0], database.count("DEPARTMENT"))
    second = min(counts[1], database.count("EMPLOYEE"))
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", first, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", second, seed=2)
    return KeywordSearchEngine(database)


class TestConnectionInvariants:
    @relaxed
    @given(configs)
    def test_connections_cover_both_keywords(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        for answer in find_connections(
            engine.data_graph, matches, SearchLimits(max_rdb_length=3)
        ):
            if not isinstance(answer, Connection):
                continue
            covered = set()
            for keywords in answer.keyword_matches.values():
                covered |= keywords
            assert {"kwalpha", "kwbeta"} <= covered

    @relaxed
    @given(configs)
    def test_er_length_bounded_by_rdb_length(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        for answer in find_connections(
            engine.data_graph, matches, SearchLimits(max_rdb_length=4)
        ):
            if isinstance(answer, Connection):
                assert 1 <= answer.er_length <= answer.rdb_length
                middles = len(answer.middle_tuples())
                assert answer.er_length == answer.rdb_length - middles

    @relaxed
    @given(configs)
    def test_paths_are_simple(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        for answer in find_connections(
            engine.data_graph, matches, SearchLimits(max_rdb_length=4)
        ):
            if isinstance(answer, Connection):
                members = answer.tuple_ids()
                assert len(members) == len(set(members))

    @relaxed
    @given(configs)
    def test_search_is_deterministic(self, config):
        engine = planted_engine(config)
        first = [r.answer.render() for r in engine.search("kwalpha kwbeta")]
        second = [r.answer.render() for r in engine.search("kwalpha kwbeta")]
        assert first == second

    @relaxed
    @given(configs)
    def test_scores_non_decreasing(self, config):
        engine = planted_engine(config)
        results = engine.search("kwalpha kwbeta")
        scores = [r.score for r in results]
        assert scores == sorted(scores)


class TestMtjntInvariants:
    @relaxed
    @given(configs)
    def test_every_mtjnt_is_connected_total_minimal(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        for members in find_mtjnts(
            engine.data_graph, matches, SearchLimits(max_tuples=4)
        ):
            assert is_connected_set(engine.data_graph, members)
            assert is_total(members, matches)
            # Brute-force minimality: no single-tuple removal survives.
            for tid in members:
                rest = members - {tid}
                assert not (
                    rest
                    and is_connected_set(engine.data_graph, rest)
                    and is_total(rest, matches)
                )

    @relaxed
    @given(configs)
    def test_mtjnts_unique(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        results = find_mtjnts(
            engine.data_graph, matches, SearchLimits(max_tuples=4)
        )
        assert len(results) == len(set(results))

    @relaxed
    @given(configs)
    def test_is_mtjnt_agrees_with_enumeration(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        enumerated = set(
            find_mtjnts(engine.data_graph, matches, SearchLimits(max_tuples=3))
        )
        for members in enumerated:
            assert is_mtjnt(engine.data_graph, members, matches)
