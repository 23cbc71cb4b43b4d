"""Agreement and divergence between the engine and the baselines."""

import pytest

from repro.baselines.discover import find_mtjnts, is_mtjnt
from repro.core.connections import Connection
from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant


@pytest.fixture(scope="module")
def company_engine():
    return KeywordSearchEngine(build_company_database())


class TestMtjntsAreASubsetOfConnections:
    def test_on_company(self, company_engine):
        matches = match_keywords(company_engine.index, ("XML", "Smith"))
        connection_sets = {
            frozenset(answer.tuple_ids())
            for answer in find_connections(
                company_engine.data_graph,
                matches,
                SearchLimits(max_rdb_length=4),
            )
            if isinstance(answer, Connection)
        }
        mtjnt_path_sets = {
            members
            for members in find_mtjnts(
                company_engine.data_graph, matches, SearchLimits(max_tuples=5)
            )
        }
        # Every path-shaped MTJNT is also found by connection enumeration.
        assert mtjnt_path_sets <= connection_sets

    def test_on_synthetic(self):
        database = generate_company_like(
            SyntheticConfig(departments=2, employees_per_department=3, seed=3)
        )
        plant(database, "alpha", "DEPARTMENT", "D_DESCRIPTION", 1, seed=1)
        plant(database, "beta", "EMPLOYEE", "L_NAME", 2, seed=2)
        engine = KeywordSearchEngine(database)
        matches = match_keywords(engine.index, ("alpha", "beta"))
        for members in find_mtjnts(
            engine.data_graph, matches, SearchLimits(max_tuples=4)
        ):
            assert is_mtjnt(engine.data_graph, members, matches)

    def test_path_shaped_on_a_planted_database(self, planted_synthetic):
        """Up to four tuples an MTJNT over two keywords is a path, and
        every one is also an engine answer's tuple set."""
        engine = KeywordSearchEngine(planted_synthetic)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        connection_sets = {
            frozenset(answer.tuple_ids())
            for answer in find_connections(
                engine.data_graph, matches, SearchLimits(max_rdb_length=3)
            )
            if isinstance(answer, Connection)
        }
        mtjnts = set(find_mtjnts(
            engine.data_graph, matches, SearchLimits(max_tuples=4)
        ))
        assert mtjnts
        assert mtjnts <= connection_sets


class TestLooseConnectionsExceedMtjnts:
    """The paper's point: MTJNT semantics returns strictly less."""

    def test_engine_returns_more_than_mtjnt(self, company_engine):
        matches = match_keywords(company_engine.index, ("XML", "Smith"))
        connections = [
            answer
            for answer in find_connections(
                company_engine.data_graph,
                matches,
                SearchLimits(max_rdb_length=3),
            )
            if isinstance(answer, Connection)
        ]
        mtjnts = find_mtjnts(
            company_engine.data_graph, matches, SearchLimits(max_tuples=5)
        )
        assert len(connections) > len(mtjnts)

    def test_every_lost_connection_is_loose_or_redundant(self, company_engine):
        matches = match_keywords(company_engine.index, ("XML", "Smith"))
        mtjnt_sets = set(
            find_mtjnts(
                company_engine.data_graph, matches, SearchLimits(max_tuples=5)
            )
        )
        for answer in find_connections(
            company_engine.data_graph, matches, SearchLimits(max_rdb_length=3)
        ):
            if not isinstance(answer, Connection):
                continue
            members = frozenset(answer.tuple_ids())
            if members not in mtjnt_sets:
                # Lost answers contain a smaller total joining network.
                smaller_exists = any(m < members for m in mtjnt_sets)
                assert smaller_exists
