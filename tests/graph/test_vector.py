"""Differential tests: the vector backend vs the stdlib reference core.

The stdlib scalar loops define the semantics; every vector kernel must
reproduce them bit for bit — same distance rows, same component labels,
same frontier expansions — on clean, patched, tombstoned and compacted
graphs alike.  When numpy is absent (or ``REPRO_NO_VECTOR`` forces the
fallback) these tests still run: both sides then resolve to the scalar
backend and the comparison degenerates to scalar-vs-scalar, which keeps
the no-numpy CI leg meaningful without skips.
"""

import os
import subprocess
import sys

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.errors import QueryError
from repro.graph.csr import FrozenGraph
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.vector import BACKEND, ENV_FLAG, ScalarBackend, get_backend
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture(scope="module")
def synthetic_graph():
    database = generate_company_like(
        SyntheticConfig(
            departments=5,
            projects_per_department=3,
            employees_per_department=6,
            works_on_per_employee=2,
            seed=41,
        )
    )
    return DataGraph(database)


def _pair(graph):
    """A scalar-forced and a default-backend view of the same graph."""
    return FrozenGraph(graph, vector=False), FrozenGraph(graph)


def _assert_identical(scalar, vector):
    sources = list(range(0, vector.capacity, 3))
    block = vector.distances_block(sources)
    for node in sources:
        assert block[node] == scalar.distances(node), node
    assert vector.components() == scalar.components()


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_env_flag_forces_stdlib(self):
        code = (
            "from repro.graph.vector import BACKEND; "
            "print(BACKEND.name, BACKEND.vectorized)"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env[ENV_FLAG] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=os.getcwd(),
            check=True,
        )
        assert out.stdout.split() == ["stdlib", "False"]

    def test_vector_false_forces_scalar(self):
        assert isinstance(get_backend(False), ScalarBackend)
        assert get_backend(False).vectorized is False

    def test_vector_none_takes_module_default(self):
        assert get_backend(None) is BACKEND
        assert get_backend() is BACKEND

    def test_vector_true_demands_vectorized(self):
        code = (
            "from repro.graph.vector import get_backend\n"
            "from repro.errors import QueryError\n"
            "try:\n"
            "    get_backend(True)\n"
            "except QueryError as error:\n"
            "    print('raised', error.context['backend'])\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env[ENV_FLAG] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=os.getcwd(),
            check=True,
        )
        assert out.stdout.split() == ["raised", "stdlib"]

    def test_vector_true_when_available(self):
        if BACKEND.vectorized:
            assert get_backend(True) is BACKEND
        else:
            with pytest.raises(QueryError):
                get_backend(True)

    def test_frozen_graph_reports_backend(self, data_graph):
        assert FrozenGraph(data_graph, vector=False).backend_name == "stdlib"
        assert FrozenGraph(data_graph).backend_name == BACKEND.name


# ----------------------------------------------------------------------
# distance blocks / components / frontiers vs the scalar reference
# ----------------------------------------------------------------------
class TestVectorKernelsIdentical:
    def test_clean_graph(self, synthetic_graph):
        scalar, vector = _pair(synthetic_graph)
        _assert_identical(scalar, vector)

    def test_block_equals_per_source_rows(self, synthetic_graph):
        scalar, vector = _pair(synthetic_graph)
        sources = list(range(0, vector.capacity, 2))
        block = vector.distances_block(sources)
        assert sorted(block) == sorted(set(sources))
        for node in sources:
            assert block[node] == scalar.distances(node)
        # Duplicate sources collapse; cached rows are served verbatim.
        again = vector.distances_block([sources[0], sources[0], sources[1]])
        assert again[sources[0]] is block[sources[0]]

    def test_patched_graph(self, company_db):
        graph = DataGraph(company_db)
        scalar_cache = TraversalCache(graph, vector=False)
        vector_cache = TraversalCache(graph)
        scalar, vector = scalar_cache.frozen(), vector_cache.frozen()
        batches = [
            [Insert("DEPENDENT", {"ID": "v1", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Zoe"})],
            [Update(tid("DEPENDENT", "t2"), {"ESSN": "e1"})],
            [Delete(tid("DEPENDENT", "t1"))],
        ]
        for batch in batches:
            changeset = apply_to_database(company_db, batch)
            apply_changeset(changeset, company_db, data_graph=graph,
                            traversal_cache=scalar_cache)
            vector.apply_changeset(changeset)
            _assert_identical(scalar, vector)
        assert vector._override  # the patches really took the patch path

    def test_tombstoned_graph(self, company_db):
        graph = DataGraph(company_db)
        scalar, vector = _pair(graph)
        changeset = apply_to_database(
            company_db, [Delete(tid("DEPENDENT", "t1"))]
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        scalar.apply_changeset(changeset)
        vector.apply_changeset(changeset)
        dead = scalar.components().count(-1)
        assert dead >= 1  # the tombstone labels -1 on both backends
        _assert_identical(scalar, vector)

    def test_compacted_graph(self, company_db):
        graph = DataGraph(company_db)
        scalar, vector = _pair(graph)
        for frozen in (scalar, vector):
            frozen.compaction_threshold = 0.0
            frozen.min_compaction_nodes = 1
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "v2", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Max"})],
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        scalar.apply_changeset(changeset)
        vector.apply_changeset(changeset)
        assert scalar.compactions == vector.compactions == 1
        _assert_identical(scalar, vector)

    def test_frontier_neighbour_ints(self, synthetic_graph):
        scalar, vector = _pair(synthetic_graph)
        vector.vector_frontier_min = 1  # force the gather path if present
        nodes = range(vector.capacity)
        for members in ({0}, set(nodes[:7]), set(list(nodes)[::5])):
            assert (
                vector.frontier_neighbour_ints(members)
                == scalar.frontier_neighbour_ints(members)
            )

    def test_chunked_sweep_matches_scalar(self, synthetic_graph):
        # More sources than one sweep holds exercises the chunk loop.
        scalar, vector = _pair(synthetic_graph)
        if not vector._backend.vectorized:
            pytest.skip("stdlib backend has no sweep to chunk")
        vector._backend.max_sources_per_sweep  # sanity: attribute exists
        sources = list(range(vector.capacity))
        block = vector.distances_block(sources)
        for node in sources[:: max(1, len(sources) // 50)]:
            assert block[node] == scalar.distances(node)


# ----------------------------------------------------------------------
# LRU distance caches
# ----------------------------------------------------------------------
class TestDistanceCacheLru:
    def test_frozen_graph_hit_refreshes_entry(self, data_graph):
        frozen = FrozenGraph(data_graph)
        frozen.max_distance_bytes = 3 * frozen.capacity  # three bounded rows
        a, b, c, d = 0, 1, 2, 3
        for node in (a, b, c):
            frozen.distances(node, radius=3)
        frozen.distances(a, radius=3)  # refresh: a is now most recent
        frozen.distances(d, radius=3)  # evicts b (the true LRU), not a
        assert a in frozen._distances
        assert b not in frozen._distances
        assert set(frozen._distances) == {a, c, d}

    def test_frozen_block_hits_refresh_entries(self, data_graph):
        frozen = FrozenGraph(data_graph)
        frozen.max_distance_bytes = 3 * 4 * frozen.capacity  # three unbounded
        frozen.distances_block([0, 1, 2])
        frozen.distances_block([0])  # refresh via the block path
        frozen.distances(3)
        assert 0 in frozen._distances
        assert 1 not in frozen._distances


# ----------------------------------------------------------------------
# engine level
# ----------------------------------------------------------------------
class TestEngineVectorOption:
    def test_search_identical_across_backends(self, company_db):
        queries = ["Smith XML", "Smith Alice Cs", "XML"]
        limits = SearchLimits(max_rdb_length=4)
        rendered = {}
        for vector in (False, None):
            engine = KeywordSearchEngine(
                company_db, core="csr", vector=vector
            )
            rendered[vector] = [
                [(r.render(), r.score) for r in engine.search(q, limits=limits)]
                for q in queries
            ]
        assert rendered[False] == rendered[None]

    def test_engine_threads_vector_to_frozen_graph(self, company_db):
        engine = KeywordSearchEngine(company_db, core="csr", vector=False)
        assert engine.traversal_cache.frozen().backend_name == "stdlib"
        default = KeywordSearchEngine(company_db, core="csr")
        assert default.traversal_cache.frozen().backend_name == BACKEND.name
