"""Differential tests: the compiled CSR kernel vs the reference core.

The CSR core's contract is bit-identical output against the brute-force
oracle in :mod:`repro.graph.traversal` — same paths and trees, same
order, same budget errors — plus one more obligation: an incrementally
*patched* ``FrozenGraph`` must answer exactly like a freshly compiled
one.
"""

import itertools

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections, find_joining_networks
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.errors import QueryError, SearchLimitError
from repro.graph.csr import (
    CORES,
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
    resolve_core,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import (
    _sort_key,
    enumerate_joining_trees,
    enumerate_simple_paths,
)
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture(scope="module")
def planted_synthetic():
    database = generate_company_like(
        SyntheticConfig(
            departments=4,
            projects_per_department=2,
            employees_per_department=5,
            works_on_per_employee=2,
            seed=29,
        )
    )
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 2, seed=3)
    return database


@pytest.fixture(scope="module")
def synthetic_graph(planted_synthetic):
    return DataGraph(planted_synthetic)


class TestResolveCore:
    def test_defaults(self):
        assert resolve_core() == "csr"
        assert CORES == ("csr", "reference")
        for core in CORES:
            assert resolve_core(core) == core

    def test_unknown_core_rejected(self):
        for core in ("turbo", "fast"):
            with pytest.raises(QueryError):
                resolve_core(core)


class TestFrozenStructure:
    def test_interning_is_sort_key_dense(self, data_graph):
        frozen = FrozenGraph(data_graph)
        tids = sorted(data_graph.graph.nodes, key=_sort_key)
        assert frozen.capacity == len(tids)
        assert frozen.live_count() == len(tids)
        assert [frozen.node_of(t) for t in tids] == list(range(len(tids)))
        assert [frozen.tid_of(i) for i in range(len(tids))] == tids

    def test_csr_arrays_consistent(self, data_graph):
        frozen = FrozenGraph(data_graph)
        assert len(frozen._offsets) == frozen.capacity + 1
        assert frozen._offsets[-1] == len(frozen._targets)
        # Every stored edge appears once per endpoint (undirected).
        assert len(frozen._targets) == 2 * data_graph.number_of_edges()
        assert len(frozen._edge_keys) == len(frozen._targets)
        assert len(frozen._edge_data) == len(frozen._targets)
        assert frozen.nbytes() > 0

    def test_rows_sorted_in_expansion_order(self, data_graph):
        frozen = FrozenGraph(data_graph)
        for node in range(frozen.capacity):
            row_t, row_k, __, start, end = frozen._row(node)
            entries = [
                (_sort_key(frozen.tid_of(row_t[i])), row_k[i])
                for i in range(start, end)
            ]
            assert entries == sorted(entries)

    def test_distances_agree_with_networkx(self, synthetic_graph):
        import networkx as nx

        frozen = FrozenGraph(synthetic_graph)
        node = sorted(synthetic_graph.graph.nodes, key=str)[0]
        source = frozen.node_of(node)
        row = frozen.distances(source)
        expected = nx.single_source_shortest_path_length(
            synthetic_graph.graph, node
        )
        for other, distance in expected.items():
            assert row[frozen.node_of(other)] == distance
        unreachable = [
            i for i in range(frozen.capacity)
            if frozen.tid_of(i) not in expected
        ]
        for i in unreachable:
            assert row[i] > synthetic_graph.number_of_nodes()

    def test_components_partition_reachability(self, data_graph):
        import networkx as nx

        frozen = FrozenGraph(data_graph)
        labels = frozen.components()
        for component in nx.connected_components(nx.Graph(data_graph.graph)):
            ints = {frozen.node_of(t) for t in component}
            assert len({labels[i] for i in ints}) == 1
        # Distinct components get distinct labels.
        count = len(list(nx.connected_components(nx.Graph(data_graph.graph))))
        assert len({labels[i] for i in range(frozen.capacity)}) == count

    def test_distance_rows_are_bounded(self, synthetic_graph):
        # The row cache is budgeted in bytes: one per node for a
        # radius-bounded row, four for an unbounded one.
        frozen = FrozenGraph(synthetic_graph)
        frozen.max_distance_bytes = 3 * frozen.capacity
        for node in range(5):
            frozen.distances(node, radius=2)
        assert list(frozen._distances) == [2, 3, 4]
        assert frozen.memory_footprint()["distances"] == 3 * frozen.capacity
        frozen.distances(5)  # 4 bytes per node: only the newest row fits
        assert list(frozen._distances) == [5]
        assert frozen.memory_footprint()["distances"] == 4 * frozen.capacity
        frozen.max_distance_bytes = 3 * 4 * frozen.capacity
        for node in range(5):
            frozen.distances(node)
        assert list(frozen._distances) == [2, 3, 4]
        assert (
            frozen.memory_footprint()["distances"] == 3 * 4 * frozen.capacity
        )


class TestPathParity:
    def test_company_all_pairs_all_cores(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes, 2):
            brute = list(enumerate_simple_paths(data_graph, source, target, 4))
            csr = list(
                csr_enumerate_simple_paths(
                    data_graph, source, target, 4, cache=cache
                )
            )
            assert csr == brute, (source, target)

    def test_synthetic_sampled_pairs(self, synthetic_graph):
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes[::7], 2):
            brute = list(enumerate_simple_paths(synthetic_graph, source, target, 5))
            csr = list(
                csr_enumerate_simple_paths(
                    synthetic_graph, source, target, 5, cache=cache
                )
            )
            assert csr == brute, (source, target)

    def test_disconnected_unknown_and_zero_budget(self, data_graph):
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1"), 5
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("EMPLOYEE", "e99"), tid("EMPLOYEE", "e1"), 3
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 0
            )
        ) == []

    def test_budget_error_parity(self, data_graph):
        source, target = tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2")

        def consume(enumerate_fn):
            yielded = []
            try:
                for path in enumerate_fn(
                    data_graph, source, target, 5, max_paths=1
                ):
                    yielded.append(path)
            except SearchLimitError as error:
                return yielded, error.context
            raise AssertionError("expected SearchLimitError")

        brute_yielded, brute_context = consume(enumerate_simple_paths)
        csr_yielded, csr_context = consume(csr_enumerate_simple_paths)
        assert csr_yielded == brute_yielded
        assert csr_context == brute_context

    def test_mismatched_cache_is_ignored(self, data_graph, planted_synthetic):
        other_cache = TraversalCache(DataGraph(planted_synthetic))
        brute = list(
            enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 3
            )
        )
        csr = list(
            csr_enumerate_simple_paths(
                data_graph,
                tid("DEPARTMENT", "d1"),
                tid("EMPLOYEE", "e1"),
                3,
                cache=other_cache,
            )
        )
        assert csr == brute
        assert other_cache._frozen is None  # never compiled for the wrong graph
        assert other_cache.hits == 0 and other_cache.misses == 0


class TestTraversalCache:
    def test_rebuild_replaces_engine_cache(self, company_db):
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")
        old_cache = engine.traversal_cache
        engine.rebuild()
        assert engine.traversal_cache is not old_cache
        assert engine.traversal_cache.data_graph is engine.data_graph

    def test_full_invalidate_drops_frozen_graph(self, data_graph):
        cache = TraversalCache(data_graph)
        first = cache.frozen()
        assert cache.compiled() is first
        cache.invalidate()
        assert cache.compiled() is None
        assert cache.frozen() is not first


class TestTreeParity:
    def test_company_required_combos(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[:10], 2):
            brute = list(enumerate_joining_trees(data_graph, list(combo), 5))
            csr = list(
                csr_enumerate_joining_trees(
                    data_graph, list(combo), 5, cache=cache
                )
            )
            assert csr == brute, combo

    def test_three_required_and_synthetic(self, data_graph, synthetic_graph):
        required = [
            tid("DEPARTMENT", "d1"),
            tid("EMPLOYEE", "e1"),
            tid("PROJECT", "p1"),
        ]
        brute = list(enumerate_joining_trees(data_graph, required, 5))
        csr = list(csr_enumerate_joining_trees(data_graph, required, 5))
        assert csr == brute
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[::9], 2):
            brute = list(enumerate_joining_trees(synthetic_graph, list(combo), 4))
            csr = list(
                csr_enumerate_joining_trees(
                    synthetic_graph, list(combo), 4, cache=cache
                )
            )
            assert csr == brute, combo

    def test_budget_error_parity(self, data_graph):
        required = [tid("DEPARTMENT", "d1")]
        with pytest.raises(SearchLimitError):
            list(
                csr_enumerate_joining_trees(data_graph, required, 6, max_results=2)
            )


class TestSearchLayerParity:
    def test_find_connections_company(self, engine):
        matches = engine.match("Smith XML")
        limits = SearchLimits(max_rdb_length=4)
        csr = list(
            find_connections(
                engine.data_graph, matches, limits, core="csr",
                cache=engine.traversal_cache,
            )
        )
        brute = list(
            find_connections(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [a.render() for a in csr] == [a.render() for a in brute]

    def test_find_joining_networks_synthetic(self, planted_synthetic):
        engine = KeywordSearchEngine(planted_synthetic)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta", "kwgamma"))
        limits = SearchLimits(max_tuples=5)
        csr = list(
            find_joining_networks(
                engine.data_graph, matches, limits, core="csr",
                cache=engine.traversal_cache,
            )
        )
        brute = list(
            find_joining_networks(
                engine.data_graph, matches, limits, core="reference"
            )
        )
        assert [(n.tuples, n.keyword_tuples) for n in csr] == [
            (n.tuples, n.keyword_tuples) for n in brute
        ]

    def test_engine_core_results_identical(self, planted_synthetic):
        engines = {
            core: KeywordSearchEngine(planted_synthetic, core=core)
            for core in CORES
        }
        assert engines["csr"].core == "csr"
        assert engines["reference"].core == "reference"
        for query in ("kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwgamma"):
            limits = SearchLimits(max_rdb_length=5)
            rendered = {
                core: [
                    (r.render(), r.score, r.rank)
                    for r in engine.search(query, limits=limits)
                ]
                for core, engine in engines.items()
            }
            assert rendered["csr"] == rendered["reference"]

    def test_engine_batch_and_stream_identical(self, planted_synthetic):
        csr = KeywordSearchEngine(planted_synthetic, core="csr",
                                  result_cache_entries=0)
        brute = KeywordSearchEngine(planted_synthetic, core="reference",
                                    result_cache_entries=0)
        limits = SearchLimits(max_rdb_length=4)
        queries = ["kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwbeta"]
        assert [
            [(r.render(), r.score, r.rank) for r in results]
            for results in csr.search_batch(queries, limits=limits)
        ] == [
            [(r.render(), r.score, r.rank) for r in results]
            for results in brute.search_batch(queries, limits=limits)
        ]
        for query in queries:
            assert [
                (r.render(), r.score, r.rank)
                for r in csr.search_stream(query, limits=limits, top_k=4)
            ] == [
                (r.render(), r.score, r.rank)
                for r in brute.search_stream(query, limits=limits, top_k=4)
            ]

    def test_engine_or_semantics_and_topk(self, company_db):
        csr = KeywordSearchEngine(company_db, core="csr")
        brute = KeywordSearchEngine(company_db, core="reference")
        csr_results = csr.search("Smith unicorn XML", semantics="or")
        brute_results = brute.search("Smith unicorn XML", semantics="or")
        assert [(r.render(), r.score) for r in csr_results] == [
            (r.render(), r.score) for r in brute_results
        ]
        assert [
            (r.render(), r.score)
            for r in csr.search("Smith XML", top_k=3)
        ] == [
            (r.render(), r.score)
            for r in brute.search("Smith XML", top_k=3, pushdown=False)
        ]


def _mutation_rounds():
    """Structural mutation batches covering append, tombstone and edge churn."""
    return [
        [Insert("DEPENDENT", {"ID": "z1", "ESSN": "e1",
                              "DEPENDENT_NAME": "Zoe"})],
        [Insert("WORKS_FOR", {"ESSN": "e2", "P_ID": "p1", "HOURS": 5})],
        [Delete(tid("DEPENDENT", "t1"))],
        [Update(tid("DEPENDENT", "t2"), {"ESSN": "e1"})],
        [
            Delete(tid("DEPENDENT", "z1")),
            Insert("DEPENDENT", {"ID": "z2", "ESSN": "e2",
                                 "DEPENDENT_NAME": "Max"}),
        ],
    ]


def _all_enumerations(data_graph, cache=None, max_edges=4, max_tuples=4):
    """Materialise paths and trees over a node sample (order included)."""
    nodes = sorted(data_graph.graph.nodes, key=str)
    out = []
    for source, target in itertools.permutations(nodes[::3], 2):
        out.append(
            list(
                csr_enumerate_simple_paths(
                    data_graph, source, target, max_edges, cache=cache
                )
            )
        )
    for combo in itertools.combinations(nodes[::4], 2):
        out.append(
            list(
                csr_enumerate_joining_trees(
                    data_graph, list(combo), max_tuples, cache=cache
                )
            )
        )
    return out


class TestIncrementalPatching:
    def test_patched_equals_recompiled(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        _all_enumerations(graph, cache)  # warm distance rows
        for batch in _mutation_rounds():
            changeset = apply_to_database(company_db, batch)
            apply_changeset(
                changeset, company_db, data_graph=graph, traversal_cache=cache
            )
            assert cache.frozen() is frozen  # patched, not recompiled
            patched = _all_enumerations(graph, cache)
            fresh = _all_enumerations(graph, TraversalCache(graph))
            assert patched == fresh
        assert frozen.compactions == 0
        assert frozen._override  # tombstones/appends really went in place

    def test_patch_appends_and_tombstones(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        before = frozen.capacity
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Ada"})],
        )
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen.capacity == before + 1
        assert frozen._ints_sorted is False
        new_node = frozen.node_of(tid("DEPENDENT", "z9"))
        assert new_node == before
        assert frozen.tid_of(new_node) == tid("DEPENDENT", "z9")
        changeset = apply_to_database(company_db, [Delete(tid("DEPENDENT", "z9"))])
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen.node_of(tid("DEPENDENT", "z9")) is None
        assert frozen.live_count() == before
        # A tombstoned tuple enumerates nothing, exactly like the
        # reference core on the patched graph.
        assert list(
            csr_enumerate_simple_paths(
                graph, tid("DEPENDENT", "z9"), tid("EMPLOYEE", "e1"), 3,
                cache=cache,
            )
        ) == []

    def test_distance_rows_of_untouched_components_survive(self, company_db):
        graph = DataGraph(company_db)
        frozen = FrozenGraph(graph)
        # d3 sits in its own component in the paper instance.
        isolated = frozen.node_of(tid("DEPARTMENT", "d3"))
        connected = frozen.node_of(tid("EMPLOYEE", "e1"))
        frozen.distances(isolated)
        frozen.distances(connected)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z8", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Eve"})],
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        dropped = frozen.apply_changeset(changeset)
        assert dropped == 1
        assert isolated in frozen._distances
        assert connected not in frozen._distances

    def test_compaction_threshold_recompiles(self, company_db):
        graph = DataGraph(company_db)
        frozen = FrozenGraph(graph)
        frozen.compaction_threshold = 0.0
        frozen.min_compaction_nodes = 1
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z7", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Kim"})],
        )
        apply_changeset(changeset, company_db, data_graph=graph)
        frozen.apply_changeset(changeset)
        assert frozen.compactions == 1
        assert not frozen._override
        assert frozen._ints_sorted is True
        tids = sorted(graph.graph.nodes, key=_sort_key)
        assert [frozen.tid_of(i) for i in range(frozen.capacity)] == tids

    def test_engine_apply_patches_instead_of_recompiling(self, company_db):
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")
        frozen = engine.traversal_cache._frozen
        assert frozen is not None
        engine.apply(
            [Insert("DEPENDENT", {"ID": "z6", "ESSN": "e3",
                                  "DEPENDENT_NAME": "kwnew"})]
        )
        assert engine.traversal_cache._frozen is frozen
        fresh = KeywordSearchEngine(engine.database)
        for query in ("Smith XML", "kwnew Wong"):
            assert [
                (r.render(), r.score, r.rank) for r in engine.search(query)
            ] == [
                (r.render(), r.score, r.rank) for r in fresh.search(query)
            ]


# ----------------------------------------------------------------------
# radius-bounded one-byte rows vs the unbounded oracle row
# ----------------------------------------------------------------------
def _row_types(frozen):
    return {type(row) for row, __, ___ in frozen._distances.values()}


@pytest.fixture
def unbounded_rows(monkeypatch):
    """Force every distance request onto the unbounded oracle row."""
    distances = FrozenGraph.distances
    distances_block = FrozenGraph.distances_block
    monkeypatch.setattr(
        FrozenGraph, "distances",
        lambda self, node, radius=None: distances(self, node),
    )
    monkeypatch.setattr(
        FrozenGraph, "distances_block",
        lambda self, nodes, radius=None: distances_block(self, nodes),
    )
    return monkeypatch


def _search_outcome(engine, query, **options):
    """Ranked answers, or the budget error point the search stopped at."""
    try:
        return [
            (r.render(), r.score, r.rank)
            for r in engine.search(query, **options)
        ]
    except SearchLimitError as error:
        return ("limit", str(error))


def _outcomes(database, budgets=()):
    """Every differential query under every mode, keyed for comparison."""
    out = {}
    types = set()
    for adaptive in (True, False):
        engine = KeywordSearchEngine(
            database, core="csr", adaptive=adaptive, result_cache_entries=0
        )
        for rdb, tuples in budgets:
            for paths_budget in (None, 2):
                limits = SearchLimits(
                    max_rdb_length=rdb,
                    max_tuples=tuples,
                    max_paths_per_pair=paths_budget,
                    max_networks=paths_budget,
                )
                for pushdown in (False, True):
                    for query, semantics in (
                        ("kwalpha kwbeta", "and"),
                        ("kwbeta kwgamma", "and"),
                        ("kwalpha kwbeta kwgamma", "and"),
                        ("kwalpha kwbeta kwgamma", "or"),
                    ):
                        key = (adaptive, rdb, tuples, paths_budget, pushdown,
                               query, semantics)
                        out[key] = _search_outcome(
                            engine, query, limits=limits,
                            semantics=semantics, pushdown=pushdown,
                        )
        types |= _row_types(engine.traversal_cache.frozen())
    return out, types


#: Both budgets 1–6 on the diagonal, plus crossed pairs so an OR plan's
#: shared tuples take the wider of the two radii.
_BUDGETS = [(n, n) for n in range(1, 7)] + [(1, 6), (6, 1), (2, 5), (5, 2)]


class TestBoundedRowsMatchOracle:
    def test_engine_outcomes_identical_to_unbounded_rows(
        self, planted_synthetic, unbounded_rows
    ):
        oracle, oracle_types = _outcomes(planted_synthetic, _BUDGETS)
        unbounded_rows.undo()
        bounded, bounded_types = _outcomes(planted_synthetic, _BUDGETS)
        from array import array

        assert oracle_types == {array}
        assert bounded_types == {bytearray}
        assert bounded == oracle
        assert any(
            isinstance(outcome, tuple) for outcome in bounded.values()
        ), "no budget error point was exercised"
        assert any(
            isinstance(outcome, list) and outcome
            for outcome in bounded.values()
        )

    def test_kernel_enumerations_identical_to_unbounded_rows(
        self, data_graph, unbounded_rows
    ):
        oracle = {
            budget: _all_enumerations(
                data_graph, TraversalCache(data_graph), budget, budget
            )
            for budget in range(1, 7)
        }
        unbounded_rows.undo()
        for budget in range(1, 7):
            cache = TraversalCache(data_graph)
            assert _all_enumerations(
                data_graph, cache, budget, budget
            ) == oracle[budget]
            assert _row_types(cache.frozen()) == {bytearray}

    def test_bounded_row_is_oracle_clipped_at_radius(self, synthetic_graph):
        frozen = FrozenGraph(synthetic_graph)
        oracle = FrozenGraph(synthetic_graph)
        for node in range(0, frozen.capacity, 7):
            exact = oracle.distances(node)
            for radius in range(7):
                row = frozen.distances(node, radius=radius)
                assert type(row) is bytearray and len(row) == frozen.capacity
                assert list(row) == [
                    depth if depth <= radius else 0xFF for depth in exact
                ]

    def test_distance_within_probes_one_level_past_the_ball(self, data_graph):
        frozen = FrozenGraph(data_graph)
        for target in range(frozen.capacity):
            exact = frozen._bfs_row_scalar(target)
            for budget in range(1, 9):
                row = frozen._bfs_row_scalar(target, budget - 1)
                for node in range(frozen.capacity):
                    expected = exact[node] if exact[node] <= budget else 1 << 30
                    assert frozen.distance_within(row, node, budget) == expected
                    assert frozen.distance_within(exact, node, budget) == expected


class TestRowCoverage:
    def test_wider_rows_serve_narrower_requests_only(self, data_graph):
        frozen = FrozenGraph(data_graph)
        narrow = frozen.distances(0, radius=3)
        assert (frozen.hits, frozen.misses) == (0, 1)
        assert frozen.distances(0, radius=3) is narrow
        assert frozen.distances(0, radius=2) is narrow
        assert (frozen.hits, frozen.misses) == (2, 1)
        wide = frozen.distances(0, radius=5)  # radius 3 cannot answer 5
        assert wide is not narrow
        assert (frozen.hits, frozen.misses) == (2, 2)
        assert frozen._distances[0][:2] == (wide, 5)  # replaced, not doubled
        assert frozen.memory_footprint()["distances"] == frozen.capacity
        assert frozen.distances(0, radius=3) is wide
        exact = frozen.distances(0)  # no bounded row answers "everything"
        assert type(exact) is not bytearray
        assert (frozen.hits, frozen.misses) == (3, 3)
        for radius in (0, 3, 5, 200, None):  # an unbounded row serves any
            assert frozen.distances(0, radius=radius) is exact
        assert (frozen.hits, frozen.misses) == (8, 3)

    def test_block_applies_the_same_rule(self, data_graph):
        frozen = FrozenGraph(data_graph)
        frozen.distances(0, radius=3)
        frozen.distances(1)
        block = frozen.distances_block([0, 1, 2], radius=5)
        assert (frozen.hits, frozen.misses) == (1, 4)  # only node 1 hit
        assert [frozen._distances[node][1] for node in (0, 1, 2)] == [5, None, 5]
        assert block == {
            node: frozen.distances(node, radius=5) for node in (0, 1, 2)
        }

    def test_radius_above_one_byte_takes_the_unbounded_row(self, data_graph):
        frozen = FrozenGraph(data_graph)
        assert type(frozen.distances(0, radius=254)) is bytearray
        assert type(frozen.distances(1, radius=255)) is not bytearray
        assert frozen._distances[1][1] is None
        block = frozen.distances_block([2, 3], radius=1000)
        assert all(type(row) is not bytearray for row in block.values())
        # d3 is its own component: 0xFF in a radius-254 row must not be
        # read as "exactly 255 hops away".
        isolated = frozen.node_of(tid("DEPARTMENT", "d3"))
        row = frozen.distances(0, radius=254)
        assert frozen.distance_within(row, isolated, 255) > 255

    def test_huge_budgets_enumerate_like_the_reference(self, data_graph):
        from array import array

        pairs = [
            (tid("EMPLOYEE", "e1"), tid("EMPLOYEE", "e4")),
            (tid("DEPARTMENT", "d1"), tid("WORKS_FOR", "e2", "p3")),
            (tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1")),
        ]
        for max_edges, row_type in ((255, bytearray), (256, array), (400, array)):
            cache = TraversalCache(data_graph)
            for source, target in pairs:
                assert list(
                    csr_enumerate_simple_paths(
                        data_graph, source, target, max_edges, cache=cache
                    )
                ) == list(
                    enumerate_simple_paths(data_graph, source, target, max_edges)
                )
            assert _row_types(cache.frozen()) == {row_type}
        cache = TraversalCache(data_graph)
        required = [tid("EMPLOYEE", "e1"), tid("PROJECT", "p1")]
        assert list(
            csr_enumerate_joining_trees(data_graph, required, 256, cache=cache)
        ) == list(enumerate_joining_trees(data_graph, required, 256))
        assert _row_types(cache.frozen()) == {array}


class TestBoundedRowsEverywhere:
    def test_shard_graphs_serve_bounded_rows(self, planted_synthetic):
        plain = KeywordSearchEngine(planted_synthetic, result_cache_entries=0)
        sharded = KeywordSearchEngine(
            planted_synthetic, shards=2, result_cache_entries=0
        )
        for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
            assert _search_outcome(sharded, query) == _search_outcome(plain, query)
        plan = sharded.shard_plan
        served = [
            graph for graph in plan._graphs.values() if graph._distances
        ]
        assert served
        for graph in served:
            assert _row_types(graph) == {bytearray}

    def test_snapshot_restored_graph_serves_bounded_rows(
        self, planted_synthetic, tmp_path
    ):
        cold = KeywordSearchEngine(planted_synthetic, result_cache_entries=0)
        path = tmp_path / "engine.snap"
        cold.save(path)
        restored = KeywordSearchEngine.open(path, result_cache_entries=0)
        try:
            for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
                assert _search_outcome(restored, query) == _search_outcome(
                    cold, query
                )
            frozen = restored.traversal_cache.frozen()
            assert frozen._distances
            assert _row_types(frozen) == {bytearray}
            assert frozen.memory_footprint()["distances"] >= len(
                frozen._distances
            ) * frozen.capacity
        finally:
            restored.close()


class TestBoundedRowsUnderPatching:
    def test_append_beside_a_source_outside_the_ball(self, company_db):
        # e2 lies exactly 5 hops from d1, so with max_edges=5 it sits
        # just outside d1's cached radius-4 ball: a tuple appended next
        # to it touches nothing inside the ball, the row survives, and
        # the DFS from e2 then reads the row at the appended node.
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        source, target = tid("EMPLOYEE", "e2"), tid("DEPARTMENT", "d1")
        before = list(
            csr_enumerate_simple_paths(graph, source, target, 5, cache=cache)
        )
        assert before and all(len(path) == 5 for path in before)
        row, radius, __ = frozen._distances[frozen.node_of(target)]
        assert radius == 4 and row[frozen.node_of(source)] == 0xFF
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z7", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Ida"})],
        )
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen._distances[frozen.node_of(target)][0] is row  # survived
        # Grown to the new capacity when it is next served, not before.
        assert len(row) == frozen.capacity - 1
        assert frozen.distances(frozen.node_of(target), radius=4) is row
        assert len(row) == frozen.capacity
        assert row[frozen.node_of(tid("DEPENDENT", "z7"))] == 0xFF
        assert list(
            csr_enumerate_simple_paths(graph, source, target, 5, cache=cache)
        ) == list(enumerate_simple_paths(graph, source, target, 5)) == before

    def test_changes_outside_a_ball_keep_the_row(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        d1 = frozen.node_of(tid("DEPARTMENT", "d1"))
        bounded = frozen.distances(d1, radius=2)
        hits = cache.hits
        # e4, p3 and the WORKS_FOR tuple between them lie 5+ hops from d1.
        changeset = apply_to_database(
            company_db,
            [Delete(tid("WORKS_FOR", "e4", "p3"))],
        )
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen.distances(d1, radius=2) is bounded
        assert cache.hits == hits + 1
        assert _all_enumerations(graph, cache) == _all_enumerations(
            graph, TraversalCache(graph)
        )
        # An edge landing inside the ball drops the row when it is next
        # asked for: a miss, and a fresh sweep.
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z8", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Eve"})],
        )
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        misses = cache.misses
        assert frozen._cached_row(d1, 2) is None
        assert d1 not in frozen._distances
        assert cache.misses == misses + 1
        fresh = frozen.distances(d1, radius=2)
        assert fresh is not bounded
        recompiled = FrozenGraph(graph)
        exact = recompiled.distances(
            recompiled.node_of(tid("DEPARTMENT", "d1"))
        )
        for node in range(frozen.capacity):
            if frozen._alive[node]:
                depth = exact[recompiled.node_of(frozen.tid_of(node))]
                assert fresh[node] == (depth if depth <= 2 else 0xFF)
        assert frozen.memory_footprint()["distances"] == sum(
            len(row) * (1 if type(row) is bytearray else 4)
            for row, __, ___ in frozen._distances.values()
        )

    def test_row_reused_after_untouched_applies(self, company_db):
        # Four batches append dependents of e4, five hops from d1: none
        # lands inside d1's radius-2 ball, so the row is served again,
        # probed once for all four batches and grown to the new capacity.
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        d1 = frozen.node_of(tid("DEPARTMENT", "d1"))
        bounded = frozen.distances(d1, radius=2)
        before = frozen.capacity
        for number in range(4):
            changeset = apply_to_database(
                company_db,
                [Insert("DEPENDENT", {"ID": f"k{number}", "ESSN": "e4",
                                      "DEPENDENT_NAME": "Kay"})],
            )
            apply_changeset(
                changeset, company_db, data_graph=graph, traversal_cache=cache
            )
        e4 = frozen.node_of(tid("EMPLOYEE", "e4"))
        # Each batch logs e4 and its appended dependent, past the row's end.
        assert frozen._change_log == [
            node for number in range(4) for node in (e4, before + number)
        ]
        assert len(bounded) == before
        hits = cache.hits
        assert frozen.distances(d1, radius=2) is bounded
        assert cache.hits == hits + 1
        assert len(bounded) == frozen.capacity == before + 4
        # Re-stamped; the only row being current, the log is cut behind it.
        assert frozen._distances[d1][2] == frozen._log_start == 8
        assert frozen._change_log == []
        oracle = FrozenGraph(DataGraph(company_db))
        exact = oracle.distances(oracle.node_of(tid("DEPARTMENT", "d1")))
        assert [bounded[node] for node in range(frozen.capacity)] == [
            depth if depth <= 2 else 0xFF
            for depth in (
                exact[oracle.node_of(frozen.tid_of(node))]
                for node in range(frozen.capacity)
            )
        ]
        # The next patch logs its own nodes, and only those.
        k0 = frozen.node_of(tid("DEPENDENT", "k0"))
        changeset = apply_to_database(company_db, [Delete(tid("DEPENDENT", "k0"))])
        apply_changeset(
            changeset, company_db, data_graph=graph, traversal_cache=cache
        )
        assert frozen._log_start == frozen._distances[d1][2]
        assert frozen._change_log == [e4, k0]

    def test_stream_suspended_across_an_appending_apply(self, company_db):
        from repro.errors import MutationError

        engine = KeywordSearchEngine(company_db)
        stream = engine.search_stream("Smith XML")
        next(stream)
        frozen = engine.traversal_cache.frozen()
        held = dict(frozen._distances)
        assert held
        engine.apply(
            [Insert("DEPENDENT", {"ID": "s9", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Smith"})]
        )
        with pytest.raises(MutationError, match="restart the stream"):
            next(stream)
        for node, (row, radius, __) in held.items():
            if node in frozen._distances:
                served = frozen.distances(node, radius)
                assert len(served) == frozen.capacity
        fresh = KeywordSearchEngine(engine.database, result_cache_entries=0)
        assert [
            (r.render(), r.score, r.rank) for r in engine.search("Smith XML")
        ] == [(r.render(), r.score, r.rank) for r in fresh.search("Smith XML")]

    def test_the_log_stays_bounded_by_the_oldest_row(self, company_db):
        # Once more nodes were logged since a row's stamp than it has
        # bytes, re-validating it would cost more than a sweep: it goes,
        # and the log with it.
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        d1 = frozen.node_of(tid("DEPARTMENT", "d1"))
        frozen.distances(d1, radius=2)
        length = frozen.capacity
        batches = 0
        while d1 in frozen._distances:
            changeset = apply_to_database(
                company_db,
                [Insert("DEPENDENT", {"ID": f"k{batches}", "ESSN": "e4",
                                      "DEPENDENT_NAME": "Kay"})],
            )
            apply_changeset(
                changeset, company_db, data_graph=graph, traversal_cache=cache
            )
            batches += 1
            assert len(frozen._change_log) <= length
        # Two nodes logged per batch (e4 and the appended dependent): the
        # row went with the first batch that took the log past its length.
        assert 2 * (batches - 1) <= length < 2 * batches
        assert frozen._change_log == []
