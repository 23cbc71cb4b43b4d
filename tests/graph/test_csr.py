"""Differential tests: the compiled CSR kernel vs the networkx oracle.

The CSR kernel's contract is bit-identical output against the
brute-force enumerations in :mod:`repro.graph.traversal` — same paths
and trees, same order, same budget errors — and the engine's against
:func:`repro.oracle.search`, which runs them; plus one more obligation:
an incrementally *patched* ``FrozenGraph`` must answer exactly like a
freshly compiled one.
"""

import itertools
import os
import sys
from array import array
from functools import partial

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits, find_connections
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.errors import SearchLimitError
from repro.graph.csr import (
    FrozenGraph,
    QueryRows,
    _ROW_ENTRY_BYTES,
    _held_bytes,
    _packed,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
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
from repro.oracle import search as oracle_search
from repro.relational.database import TupleId
from repro.relational.index import _Derived
from network_source import joining_networks


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def held_levels(packed):
    """A held row's BFS levels, the nodes at each depth, read off its
    packed array: the level ends (positions in the array), then the
    nodes."""
    header = packed[0] - 1
    bounds = [header, *packed[:header]]
    return [list(packed[start:end]) for start, end in zip(bounds, bounds[1:])]


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
        assert len(frozen._edge_refs) == len(frozen._targets)
        assert frozen.nbytes() > 0

    def test_resident_representation(self, data_graph, tmp_path):
        """A cold build holds per CSR entry one referencing-flag byte
        (no edge-data object) and derives sort keys on demand; a
        snapshot-restored graph and a fold hold the same shape."""

        def assert_flag_bytes(frozen):
            refs = frozen._edge_refs
            assert memoryview(refs).itemsize == 1
            assert len(refs) == len(frozen._targets)
            assert set(bytes(refs)) <= {0, 1}

        frozen = FrozenGraph(data_graph)
        assert_flag_bytes(frozen)
        assert type(frozen._keys) is _Derived and len(frozen._keys) == 0
        assert frozen._keys[3] == _sort_key(frozen.tid_of(3))
        assert len(frozen._keys) == 1
        assert 1 in frozen._edge_refs and 0 in frozen._edge_refs

        engine = KeywordSearchEngine(data_graph.database)
        engine.save(tmp_path / "engine.snap")
        restored = KeywordSearchEngine.open(tmp_path / "engine.snap")
        try:
            stored = restored.traversal_cache.frozen()
            assert_flag_bytes(stored)
            assert bytes(stored._edge_refs) == bytes(frozen._edge_refs)
            stored._compile()  # a fold from the stored rows
            assert_flag_bytes(stored)
            assert stored._edge_refs == frozen._edge_refs
            assert type(stored._keys) is _Derived and len(stored._keys) == 0
        finally:
            restored.close()

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

    def test_distance_rows_are_bounded(self, synthetic_graph):
        # The row cache is budgeted in the bytes its rows hold: each row's
        # BFS level arrays, bounded or not, whatever the capacity.
        frozen = FrozenGraph(synthetic_graph)
        for radius in (2, None):
            held = [
                _held_bytes(frozen._bfs_row_scalar(node, radius)[1])
                for node in range(5)
            ]
            frozen.max_distance_bytes = sum(held[2:])
            for node in range(5):
                frozen.distances(node, radius=radius)
            assert list(frozen._distances) == [2, 3, 4]
            assert frozen.memory_footprint()["distances"] == sum(held[2:])
            frozen.max_distance_bytes = 1
            frozen.distances(5, radius=radius)  # only the newest row fits
            assert list(frozen._distances) == [5]
            assert frozen.memory_footprint()["distances"] == _held_bytes(
                frozen._distances[5][0]
            )
            frozen._distances.clear()
            frozen._distance_bytes = 0

    def test_a_small_ball_holds_a_small_row(self):
        # A row costs the nodes it reaches, not one byte per tuple: a
        # 4-node chain among 10 000 isolated people holds under 1 KiB.
        from repro.relational.database import Database
        from repro.relational.schema import (
            AttributeDef, DatabaseSchema, ForeignKey, Relation,
        )

        schema = DatabaseSchema(name="people")
        schema.add_relation(Relation(
            "PERSON", [AttributeDef("ID"), AttributeDef("BOSS")],
            primary_key=["ID"],
        ))
        schema.add_foreign_key(
            ForeignKey("fk_boss", "PERSON", ("BOSS",), "PERSON", ("ID",))
        )
        database = Database(schema)
        for number in range(10_000):
            boss = f"p{number - 1:05d}" if 0 < number < 4 else None
            database.insert("PERSON", {"ID": f"p{number:05d}", "BOSS": boss})
        frozen = FrozenGraph(DataGraph(database))
        assert frozen.capacity == 10_000
        head = frozen.node_of(tid("PERSON", "p00000"))
        row = frozen.distances(head, radius=5)
        assert len(row) == frozen.capacity
        assert sorted(depth for depth in row if depth != 0xFF) == [0, 1, 2, 3]
        assert sum(map(len, held_levels(frozen._distances[head][0]))) == 4
        assert frozen.memory_footprint()["distances"] < 1024

    def test_a_held_row_counts_its_entry_tuple(self, synthetic_graph):
        # The budget counts what a held row costs the cache: the packed
        # array and the (packed, radius, stamp, length) entry beside it.
        frozen = FrozenGraph(synthetic_graph)
        for node in range(3):
            frozen.distances(node, radius=2)
        assert frozen.memory_footprint()["distances"] == sum(
            sys.getsizeof(entry[0]) + sys.getsizeof(entry)
            for entry in frozen._distances.values()
        )

    def test_a_held_row_is_two_bytes_a_node_while_ints_fit(self, synthetic_graph):
        # The packed row is its levels, in order, then nothing else; while
        # node ints fit in 16 bits it costs two bytes per node it reaches
        # and per level, plus one array header; the cache also counts the
        # row's entry tuple.
        frozen = FrozenGraph(synthetic_graph)
        header = sys.getsizeof(array("H")) + _ROW_ENTRY_BYTES
        for radius in (1, 2, 4):
            for node in range(frozen.capacity):
                row, packed = frozen._bfs_row_scalar(node, radius)
                reached = [at for at in range(frozen.capacity) if row[at] != 0xFF]
                assert packed.typecode == "H"
                levels = held_levels(packed)
                assert levels[0] == [node]
                assert sorted(itertools.chain.from_iterable(levels)) == reached
                assert all(row[at] == depth
                           for depth, level in enumerate(levels) for at in level)
                assert _held_bytes(packed) <= 2 * len(reached) + 2 * (radius + 1) + header
                assert frozen._dense_row(packed, radius) == row

    @pytest.mark.parametrize("capacity, levels, typecode", [
        (10, [[3], [0, 9], [1, 2, 5]], "H"),
        (0x10000, [[0xFFFF], [0], [7]], "H"),
        # node ints past 16 bits
        (0x10001, [[0x10000], [0], [7]], "i"),
        # node ints fit, but the level ends past the header would not
        (0x10000, [[0]] + [[node] for node in range(1, 0xFFFF)], "i"),
    ])
    def test_the_packer_widens_past_16_bits(self, capacity, levels, typecode):
        ends = list(itertools.accumulate(map(len, levels)))
        nodes = list(itertools.chain.from_iterable(levels))
        packed = _packed(ends, nodes, capacity)
        assert packed.typecode == typecode
        assert held_levels(packed) == levels
        assert _held_bytes(packed) == sys.getsizeof(packed) + _ROW_ENTRY_BYTES


class TestPathParity:
    def test_company_all_pairs_all_cores(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes, 2):
            brute = list(enumerate_simple_paths(data_graph, source, target, 4))
            csr = list(
                csr_enumerate_simple_paths(cache, source, target, 4)
            )
            assert csr == brute, (source, target)

    def test_synthetic_sampled_pairs(self, synthetic_graph):
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for source, target in itertools.permutations(nodes[::7], 2):
            brute = list(enumerate_simple_paths(synthetic_graph, source, target, 5))
            csr = list(
                csr_enumerate_simple_paths(cache, source, target, 5)
            )
            assert csr == brute, (source, target)

    def test_disconnected_unknown_and_zero_budget(self, data_graph):
        cache = TraversalCache(data_graph)
        assert list(
            csr_enumerate_simple_paths(
                cache, tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1"), 5
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                cache, tid("EMPLOYEE", "e99"), tid("EMPLOYEE", "e1"), 3
            )
        ) == []
        assert list(
            csr_enumerate_simple_paths(
                cache, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 0
            )
        ) == []

    def test_budget_error_parity(self, data_graph):
        source, target = tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2")

        def consume(enumerate_fn, graph):
            yielded = []
            try:
                for path in enumerate_fn(graph, source, target, 5, max_paths=1):
                    yielded.append(path)
            except SearchLimitError as error:
                return yielded, error.context
            raise AssertionError("expected SearchLimitError")

        brute_yielded, brute_context = consume(enumerate_simple_paths, data_graph)
        csr_yielded, csr_context = consume(
            csr_enumerate_simple_paths, TraversalCache(data_graph)
        )
        assert csr_yielded == brute_yielded
        assert csr_context == brute_context


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
        assert cache._frozen is first
        cache.invalidate()
        assert cache._frozen is None
        assert cache.frozen() is not first


class TestTreeParity:
    def test_company_required_combos(self, data_graph):
        cache = TraversalCache(data_graph)
        nodes = sorted(data_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[:10], 2):
            brute = list(enumerate_joining_trees(data_graph, list(combo), 5))
            csr = list(
                csr_enumerate_joining_trees(cache, list(combo), 5)
            )
            assert csr == brute, combo

    def test_three_required_and_synthetic(self, data_graph, synthetic_graph):
        required = [
            tid("DEPARTMENT", "d1"),
            tid("EMPLOYEE", "e1"),
            tid("PROJECT", "p1"),
        ]
        brute = list(enumerate_joining_trees(data_graph, required, 5))
        csr = list(
            csr_enumerate_joining_trees(TraversalCache(data_graph), required, 5)
        )
        assert csr == brute
        cache = TraversalCache(synthetic_graph)
        nodes = sorted(synthetic_graph.graph.nodes, key=str)
        for combo in itertools.combinations(nodes[::9], 2):
            brute = list(enumerate_joining_trees(synthetic_graph, list(combo), 4))
            csr = list(
                csr_enumerate_joining_trees(cache, list(combo), 4)
            )
            assert csr == brute, combo

    def test_budget_error_parity(self, data_graph):
        required = [tid("DEPARTMENT", "d1")]
        with pytest.raises(SearchLimitError):
            list(
                csr_enumerate_joining_trees(
                    TraversalCache(data_graph), required, 6, max_results=2
                )
            )

    def test_disconnected_set_pruned_without_component_labels(self, data_graph):
        # d3 is its own component: the first frontier's distance rows
        # prune the set.
        cache = TraversalCache(data_graph)
        for budget in (1, 4, 300):
            required = [tid("EMPLOYEE", "e1"), tid("DEPARTMENT", "d3")]
            assert list(
                csr_enumerate_joining_trees(cache, required, budget)
            ) == list(enumerate_joining_trees(data_graph, required, budget)) == []


def _ranked(results):
    return [(r.render(), r.score, r.rank) for r in results]


def _network_key(network):
    return (
        sorted(map(str, network.tuples)),
        sorted((keyword, str(tid)) for keyword, tid in network.keyword_tuples.items()),
    )


class TestSearchLayerParity:
    def test_find_connections_company(self, engine):
        matches = engine.match("Smith XML")
        limits = SearchLimits(max_rdb_length=4)
        csr = find_connections(
            engine.data_graph, matches, limits, cache=engine.traversal_cache
        )
        oracle = oracle_search(engine.database, "Smith XML", limits=limits)
        assert sorted(a.render() for a in csr) == sorted(
            r.render() for r in oracle
        )

    def test_find_joining_networks_synthetic(self, planted_synthetic):
        engine = KeywordSearchEngine(planted_synthetic)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta", "kwgamma"))
        limits = SearchLimits(max_tuples=5)
        csr = list(
            joining_networks(
                engine.data_graph, matches, limits,
                cache=engine.traversal_cache,
            )
        )
        oracle = oracle_search(
            planted_synthetic, "kwalpha kwbeta kwgamma", limits=limits
        )
        assert csr
        assert sorted(map(_network_key, csr)) == sorted(
            _network_key(r.answer) for r in oracle
        )

    def test_engine_core_results_identical(self, planted_synthetic):
        engine = KeywordSearchEngine(planted_synthetic)
        for query in ("kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwgamma"):
            limits = SearchLimits(max_rdb_length=5)
            assert _ranked(engine.search(query, limits=limits)) == _ranked(
                oracle_search(planted_synthetic, query, limits=limits)
            )

    def test_engine_batch_and_stream_identical(self, planted_synthetic):
        csr = KeywordSearchEngine(planted_synthetic, result_cache_entries=0)
        limits = SearchLimits(max_rdb_length=4)
        queries = ["kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwbeta"]
        assert [
            _ranked(results)
            for results in csr.search_batch(queries, limits=limits)
        ] == [
            _ranked(oracle_search(planted_synthetic, query, limits=limits))
            for query in queries
        ]
        for query in queries:
            assert _ranked(
                csr.search_stream(query, limits=limits, top_k=4)
            ) == _ranked(
                oracle_search(planted_synthetic, query, limits=limits, top_k=4)
            )

    def test_engine_or_semantics_and_topk(self, company_db):
        csr = KeywordSearchEngine(company_db)
        assert _ranked(csr.search("Smith unicorn XML", semantics="or")) == _ranked(
            oracle_search(company_db, "Smith unicorn XML", semantics="or")
        )
        assert _ranked(csr.search("Smith XML", top_k=3)) == _ranked(
            oracle_search(company_db, "Smith XML", top_k=3, pushdown=False)
        )


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


def _all_enumerations(cache, max_edges=4, max_tuples=4):
    """Materialise paths and trees over a node sample (order included)."""
    database = cache.data_graph.database
    nodes = sorted((record.tid for record in database.all_tuples()), key=str)
    out = []
    for source, target in itertools.permutations(nodes[::3], 2):
        out.append(
            list(
                csr_enumerate_simple_paths(cache, source, target, max_edges)
            )
        )
    for combo in itertools.combinations(nodes[::4], 2):
        out.append(
            list(
                csr_enumerate_joining_trees(cache, list(combo), max_tuples)
            )
        )
    return out


class TestIncrementalPatching:
    def test_patched_equals_recompiled(self, company_db):
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        _all_enumerations(cache)  # warm distance rows
        for batch in _mutation_rounds():
            changeset = apply_to_database(company_db, batch)
            apply_changeset(changeset, company_db, traversal_cache=cache)
            assert cache.frozen() is frozen  # patched, not recompiled
            patched = _all_enumerations(cache)
            fresh = _all_enumerations(TraversalCache(graph))
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
        apply_changeset(changeset, company_db, traversal_cache=cache)
        assert frozen.capacity == before + 1
        assert frozen._ints_sorted is False
        new_node = frozen.node_of(tid("DEPENDENT", "z9"))
        assert new_node == before
        assert frozen.tid_of(new_node) == tid("DEPENDENT", "z9")
        changeset = apply_to_database(company_db, [Delete(tid("DEPENDENT", "z9"))])
        apply_changeset(changeset, company_db, traversal_cache=cache)
        assert frozen.node_of(tid("DEPENDENT", "z9")) is None
        assert frozen.live_count() == before
        # A tombstoned tuple enumerates nothing, exactly like the
        # reference core on the patched graph.
        assert list(
            csr_enumerate_simple_paths(
                cache, tid("DEPENDENT", "z9"), tid("EMPLOYEE", "e1"), 3
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
    """Types of the rows the held entries serve."""
    return {
        type(frozen._dense_row(levels, radius))
        for levels, radius, *__ in frozen._distances.values()
    }


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


def _search_outcome(search, query, **options):
    """Ranked answers, or the budget error point the search stopped at."""
    try:
        return [(r.render(), r.score, r.rank) for r in search(query, **options)]
    except SearchLimitError as error:
        return ("limit", str(error))


def _outcomes(database, budgets, oracle):
    """Every differential query under every mode, keyed for comparison.

    Each outcome — answers or budget error message — must equal
    :func:`repro.oracle.search`'s for the same budget, pushdown mode and
    text; ``oracle`` memoises those across calls.
    """
    out = {}
    types = set()
    for adaptive in (True, False):
        engine = KeywordSearchEngine(
            database, adaptive=adaptive, result_cache_entries=0
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
                        options = dict(
                            limits=limits, semantics=semantics,
                            pushdown=pushdown,
                        )
                        case = (rdb, tuples, paths_budget, pushdown,
                                query, semantics)
                        if case not in oracle:
                            oracle[case] = _search_outcome(
                                partial(oracle_search, database), query,
                                **options,
                            )
                        outcome = _search_outcome(engine.search, query, **options)
                        assert outcome == oracle[case], (adaptive, case)
                        out[(adaptive,) + case] = outcome
        types |= _row_types(engine.traversal_cache.frozen())
    return out, types


#: Both budgets 1–6 on the diagonal, plus crossed pairs so an OR plan's
#: shared tuples take the wider of the two radii.
_BUDGETS = [(n, n) for n in range(1, 7)] + [(1, 6), (6, 1), (2, 5), (5, 2)]


class TestBoundedRowsMatchOracle:
    def test_engine_outcomes_identical_to_unbounded_rows(
        self, planted_synthetic, unbounded_rows
    ):
        oracle = {}
        unbounded, unbounded_types = _outcomes(
            planted_synthetic, _BUDGETS, oracle
        )
        unbounded_rows.undo()
        bounded, bounded_types = _outcomes(planted_synthetic, _BUDGETS, oracle)
        from array import array

        assert unbounded_types == {array}
        assert bounded_types == {bytearray}
        assert bounded == unbounded
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
            budget: _all_enumerations(TraversalCache(data_graph), budget, budget)
            for budget in range(1, 7)
        }
        unbounded_rows.undo()
        for budget in range(1, 7):
            cache = TraversalCache(data_graph)
            assert _all_enumerations(cache, budget, budget) == oracle[budget]
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


class TestRowCoverage:
    def test_wider_rows_serve_narrower_requests_only(self, data_graph):
        frozen = FrozenGraph(data_graph)
        narrow = frozen.distances(0, radius=3)
        assert (frozen.hits, frozen.misses) == (0, 1)
        assert frozen.distances(0, radius=3) == narrow
        assert frozen.distances(0, radius=2) == narrow
        assert (frozen.hits, frozen.misses) == (2, 1)
        wide = frozen.distances(0, radius=5)  # radius 3 cannot answer 5
        assert (frozen.hits, frozen.misses) == (2, 2)
        levels, radius, *__ = frozen._distances[0]  # replaced, not doubled
        assert radius == 5 and frozen._dense_row(levels, 5) == wide
        assert frozen.memory_footprint()["distances"] == _held_bytes(levels)
        assert frozen.distances(0, radius=3) == wide
        exact = frozen.distances(0)  # no bounded row answers "everything"
        assert type(exact) is not bytearray
        assert (frozen.hits, frozen.misses) == (3, 3)
        for radius in (0, 3, 5, 200, None):  # an unbounded row serves any
            served = frozen.distances(0, radius=radius)
            assert type(served) is type(exact) and served == exact
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

    def test_block_equals_per_source_rows(self, synthetic_graph):
        frozen, single = FrozenGraph(synthetic_graph), FrozenGraph(synthetic_graph)
        sources = list(range(0, frozen.capacity, 2))
        block = frozen.distances_block(sources)
        assert sorted(block) == sorted(set(sources))
        for node in sources:
            assert block[node] == single.distances(node)
        # Duplicate sources collapse; cached rows are served verbatim.
        hits = frozen.hits
        again = frozen.distances_block([sources[0], sources[0], sources[1]])
        assert again[sources[0]] == block[sources[0]]
        assert frozen.hits == hits + 2

    def test_radius_above_one_byte_takes_the_unbounded_row(self, data_graph):
        frozen = FrozenGraph(data_graph)
        assert type(frozen.distances(0, radius=254)) is bytearray
        assert type(frozen.distances(1, radius=255)) is not bytearray
        assert frozen._distances[1][1] is None
        block = frozen.distances_block([2, 3], radius=1000)
        assert all(type(row) is not bytearray for row in block.values())
        # d3 is its own component: 0xFF in a radius-254 row must not be
        # read as "exactly 255 hops away" by a budget that sums past it.
        isolated = frozen.node_of(tid("DEPARTMENT", "d3"))
        row = frozen.distances(0, radius=254)
        assert frozen.distance_between(frozen.ball((isolated,), 254), row, 508) > 508

    def test_huge_budgets_enumerate_like_the_reference(self, data_graph):
        from array import array

        pairs = [
            (tid("EMPLOYEE", "e1"), tid("EMPLOYEE", "e4")),
            (tid("DEPARTMENT", "d1"), tid("WORKS_FOR", "e2", "p3")),
            (tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1")),
        ]
        # Paths read their target row at radius ⌈B/2⌉: one byte up to
        # B = 508 (radius 254), the unbounded row from B = 509 on.
        for max_edges, row_type in (
            (255, bytearray), (256, bytearray), (400, bytearray),
            (508, bytearray), (509, array), (510, array),
        ):
            cache = TraversalCache(data_graph)
            for source, target in pairs:
                assert list(
                    csr_enumerate_simple_paths(cache, source, target, max_edges)
                ) == list(
                    enumerate_simple_paths(data_graph, source, target, max_edges)
                )
            assert _row_types(cache.frozen()) == {row_type}
        cache = TraversalCache(data_graph)
        required = [tid("EMPLOYEE", "e1"), tid("PROJECT", "p1")]
        assert list(
            csr_enumerate_joining_trees(cache, required, 256)
        ) == list(enumerate_joining_trees(data_graph, required, 256))
        assert _row_types(cache.frozen()) == {array}


def _three_of_four_fit(frozen, radius):
    """A budget any three of rows 0–3 fit in and all four do not."""
    held = sorted(
        _held_bytes(frozen._bfs_row_scalar(node, radius)[1]) for node in range(4)
    )
    return sum(held[1:])


class TestDistanceCacheLru:
    def test_frozen_graph_hit_refreshes_entry(self, data_graph):
        frozen = FrozenGraph(data_graph)
        frozen.max_distance_bytes = _three_of_four_fit(frozen, 3)
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
        frozen.max_distance_bytes = _three_of_four_fit(frozen, None)
        frozen.distances_block([0, 1, 2])
        frozen.distances_block([0])  # refresh via the block path
        frozen.distances(3)
        assert 0 in frozen._distances
        assert 1 not in frozen._distances


class TestBoundedRowsEverywhere:
    def test_snapshot_restored_graph_serves_bounded_rows(
        self, planted_synthetic, tmp_path
    ):
        cold = KeywordSearchEngine(planted_synthetic, result_cache_entries=0)
        path = tmp_path / "engine.snap"
        cold.save(path)
        restored = KeywordSearchEngine.open(path, result_cache_entries=0)
        try:
            for query in ("kwalpha kwbeta", "kwalpha kwbeta kwgamma"):
                assert _search_outcome(
                    restored.search, query
                ) == _search_outcome(cold.search, query)
            frozen = restored.traversal_cache.frozen()
            assert frozen._distances
            assert _row_types(frozen) == {bytearray}
            assert frozen.memory_footprint()["distances"] == sum(
                _held_bytes(levels) for levels, *__ in frozen._distances.values()
            )
        finally:
            restored.close()


class TestBoundedRowsUnderPatching:
    def test_append_beside_a_source_outside_the_ball(self, company_db):
        # e2 lies exactly 5 hops from d1, so with max_edges=7 it sits
        # just outside d1's cached radius-4 (⌈7/2⌉) row: a tuple appended
        # next to it touches nothing inside the row's ball, the row
        # survives, and both the source ball around e2 and the DFS from
        # e2 (4 edges left after the first step) then read the row at the
        # appended node.
        graph = DataGraph(company_db)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        source, target = tid("EMPLOYEE", "e2"), tid("DEPARTMENT", "d1")
        before = list(
            csr_enumerate_simple_paths(cache, source, target, 7)
        )
        assert before and min(len(path) for path in before) == 5
        levels, radius, *__ = frozen._distances[frozen.node_of(target)]
        assert radius == 4
        assert all(frozen.node_of(source) not in level for level in held_levels(levels))
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z7", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Ida"})],
        )
        apply_changeset(changeset, company_db, traversal_cache=cache)
        held = frozen._distances[frozen.node_of(target)]
        assert held[0] is levels  # survived
        # Re-stamped at the new capacity when it is next served, not before.
        assert held[3] == frozen.capacity - 1
        hits = cache.hits
        row = frozen.distances(frozen.node_of(target), radius=4)
        assert cache.hits == hits + 1
        assert frozen._distances[frozen.node_of(target)][0] is levels
        assert frozen._distances[frozen.node_of(target)][3] == frozen.capacity
        assert len(row) == frozen.capacity
        assert row[frozen.node_of(tid("DEPENDENT", "z7"))] == 0xFF
        assert list(
            csr_enumerate_simple_paths(cache, source, target, 7)
        ) == list(enumerate_simple_paths(graph, source, target, 7)) == before

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
        apply_changeset(changeset, company_db, traversal_cache=cache)
        assert frozen.distances(d1, radius=2) == bounded
        assert cache.hits == hits + 1
        assert _all_enumerations(cache) == _all_enumerations(
            TraversalCache(graph)
        )
        # An edge landing inside the ball drops the row when it is next
        # asked for: a miss, and a fresh sweep.
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "z8", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Eve"})],
        )
        apply_changeset(changeset, company_db, traversal_cache=cache)
        misses = cache.misses
        assert frozen._cached_row(d1, 2) is None
        assert d1 not in frozen._distances
        assert cache.misses == misses + 1
        fresh = frozen.distances(d1, radius=2)
        assert cache.misses == misses + 2  # swept afresh
        recompiled = FrozenGraph(graph)
        exact = recompiled.distances(
            recompiled.node_of(tid("DEPARTMENT", "d1"))
        )
        for node in range(frozen.capacity):
            if frozen._alive[node]:
                depth = exact[recompiled.node_of(frozen.tid_of(node))]
                assert fresh[node] == (depth if depth <= 2 else 0xFF)
        assert frozen.memory_footprint()["distances"] == sum(
            _held_bytes(levels) for levels, *__ in frozen._distances.values()
        )

    def test_row_reused_after_untouched_applies(self, company_db):
        # Four batches append dependents of e4, five hops from d1: none
        # lands inside d1's radius-2 ball, so the row is served again,
        # probed once for all four batches and built at the new capacity.
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
            apply_changeset(changeset, company_db, traversal_cache=cache)
        e4 = frozen.node_of(tid("EMPLOYEE", "e4"))
        # Each batch logs e4 and its appended dependent, past the row's end.
        assert frozen._change_log == [
            node for number in range(4) for node in (e4, before + number)
        ]
        levels = frozen._distances[d1][0]
        hits = cache.hits
        served = frozen.distances(d1, radius=2)
        assert cache.hits == hits + 1
        assert frozen._distances[d1][0] is levels
        assert len(served) == frozen.capacity == before + 4
        assert served[:before] == bounded
        # Re-stamped; the only row being current, the log is cut behind it.
        assert frozen._distances[d1][2] == frozen._log_start == 8
        assert frozen._change_log == []
        oracle = FrozenGraph(DataGraph(company_db))
        exact = oracle.distances(oracle.node_of(tid("DEPARTMENT", "d1")))
        assert [served[node] for node in range(frozen.capacity)] == [
            depth if depth <= 2 else 0xFF
            for depth in (
                exact[oracle.node_of(frozen.tid_of(node))]
                for node in range(frozen.capacity)
            )
        ]
        # The next patch logs its own nodes, and only those.
        k0 = frozen.node_of(tid("DEPENDENT", "k0"))
        changeset = apply_to_database(company_db, [Delete(tid("DEPENDENT", "k0"))])
        apply_changeset(changeset, company_db, traversal_cache=cache)
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
        for node, (__, radius, *___) in held.items():
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
            apply_changeset(changeset, company_db, traversal_cache=cache)
            batches += 1
            assert len(frozen._change_log) <= length
        # Two nodes logged per batch (e4 and the appended dependent): the
        # row went with the first batch that took the log past its length.
        assert 2 * (batches - 1) <= length < 2 * batches
        assert frozen._change_log == []


class TestQueryRows:
    def test_a_wider_row_serves_the_narrower_request(
        self, data_graph, monkeypatch
    ):
        """Rows, balls and pair distances reach the graph once per view; a
        row prefetched at radius 4 serves radius 2 and 3, and radius 5
        (or unbounded) sweeps a wider one."""
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        calls = []
        distances, ball = FrozenGraph.distances, FrozenGraph.ball
        distances_block = FrozenGraph.distances_block

        def counted(self, node, radius=None):
            calls.append(("row", node, radius))
            return distances(self, node, radius)

        def counted_block(self, nodes, radius=None):
            calls.append(("block", radius))
            return distances_block(self, nodes, radius)

        def counted_ball(self, sources, radius):
            calls.append(("ball", tuple(sources), radius))
            return ball(self, sources, radius)

        monkeypatch.setattr(FrozenGraph, "distances", counted)
        monkeypatch.setattr(FrozenGraph, "distances_block", counted_block)
        monkeypatch.setattr(FrozenGraph, "ball", counted_ball)
        d1 = frozen.node_of(tid("DEPARTMENT", "d1"))
        e1 = frozen.node_of(tid("EMPLOYEE", "e1"))
        rows = QueryRows(cache)
        rows.prefetch([d1, d1], 4)
        assert (cache.misses, cache.dense_builds) == (1, 0)
        assert rows.row(d1, 2) == rows.row(d1, 3) == distances(frozen, d1, 4)
        assert calls == [("block", 4)]
        calls.clear()
        assert rows.distance(e1, d1, 5) == rows.distance(e1, d1, 5) == (
            distances(frozen, d1)[e1]
        )
        assert calls == [("ball", (e1,), 2)]
        calls.clear()
        assert rows.row(d1, 5) == distances(frozen, d1, 5)
        assert rows.row(d1, None) == rows.row(d1, 300) == distances(frozen, d1)
        assert calls == [("row", d1, 5), ("row", d1, None)]

    def test_a_query_builds_each_dense_row_at_most_once(self, monkeypatch):
        """A three-keyword bib text, AND full mode, AND top-10 and OR full
        mode, each on a fresh engine: the dense rows rebuilt from held
        levels are at most the distinct (node, radius) requests that
        reached the graph.  Before the query-scoped view the tree kernel
        rebuilt a row per keyword-tuple assignment (1 528 rebuilds for 23
        requests in AND full mode)."""
        sys.path.insert(0, os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
        ))
        try:
            import corpus
        finally:
            del sys.path[0]
        bib = corpus.generate("tiny", 11)
        database = bib.database()
        text = " ".join(bib.head_words[60:63])
        requested = set()
        distances = FrozenGraph.distances
        distances_block = FrozenGraph.distances_block

        def counted(self, node, radius=None):
            requested.add((node, radius))
            return distances(self, node, radius)

        def counted_block(self, nodes, radius=None):
            requested.update((node, radius) for node in nodes)
            return distances_block(self, nodes, radius)

        monkeypatch.setattr(FrozenGraph, "distances", counted)
        monkeypatch.setattr(FrozenGraph, "distances_block", counted_block)
        for semantics, top_k in (("and", None), ("and", 10), ("or", None)):
            requested.clear()
            engine = KeywordSearchEngine(database, result_cache_entries=0)
            assert engine.search(text, semantics=semantics, top_k=top_k)
            assert requested
            assert engine.traversal_cache.dense_builds <= len(requested)
