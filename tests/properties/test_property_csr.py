"""Property-based differential tests: the compiled CSR kernel.

Hypothesis drives synthetic database shapes and mutation sequences; on
every instance the CSR core must reproduce the reference core exactly
— paths, joining trees, engine rankings under both semantics — and an
incrementally patched :class:`~repro.graph.csr.FrozenGraph` must answer
exactly like a freshly compiled one.
"""

import copy
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import (
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.errors import IntegrityError, PrimaryKeyError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.relational.database import Database, TupleId
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    ForeignKey,
    Relation,
)
from repro.scale import snapshot as snapshot_module

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


def planted_engine(config):
    database = generate_company_like(config)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(2, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(2, database.count("EMPLOYEE")), seed=2)
    return KeywordSearchEngine(database)


class TestDifferentialInvariants:
    @relaxed
    @given(configs)
    def test_paths_identical_to_both_cores(self, config):
        engine = planted_engine(config)
        matches = match_keywords(engine.index, ("kwalpha", "kwbeta"))
        cache = TraversalCache(engine.data_graph)
        for source in matches[0].tuple_ids:
            for target in matches[1].tuple_ids:
                if source == target:
                    continue
                brute = list(
                    enumerate_simple_paths(engine.data_graph, source, target, 4)
                )
                csr = list(
                    csr_enumerate_simple_paths(
                        engine.data_graph, source, target, 4, cache=cache
                    )
                )
                assert csr == brute

    @relaxed
    @given(configs)
    def test_trees_identical_to_both_cores(self, config):
        engine = planted_engine(config)
        nodes = sorted(engine.data_graph.graph.nodes, key=str)
        cache = TraversalCache(engine.data_graph)
        for combo in zip(nodes[::5], nodes[1::5]):
            brute = list(
                enumerate_joining_trees(engine.data_graph, list(combo), 4)
            )
            csr = list(
                csr_enumerate_joining_trees(
                    engine.data_graph, list(combo), 4, cache=cache
                )
            )
            assert csr == brute

    @relaxed
    @given(configs, st.sampled_from(["and", "or"]))
    def test_engine_rankings_identical(self, config, semantics):
        database = planted_engine(config).database
        csr = KeywordSearchEngine(database, core="csr")
        brute = KeywordSearchEngine(database, core="reference")
        limits = SearchLimits(max_rdb_length=4, max_tuples=4)
        for query in ("kwalpha kwbeta", "kwalpha"):
            assert [
                (r.render(), r.score, r.rank)
                for r in csr.search(query, limits=limits, semantics=semantics)
            ] == [
                (r.render(), r.score, r.rank)
                for r in brute.search(query, limits=limits, semantics=semantics)
            ]


def _structural_mutations(database, salts):
    """Derive a valid mutation per salt from the current database state."""
    mutations = []
    for counter, salt in enumerate(salts):
        employees = database.tuples("EMPLOYEE")
        if salt % 3 == 2:
            victims = database.tuples("DEPENDENT")
            if victims:
                mutations.append([Delete(victims[salt % len(victims)].tid)])
                apply_to_database(database, mutations[-1])
                continue
        essn = employees[salt % len(employees)].tid.key[0]
        batch = [
            Insert(
                "DEPENDENT",
                {"ID": f"hz{counter}", "ESSN": essn,
                 "DEPENDENT_NAME": f"name{salt % 5}"},
            )
        ]
        apply_to_database(database, batch)
        mutations.append(batch)
    return mutations


class TestPatchedFrozenGraph:
    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
    )
    def test_patched_equals_recompiled(self, config, salts):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        cache = TraversalCache(graph)
        frozen = cache.frozen()
        for batch in _structural_mutations(replay, salts):
            changeset = apply_to_database(database, batch)
            apply_changeset(
                changeset, database, data_graph=graph, traversal_cache=cache
            )
        if frozen.compactions == 0:
            assert cache.frozen() is frozen
        recompiled = FrozenGraph(graph)
        live = cache.frozen()
        assert live.live_count() == recompiled.live_count()
        nodes = sorted(graph.graph.nodes, key=str)
        sample = nodes[:: max(1, len(nodes) // 6)]
        for source in sample:
            for target in sample:
                if source == target:
                    continue
                assert list(
                    csr_enumerate_simple_paths(graph, source, target, 4,
                                               cache=cache)
                ) == list(
                    enumerate_simple_paths(graph, source, target, 4)
                )
        for combo in zip(sample, sample[1:]):
            assert list(
                csr_enumerate_joining_trees(graph, list(combo), 4, cache=cache)
            ) == list(
                enumerate_joining_trees(graph, list(combo), 4)
            )


class TestVectorBlocksIdentical:
    """Multi-source BFS blocks equal per-source scalar rows, always.

    The block sweep on the vector backend (and its scalar fallback)
    must reproduce the one-source reference BFS row for row — on fresh
    graphs and after arbitrary mutation sequences, including tombstoned
    overrides and compaction-triggered recompiles.  When numpy is
    absent both graphs are scalar and the property still holds.
    """

    @relaxed
    @given(configs)
    def test_block_rows_equal_scalar_rows(self, config):
        graph = DataGraph(generate_company_like(config))
        scalar = FrozenGraph(graph, vector=False)
        vector = FrozenGraph(graph)
        sources = list(range(0, vector.capacity, 2))
        block = vector.distances_block(sources)
        for node in sources:
            assert block[node] == scalar.distances(node)
        assert vector.components() == scalar.components()

    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
        st.booleans(),
    )
    def test_block_rows_equal_after_mutations(self, config, salts, compact):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        scalar = FrozenGraph(graph, vector=False)
        vector = FrozenGraph(graph)
        if compact:  # force the recompile path on some examples
            for frozen in (scalar, vector):
                frozen.compaction_threshold = 0.0
                frozen.min_compaction_nodes = 1
        for batch in _structural_mutations(replay, salts):
            changeset = apply_to_database(database, batch)
            apply_changeset(changeset, database, data_graph=graph)
            scalar.apply_changeset(changeset)
            vector.apply_changeset(changeset)
        assert scalar.compactions == vector.compactions
        sources = list(range(0, vector.capacity, 2))
        block = vector.distances_block(sources)
        for node in sources:
            assert block[node] == scalar.distances(node)
        assert vector.components() == scalar.components()


def _assert_rows_clip_the_oracle(live, oracle):
    """Every bounded row ``live`` holds or sweeps afresh (radius 0–6)
    equals the recompiled ``oracle``'s exact row clipped at its radius."""
    alive = [node for node in range(live.capacity) if live._alive[node]]
    oracle_of = {node: oracle.node_of(live.tid_of(node)) for node in alive}
    for node in alive:
        exact = oracle.distances(oracle_of[node])
        rows = [(live._bfs_row_scalar(node, radius), radius) for radius in range(7)]
        held = live._distances.get(node)
        if held is not None and held[1] is not None:
            # Served as a kernel receives it: re-validated, grown, or swept anew.
            rows.append((live.distances(node, radius=held[1]), held[1]))
        for row, radius in rows:
            assert type(row) is bytearray and len(row) == live.capacity
            for other in alive:
                depth = exact[oracle_of[other]]
                assert row[other] == (depth if depth <= radius else 0xFF)


class TestBoundedRowsClipTheOracle:
    """A radius-bounded row is the oracle row with everything past the
    radius replaced by ``0xFF`` — freshly swept, and for every row that
    survives a changeset in the patched graph's cache."""

    @relaxed
    @given(configs)
    def test_bounded_rows_on_fresh_graphs(self, config):
        graph = DataGraph(generate_company_like(config))
        _assert_rows_clip_the_oracle(FrozenGraph(graph), FrozenGraph(graph))

    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
    )
    def test_surviving_rows_equal_recompiled(self, config, salts):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        live = FrozenGraph(graph)
        for batch in _structural_mutations(replay, salts):
            # Re-warm before every patch so each changeset meets rows of
            # every radius, near and far from what it touches.
            for node in range(live.capacity):
                if live._alive[node]:
                    live.distances(node, radius=node % 7)
            changeset = apply_to_database(database, batch)
            apply_changeset(changeset, database, data_graph=graph)
            live.apply_changeset(changeset)
            _assert_rows_clip_the_oracle(live, FrozenGraph(graph))


def _assert_log_bounded(live):
    """The change log starts at the LRU head's stamp and holds no more
    nodes than that row has bytes; with no row held it is empty."""
    if not live._distances:
        assert not live._change_log
        return
    row, __, stamp = next(iter(live._distances.values()))
    assert stamp == live._log_start
    assert len(live._change_log) <= memoryview(row).nbytes


class TestRevalidatedRowsClipTheOracle:
    """Rows are re-validated when served, not per patch: under any
    interleaving of patches and requests, every row ``distances`` /
    ``distances_block`` returns is ``capacity`` long and equals the
    recompiled oracle clipped at its radius (or a wider held radius),
    and the change log stays bounded by the oldest held row."""

    @relaxed
    @given(
        configs,
        st.lists(
            st.tuples(st.sampled_from(("apply", "row", "block")),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=16,
        ),
        st.booleans(),
    )
    def test_served_rows_equal_the_recompiled_oracle(self, config, steps, tight):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        live = FrozenGraph(graph)
        if tight:  # evictions, and heads dropped by the log bound
            live.max_distance_bytes = 3 * live.capacity
        for node in range(live.capacity):
            live.distances(node, radius=node % 7)
        batches = iter(_structural_mutations(
            replay, [salt for kind, salt in steps if kind == "apply"]
        ))
        for kind, salt in steps:
            if kind == "apply":
                changeset = apply_to_database(database, next(batches))
                apply_changeset(changeset, database, data_graph=graph)
                live.apply_changeset(changeset)
                _assert_log_bounded(live)
                continue
            alive = [node for node in range(live.capacity) if live._alive[node]]
            sources = alive[salt % len(alive)::1 + salt % 3]
            radius = salt % 7
            served = (
                live.distances_block(sources, radius) if kind == "block"
                else {node: live.distances(node, radius) for node in sources}
            )
            oracle = FrozenGraph(graph)
            oracle_of = {node: oracle.node_of(live.tid_of(node)) for node in alive}
            for node, row in served.items():
                assert type(row) is bytearray and len(row) == live.capacity
                exact = oracle.distances(oracle_of[node])
                for other in alive:
                    depth = exact[oracle_of[other]]
                    if depth <= radius:
                        assert row[other] == depth
                    else:  # beyond, or exact inside a wider held radius
                        assert row[other] in (depth, 0xFF)


# ----------------------------------------------------------------------
# delta-built rows
# ----------------------------------------------------------------------
def _org_database():
    """PERSON with a self-referencing BOSS key, TASK with two keys onto
    PERSON — the shapes where one row holds several entries for one
    neighbour, or an entry for its own owner."""
    schema = DatabaseSchema(name="org")
    schema.add_relation(
        Relation("PERSON", [AttributeDef("ID"), AttributeDef("BOSS")],
                 primary_key=["ID"])
    )
    schema.add_relation(
        Relation(
            "TASK",
            [AttributeDef("ID"), AttributeDef("OWNER"), AttributeDef("REVIEWER")],
            primary_key=["ID"],
        )
    )
    schema.add_foreign_key(
        ForeignKey("fk_boss", "PERSON", ("BOSS",), "PERSON", ("ID",))
    )
    schema.add_foreign_key(
        ForeignKey("fk_owner", "TASK", ("OWNER",), "PERSON", ("ID",))
    )
    schema.add_foreign_key(
        ForeignKey("fk_reviewer", "TASK", ("REVIEWER",), "PERSON", ("ID",))
    )
    database = Database(schema)
    for number in range(4):
        database.insert(
            "PERSON",
            {"ID": f"p{number:02d}", "BOSS": f"p{number // 2:02d}" if number else None},
        )
    for number in range(3):
        database.insert(
            "TASK",
            {"ID": f"t{number:02d}", "OWNER": f"p{number:02d}",
             "REVIEWER": f"p{(number + number % 2) % 4:02d}"},
        )
    return database


_ORG_KINDS = (
    "hire", "reboss", "open", "reassign", "close", "replace", "revive", "fire",
)


def _org_batch(database, kind, salt, closed):
    """One valid-looking batch derived from the current state.  Bosses
    are always drawn from people with a smaller-or-equal id: self-loops
    occur, two-person reference cycles (whose two edges would collide on
    one networkx multigraph key) never do."""
    people = sorted(record.tid.key[0] for record in database.tuples("PERSON"))
    tasks = sorted(record.tid.key[0] for record in database.tuples("TASK"))
    pick = lambda items, shift=0: items[(salt + shift) % len(items)]
    if kind == "hire":
        return [Insert("PERSON", {"ID": f"p{10 + salt % 80:02d}",
                                  "BOSS": pick(people)})]
    if kind == "reboss":
        person = pick(people)
        bosses = [other for other in people if other <= person] + [None]
        return [Update(TupleId("PERSON", (person,)), {"BOSS": pick(bosses, 1)})]
    if kind == "open":
        return [Insert("TASK", {"ID": f"t{10 + salt % 80:02d}",
                                "OWNER": pick(people),
                                "REVIEWER": pick(people, salt % 2)})]
    if kind == "revive" and closed:
        return [Insert("TASK", {"ID": pick(sorted(closed)),
                                "OWNER": pick(people, 1),
                                "REVIEWER": pick(people, 2)})]
    if kind == "fire":
        return [Delete(TupleId("PERSON", (pick(people),)))]
    if not tasks:
        return []
    task = TupleId("TASK", (pick(tasks),))
    if kind == "reassign":
        return [Update(task, {"OWNER": pick(people, 1),
                              "REVIEWER": pick(people + [None], 2)})]
    if kind == "close":
        return [Delete(task)]
    return [  # replace (and revive with nothing closed yet)
        Delete(task),
        Insert("TASK", {"ID": task.key[0], "OWNER": pick(people, 3),
                        "REVIEWER": pick(people, 1)}),
    ]


def _rows(frozen):
    """Every live row, by tuple id, entries in order and fully decoded."""
    rows = {}
    for node in range(frozen.capacity):
        if not frozen._alive[node]:
            continue
        targets, keys, datas = frozen._row_lists(node)
        rows[frozen.tid_of(node)] = [
            (frozen.tid_of(other), key, data["referencing"],
             data["foreign_key"].name)
            for other, key, data in zip(targets, keys, datas)
        ]
    return rows


def _org_corner_cases():
    """:func:`_org_database` plus every shape the multigraph treats
    specially: NULL keys, a self-loop, a two-person ``fk_boss`` cycle
    (two references, one multigraph key), both task keys onto one
    person, and dangling references left in by deferred checking."""
    database = _org_database()
    database.enforce_foreign_keys = False
    person = lambda key: TupleId("PERSON", (key,))
    database.update(person("p03"), {"BOSS": "p03"})
    database.update(person("p00"), {"BOSS": "p01"})  # p01 already reports to p00
    database.insert("PERSON", {"ID": "p04", "BOSS": None})
    database.insert("PERSON", {"ID": "p05", "BOSS": "p88"})
    database.insert("TASK", {"ID": "t03", "OWNER": None, "REVIEWER": None})
    database.insert("TASK", {"ID": "t04", "OWNER": "p02", "REVIEWER": "p02"})
    database.insert("TASK", {"ID": "t05", "OWNER": "p77", "REVIEWER": "p04"})
    return database


def _payload_sharing(frozen):
    """Per CSR entry, the first entry holding the same payload object."""
    first: dict[int, int] = {}
    return [
        first.setdefault(id(data), position)
        for position, data in enumerate(frozen._edge_data)
    ]


class TestDirectRowsEqualGraphRows:
    """A first compile straight from ``Database.references`` equals one
    that reads an already materialised multigraph, bit for bit."""

    def _assert_identical(self, database):
        lazy = DataGraph(database)
        direct = FrozenGraph(lazy)
        assert not lazy.materialized
        forced_graph = DataGraph(database)
        assert forced_graph.graph is not None and forced_graph.materialized
        forced = FrozenGraph(forced_graph)
        assert list(direct._tid_of) == list(forced._tid_of)
        assert direct._keys == forced._keys
        assert direct._offsets == forced._offsets
        assert direct._targets == forced._targets
        assert direct._edge_keys == forced._edge_keys
        assert _rows(direct) == _rows(forced)
        assert _payload_sharing(direct) == _payload_sharing(forced)
        return direct

    @relaxed
    @given(configs)
    def test_generated_databases(self, config):
        self._assert_identical(generate_company_like(config))

    def test_multigraph_corner_cases(self):
        database = _org_corner_cases()
        direct = self._assert_identical(database)
        person = lambda key: TupleId("PERSON", (key,))
        rows = _rows(direct)
        # the self-loop sits once in its one row
        assert rows[person("p03")].count(
            (person("p03"), "fk_boss", person("p03"), "fk_boss")
        ) == 1
        # the cycle is one edge, carrying the later (store-order) reference
        assert [entry for entry in rows[person("p00")]
                if entry[0] == person("p01")] == [
            (person("p01"), "fk_boss", person("p01"), "fk_boss")
        ]
        # NULL and dangling references contribute nothing
        assert rows[person("p05")] == []
        assert rows[TupleId("TASK", ("t03",))] == []
        assert len(rows[TupleId("TASK", ("t05",))]) == 1
        assert len(rows[TupleId("TASK", ("t04",))]) == 2


class TestDeltaRows:
    """Rows patched from edge deltas equal a from-scratch compile — on a
    materialised data graph and on a snapshot engine that never builds
    one — and so does the fold of the patched graph."""

    @relaxed
    @given(
        st.lists(
            st.tuples(st.sampled_from(_ORG_KINDS),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=12,
        ),
        st.booleans(),
    )
    def test_delta_rows_equal_fresh_compile(self, program, restored):
        with tempfile.TemporaryDirectory() as directory:
            engine = KeywordSearchEngine(_org_database())
            if restored:
                path = os.path.join(directory, "org.snap")
                engine.save(path)
                engine = KeywordSearchEngine.open(path)
            try:
                self._run(engine, program, restored)
            finally:
                engine.close()

    @pytest.mark.parametrize("restored", [False, True])
    def test_named_shapes_patch_like_a_fresh_compile(self, restored, tmp_path):
        person = lambda key: TupleId("PERSON", (key,))
        task = lambda key: TupleId("TASK", (key,))
        engine = KeywordSearchEngine(_org_database())
        if restored:
            engine.save(tmp_path / "org.snap")
            engine = KeywordSearchEngine.open(tmp_path / "org.snap")
        frozen = engine.traversal_cache.frozen()
        try:
            batches = [
                # a self-loop, then gone again
                [Update(person("p03"), {"BOSS": "p03"})],
                [Update(person("p03"), {"BOSS": None})],
                # both keys of one task onto one person; then one re-pointed
                [Update(task("t01"), {"OWNER": "p02", "REVIEWER": "p02"})],
                [Update(task("t01"), {"REVIEWER": "p00"})],
                # delete-then-reinsert inside one batch
                [Delete(task("t00")),
                 Insert("TASK", {"ID": "t00", "OWNER": "p03", "REVIEWER": "p03"})],
                # tombstone, then append under the same identity
                [Delete(task("t02"))],
                [Insert("TASK", {"ID": "t02", "OWNER": "p01", "REVIEWER": None})],
                # a tuple and all its edges in one batch
                [Insert("PERSON", {"ID": "p09", "BOSS": "p00"}),
                 Insert("TASK", {"ID": "t09", "OWNER": "p09", "REVIEWER": "p09"})],
                [Delete(task("t09")), Delete(person("p09"))],
            ]
            shapes = set()
            for batch in batches:
                changeset = engine.apply(batch)
                if changeset.tuples_replaced:
                    shapes.add("replaced")
                if any(e.referencing == e.referenced
                       for e in changeset.edges_added):
                    shapes.add("self-loop")
                if frozen.node_of(task("t02")) == frozen.capacity - 1:
                    shapes.add("tombstone+append")
                assert _rows(frozen) == _rows(
                    FrozenGraph(DataGraph(engine.database))
                )
            assert shapes == {"replaced", "self-loop", "tombstone+append"}
            assert frozen.compactions == 0
            if restored:
                assert not engine.data_graph.materialized
        finally:
            engine.close()

    @relaxed
    @given(
        st.lists(
            st.tuples(st.sampled_from(_ORG_KINDS),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=12,
        ),
        st.booleans(),
    )
    def test_delta_meta_counts_equal_a_fold(self, program, restored):
        """A delta compaction counts ``tuples`` / ``nodes`` / ``entries``
        off the patched graph; a fold of a copy writes exactly those."""
        with tempfile.TemporaryDirectory() as directory, mock.patch.object(
            snapshot_module, "DELTA_FRACTION", 0
        ):
            path = os.path.join(directory, "org.snap")
            engine = KeywordSearchEngine(_org_database())
            engine.save(path)
            if restored:
                engine = KeywordSearchEngine.open(path, wal=True)
            else:
                engine.attach_wal()
            try:
                closed = set()
                for kind, salt in program:
                    try:
                        changeset = engine.apply(
                            _org_batch(engine.database, kind, salt, closed)
                        )
                    except (IntegrityError, PrimaryKeyError):
                        continue
                    closed.update(
                        tid.key[0] for tid in changeset.tuples_removed
                        if tid.relation == "TASK"
                    )
                engine.apply([])  # at least one record: the delta path runs
                frozen = engine.traversal_cache.frozen()
                stamp = frozen.compile_stamp
                engine.compact_wal()
                assert frozen.compile_stamp == stamp
                with snapshot_module.Snapshot(path) as snapshot:
                    assert "delta" in snapshot.sections()
                    meta = snapshot.meta
                folded = copy.copy(frozen)
                folded._compile()
                assert meta["tuples"] == meta["nodes"] == folded.capacity
                assert meta["nodes"] == engine.database.count()
                assert meta["entries"] == len(folded._targets)
            finally:
                engine.close()

    def _run(self, engine, program, restored):
        frozen = engine.traversal_cache.frozen()
        closed = set()
        for kind, salt in program:
            batch = _org_batch(engine.database, kind, salt, closed)
            try:
                changeset = engine.apply(batch)
            except (IntegrityError, PrimaryKeyError):
                continue  # rolled back: still referenced / id taken
            closed.difference_update(
                tid.key[0] for tid in changeset.tuples_added
            )
            closed.update(
                tid.key[0] for tid in changeset.tuples_removed
                if tid.relation == "TASK"
            )
            if frozen.compactions == 0:
                assert engine.traversal_cache.frozen() is frozen
            fresh = FrozenGraph(DataGraph(engine.database))
            assert _rows(frozen) == _rows(fresh)
        frozen._compile()
        fresh = FrozenGraph(DataGraph(engine.database))
        assert _rows(frozen) == _rows(fresh)
        assert [frozen.tid_of(n) for n in range(frozen.capacity)] == [
            fresh.tid_of(n) for n in range(fresh.capacity)
        ]
        assert frozen._ints_sorted and not frozen._override
        if restored:
            assert not engine.data_graph.materialized
