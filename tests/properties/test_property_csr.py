"""Property-based differential tests: the compiled CSR kernel.

Hypothesis drives synthetic database shapes and mutation sequences; on
every instance the CSR kernels must reproduce the networkx kernels of
:mod:`repro.graph.traversal` exactly — paths, joining trees, and the
engine's rankings against :func:`repro.oracle.search` under both
semantics — an incrementally patched
:class:`~repro.graph.csr.FrozenGraph` must answer exactly like a freshly
compiled one, and instance ambiguity read off the compiled rows must
count what a walk of the multigraph counts.
"""

import copy
import itertools
import os
import tempfile
from array import array
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.ranking import InstanceAmbiguityRanker
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import (
    _UNREACHABLE,
    FrozenGraph,
    QueryRows,
    _held_bytes,
    _index_nodes,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import (
    TuplePathStep,
    _sort_key,
    enumerate_joining_trees,
    enumerate_simple_paths,
)
from repro.errors import IntegrityError, PrimaryKeyError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.oracle import search as oracle_search
from repro.relational.database import Database, Tuple, TupleId
from repro.relational.index import InvertedIndex
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
                    csr_enumerate_simple_paths(cache, source, target, 4)
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
                csr_enumerate_joining_trees(cache, list(combo), 4)
            )
            assert csr == brute

    @relaxed
    @given(configs, st.sampled_from(["and", "or"]))
    def test_engine_rankings_identical(self, config, semantics):
        csr = planted_engine(config)
        limits = SearchLimits(max_rdb_length=4, max_tuples=4)
        for query in ("kwalpha kwbeta", "kwalpha"):
            assert [
                (r.render(), r.score, r.rank)
                for r in csr.search(query, limits=limits, semantics=semantics)
            ] == [
                (r.render(), r.score, r.rank)
                for r in oracle_search(
                    csr.database, query, limits=limits, semantics=semantics
                )
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
            apply_changeset(changeset, database, traversal_cache=cache)
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
                    csr_enumerate_simple_paths(cache, source, target, 4)
                ) == list(
                    enumerate_simple_paths(graph, source, target, 4)
                )
        for combo in zip(sample, sample[1:]):
            assert list(
                csr_enumerate_joining_trees(cache, list(combo), 4)
            ) == list(
                enumerate_joining_trees(graph, list(combo), 4)
            )


def _assert_equals_fresh_compile(live, fresh):
    """``live``'s unbounded block rows equal those of ``fresh``, a
    compile of the same database, node for node through the tuple ids;
    tombstoned slots read unreachable."""
    alive = [node for node in range(live.capacity) if live._alive[node]]
    dead = [node for node in range(live.capacity) if not live._alive[node]]
    assert fresh.capacity == len(alive)
    fresh_of = {node: fresh.node_of(live.tid_of(node)) for node in alive}
    sources = alive[::2]
    block = live.distances_block(sources)
    assert sorted(block) == sources
    for node in sources:
        row, exact = block[node], fresh.distances(fresh_of[node])
        assert [row[other] for other in alive] == [
            exact[fresh_of[other]] for other in alive
        ]
        assert all(row[other] > live.capacity for other in dead)


class TestBlocksEqualAFreshCompile:
    """Multi-source distance blocks equal those of a graph compiled
    afresh — on fresh graphs and after arbitrary
    mutation sequences, including tombstoned overrides and
    compaction-triggered recompiles."""

    @relaxed
    @given(configs)
    def test_block_rows_equal_scalar_rows(self, config):
        graph = DataGraph(generate_company_like(config))
        _assert_equals_fresh_compile(FrozenGraph(graph), FrozenGraph(graph))

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
        live = FrozenGraph(DataGraph(database))
        if compact:  # force the recompile path on some examples
            live.compaction_threshold = 0.0
            live.min_compaction_nodes = 1
        for batch in _structural_mutations(replay, salts):
            live.apply_changeset(apply_to_database(database, batch))
        assert live.compactions or not compact
        _assert_equals_fresh_compile(live, FrozenGraph(DataGraph(database)))


def _assert_rows_clip_the_oracle(live, oracle):
    """Every bounded row ``live`` holds or sweeps afresh (radius 0–6)
    equals the recompiled ``oracle``'s exact row clipped at its radius."""
    alive = [node for node in range(live.capacity) if live._alive[node]]
    oracle_of = {node: oracle.node_of(live.tid_of(node)) for node in alive}
    for node in alive:
        exact = oracle.distances(oracle_of[node])
        rows = [(live._bfs_row_scalar(node, radius)[0], radius) for radius in range(7)]
        held = live._distances.get(node)
        if held is not None and held[1] is not None:
            # Served as a kernel receives it: re-validated and built, or swept anew.
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
            live.apply_changeset(changeset)
            _assert_rows_clip_the_oracle(live, FrozenGraph(graph))


def _assert_pairs_meet_in_the_middle(live):
    """For budgets B = 1–8 and every live pair (s, t), a ⌊B/2⌋ ball
    around s met with t's ⌈B/2⌉ row gives t's unbounded oracle row at s,
    clipped at B, and ``meets`` a ⌈B/2⌉ sweep from t with that ball iff
    d(s, t) ≤ B; each ball is the oracle row clipped at its radius, in
    BFS order — a ball from many sources their nearest one's."""
    alive = [node for node in range(live.capacity) if live._alive[node]]
    exact = {node: live._bfs_row_scalar(node)[0] for node in alive}
    for budget in range(1, 9):
        radius = budget // 2
        balls = {node: live.ball((node,), radius) for node in alive}
        for source, ball in balls.items():
            assert ball == {
                other: exact[source][other]
                for other in alive if exact[source][other] <= radius
            }
            assert list(ball.values()) == sorted(ball.values())
        sources = alive[::3]
        ball = live.ball(sources, radius)
        assert ball == {
            other: depth for other in alive
            if (depth := min(exact[source][other] for source in sources))
            <= radius
        }
        assert list(ball.values()) == sorted(ball.values())
        for target in alive:
            row = live.distances(target, budget - radius)
            for source in alive:
                depth = exact[target][source]
                assert live.distance_between(balls[source], row, budget) == (
                    depth if depth <= budget else _UNREACHABLE
                ), (source, target, budget)
                assert live.meets(
                    (target,), budget - radius, balls[source]
                ) == (depth <= budget), (source, target, budget)


class TestPairBoundMeetsInTheMiddle:
    """A pair bound met in the middle is exact up to its budget — on
    fresh graphs, after changesets (tombstoned and appended nodes,
    override rows, re-validated held rows), and when a wider held row,
    radius 5 or unbounded, serves the ⌈B/2⌉ request."""

    @relaxed
    @given(configs)
    def test_fresh_graphs(self, config):
        _assert_pairs_meet_in_the_middle(
            FrozenGraph(DataGraph(generate_company_like(config)))
        )

    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
    )
    def test_after_changesets(self, config, salts):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        live = FrozenGraph(DataGraph(database))
        for batch in _structural_mutations(replay, salts):
            # Held rows of every radius meet each patch, to be re-validated
            # and grown when the bound next reads them.
            for node in range(live.capacity):
                if live._alive[node]:
                    live.distances(node, radius=node % 5)
            live.apply_changeset(apply_to_database(database, batch))
        _assert_pairs_meet_in_the_middle(live)

    @relaxed
    @given(configs, st.sampled_from([5, None]))
    def test_wider_held_rows(self, config, held):
        live = FrozenGraph(DataGraph(generate_company_like(config)))
        for node in range(live.capacity):
            live.distances(node, held)
        misses = live.misses
        _assert_pairs_meet_in_the_middle(live)
        assert live.misses == misses  # every ⌈B/2⌉ request was a wider row


def _assert_query_rows_symmetric(cache):
    """For budgets B = 1–8, in mixed order, and every live pair (a, b),
    with every other node's ⌈B/2⌉ row prefetched,
    ``QueryRows.distance(a, b, B)`` and ``distance(b, a, B)`` — each asked
    first in its own view — equal the unbounded oracle row clipped at B,
    whichever end holds the row (or a narrower or wider one)."""
    live = cache.frozen()
    alive = [node for node in range(live.capacity) if live._alive[node]]
    exact = {node: live._bfs_row_scalar(node)[0] for node in alive}
    forward, backward = QueryRows(cache), QueryRows(cache)
    for budget in (5, 2, 8, 3, 1, 6, 4, 7):
        for rows in (forward, backward):
            rows.prefetch(alive[::2], budget - budget // 2)
        for a in alive:
            for b in alive:
                depth = exact[a][b]
                expected = depth if depth <= budget else _UNREACHABLE
                assert forward.distance(a, b, budget) == expected
                assert backward.distance(b, a, budget) == expected
                assert forward.distance(b, a, budget) == expected


class TestQueryRowsDistanceIsSymmetric:
    """A view's pair distance does not depend on the order it is asked
    in nor on which end holds the ⌈B/2⌉ row — on fresh graphs and after
    changesets (tombstoned and appended nodes, override rows, held rows
    re-validated when the view reads them)."""

    @relaxed
    @given(configs)
    def test_fresh_graphs(self, config):
        _assert_query_rows_symmetric(
            TraversalCache(DataGraph(generate_company_like(config)))
        )

    @relaxed
    @given(
        configs,
        st.lists(st.integers(min_value=0, max_value=1 << 16),
                 min_size=1, max_size=5),
    )
    def test_after_changesets(self, config, salts):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        cache = TraversalCache(DataGraph(database))
        live = cache.frozen()
        for batch in _structural_mutations(replay, salts):
            for node in range(live.capacity):
                if live._alive[node]:
                    live.distances(node, radius=node % 4)
            cache.apply_changeset(apply_to_database(database, batch))
        _assert_query_rows_symmetric(cache)


def _assert_log_bounded(live):
    """The change log starts at the LRU head's stamp and holds no more
    nodes than the capacity that row was stamped at; with no row held it
    is empty."""
    if not live._distances:
        assert not live._change_log
        return
    __, ___, stamp, length = next(iter(live._distances.values()))
    assert stamp == live._log_start
    assert len(live._change_log) <= length


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


class TestHeldLevelsServeTheOracle:
    """The cache holds each row as its BFS levels: under any interleaving
    of patches (folding ones too), row and block requests (unbounded ones
    too) and LRU pressure, every served row is ``capacity`` long and
    equals the recompiled oracle clipped at the radius it was held or
    swept at, and the byte count is the sum of what the entries hold."""

    @relaxed
    @given(
        configs,
        st.lists(
            st.tuples(st.sampled_from(("apply", "row", "block")),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=16,
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_served_rows_and_held_bytes(self, config, steps, tight, fold):
        database = generate_company_like(config)
        replay = generate_company_like(config)
        graph = DataGraph(database)
        live = FrozenGraph(graph)
        if tight:  # the budget holds a few small balls
            live.max_distance_bytes = 2048
        if fold:  # every patch folds, emptying the cache
            live.compaction_threshold = 0.0
            live.min_compaction_nodes = 1
        batches = iter(_structural_mutations(
            replay, [salt for kind, salt in steps if kind == "apply"]
        ))
        for kind, salt in steps:
            if kind == "apply":
                changeset = apply_to_database(database, next(batches))
                live.apply_changeset(changeset)
            else:
                alive = [node for node in range(live.capacity) if live._alive[node]]
                sources = alive[salt % len(alive)::1 + salt % 3]
                radius = None if salt % 8 == 7 else salt % 7
                served = (
                    live.distances_block(sources, radius) if kind == "block"
                    else {node: live.distances(node, radius) for node in sources}
                )
                oracle = FrozenGraph(graph)
                oracle_of = {
                    node: oracle.node_of(live.tid_of(node)) for node in alive
                }
                for node, row in served.items():
                    assert len(row) == live.capacity
                    exact = oracle.distances(oracle_of[node])
                    depths = {other: exact[oracle_of[other]] for other in alive}
                    if type(row) is not bytearray:  # unbounded: serves any
                        assert {other: row[other] for other in alive} == depths
                        continue
                    assert radius is not None
                    # The radius it was held at: its deepest exact slot,
                    # at least the one asked for unless the ball ran out.
                    held = max(depth for depth in row if depth != 0xFF)
                    assert held >= radius or held == max(
                        depth for depth in depths.values() if depth < _UNREACHABLE
                    )
                    assert {other: row[other] for other in alive} == {
                        other: depth if depth <= held else 0xFF
                        for other, depth in depths.items()
                    }
            assert live._distance_bytes == sum(
                _held_bytes(levels) for levels, *__ in live._distances.values()
            ) == live.memory_footprint()["distances"]
            assert live._distance_bytes <= live.max_distance_bytes or (
                len(live._distances) == 1
            )


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
        entries = rows[frozen.tid_of(node)] = []
        for other, key, ref in zip(*frozen._row_lists(node)):
            data = frozen._payload(node, other, key, ref)
            entries.append((frozen.tid_of(other), frozen._key_name(key), data["referencing"],
                            data["foreign_key"].name))
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


def _cycle_batches():
    """The batches that reshape a two-person ``fk_boss`` cycle, by name:
    ``(database, batch)`` — drop the reference the cycle's one edge
    carries, close a cycle with a second reference, and re-insert a
    cycle member so the later reference in store order changes sides."""
    person = lambda key: TupleId("PERSON", (key,))
    task = TupleId("TASK", ("t00",))
    return {
        "dropped": (
            _org_corner_cases(), [Update(person("p01"), {"BOSS": None})],
        ),
        "closed": (
            _org_database(), [Update(person("p00"), {"BOSS": "p01"})],
        ),
        "reinserted": (
            _org_corner_cases(),
            [
                Update(task, {"OWNER": None, "REVIEWER": None}),
                Update(person("p01"), {"BOSS": None}),
                Delete(person("p00")),
                Insert("PERSON", {"ID": "p00", "BOSS": "p01"}),
                Update(person("p01"), {"BOSS": "p00"}),
            ],
        ),
    }


def _two_word_texts(engine):
    """Every pair of distinct tokens of the engine's vocabulary."""
    words = sorted(engine.index.vocabulary())
    return [f"{left} {right}" for left, right in itertools.combinations(words, 2)]


def _tied_keys_database():
    """:func:`_org_database` plus person keys ``1`` and ``"1"`` (and
    ``2`` / ``"2"``) — distinct keys that render alike, so they share a
    ``_sort_key`` and the compile's rank ties decide their order — as a
    loader that skips type coercion stores them: ``"1"`` first in store
    order, a cycle between ``1`` and ``"1"``, and rows holding both; task
    keys ``"9"`` and ``9`` tie in a relation that is not sorted first."""
    database = _org_database()
    database.enforce_foreign_keys = False
    rows = [
        ("PERSON", ("1",), {"ID": "1", "BOSS": 1}),
        ("PERSON", (2,), {"ID": 2, "BOSS": "p01"}),
        ("PERSON", (1,), {"ID": 1, "BOSS": "1"}),
        ("PERSON", ("2",), {"ID": "2", "BOSS": "p01"}),
        ("TASK", ("t09",), {"ID": "t09", "OWNER": 1, "REVIEWER": "1"}),
        ("TASK", ("t10",), {"ID": "t10", "OWNER": "2", "REVIEWER": 2}),
        ("TASK", ("9",), {"ID": "9", "OWNER": "p02", "REVIEWER": None}),
        ("TASK", (9,), {"ID": 9, "OWNER": "p02", "REVIEWER": None}),
    ]
    for relation, key, values in rows:
        database._tuples[relation][key] = Tuple(TupleId(relation, key), values)
    return database


def _multigraph_columns(data_graph):
    """The CSR columns of the materialised networkx multigraph: nodes in
    ``_sort_key`` order, each row the node's multigraph edges in
    expansion order — ``(neighbour's sort key, FK name)``, ties in
    multigraph order."""
    graph = data_graph.graph
    tids = sorted(graph.nodes, key=_sort_key)
    node_of = _index_nodes(tids)
    offsets, targets, keys, refs = [0], [], [], []
    for tid in tids:
        row = sorted(
            graph.edges(tid, keys=True, data=True),
            key=lambda edge: (_sort_key(edge[1]), edge[2]),
        )
        for __, other, key, data in row:
            targets.append(node_of[other.relation][other.key])
            keys.append(key)
            refs.append(data["referencing"] == tid)
        offsets.append(len(targets))
    return tids, array("i", offsets), array("i", targets), keys, bytearray(refs)


def _columns(frozen):
    """A compiled graph's interning table and CSR columns."""
    return (
        list(frozen._tid_of), frozen._offsets, frozen._targets,
        list(map(frozen._key_name, frozen._edge_keys)), frozen._edge_refs,
    )


def _unread_mutations(database, salts):
    """Insert and delete batches chosen from the columns, so the rows
    they name stay unread until the batch runs."""
    for counter, salt in enumerate(salts):
        __, dependents, ___ = database.rows("DEPENDENT")
        if salt % 3 == 2 and dependents:
            batch = [Delete(dependents[salt % len(dependents)])]
        else:
            __, employees, ___ = database.rows("EMPLOYEE")
            batch = [Insert("DEPENDENT", {
                "ID": f"hz{counter}", "ESSN": employees[salt % len(employees)].key[0],
                "DEPENDENT_NAME": f"name{salt % 5}",
            })]
        apply_to_database(database, batch)


def _cold_build(database):
    """What a cold build makes of a database: its posting columns and
    its first compile's interning table and CSR columns."""
    postings = InvertedIndex(database)._postings._columns
    return (
        postings.directory(), postings.offsets, postings.nodes,
        postings.attributes, postings.flags, list(postings.tid_of),
        _columns(FrozenGraph(DataGraph(database))),
    )


class TestColumnRowsEqualBuiltRows:
    """A cold build over rows still held as columns equals one over the
    same database with some rows, or every row, read into a ``Tuple``:
    the same posting columns and the same CSR offsets, targets, edge
    keys, refs and ``tid_of``, after inserts and deletes too."""

    @relaxed
    @given(configs, st.lists(st.integers(0, 1 << 16), max_size=4), st.data())
    def test_generated_databases(self, config, salts, data):
        untouched, some, every = (generate_company_like(config) for __ in range(3))
        for database in (untouched, some, every):
            _unread_mutations(database, salts)
        tids = [tid for relation in some.schema.relations
                for tid in some.rows(relation.name)[1]]
        for tid in data.draw(st.lists(st.sampled_from(tids), unique=True)):
            some.tuple(tid)
        list(every.all_tuples())
        assert _cold_build(untouched) == _cold_build(some) == _cold_build(every)

    def test_corner_cases(self):
        """Self-loops, a two-tuple cycle, NULL and dangling references,
        and a store mixing read and unread rows."""
        untouched, every = _org_corner_cases(), _org_corner_cases()
        list(every.all_tuples())
        assert _cold_build(untouched) == _cold_build(every)


class TestDirectRowsEqualGraphRows:
    """The first compile, filled in bulk straight from the stored
    references, equals the CSR form of the materialised multigraph
    array by array, and a fold of itself (``_compile()`` through
    ``_rows_from_self``)."""

    def _assert_identical(self, database):
        lazy = DataGraph(database)
        direct = FrozenGraph(lazy)
        assert not lazy.materialized
        assert _columns(direct) == _multigraph_columns(DataGraph(database))
        return direct

    def _assert_fold_identical(self, database):
        frozen = FrozenGraph(DataGraph(database))
        compiled = _columns(frozen)
        with mock.patch.object(
            FrozenGraph, "_rows_from_self", autospec=True,
            side_effect=FrozenGraph._rows_from_self,
        ) as fold:
            frozen._compile()
        assert fold.call_count == 1
        assert _columns(frozen) == compiled

    @relaxed
    @given(configs)
    def test_generated_databases(self, config):
        self._assert_identical(generate_company_like(config))

    @relaxed
    @given(configs)
    def test_first_compile_equals_its_fold(self, config):
        self._assert_fold_identical(generate_company_like(config))

    @pytest.mark.parametrize("build", [_org_corner_cases, _tied_keys_database])
    def test_corner_cases_fold_to_themselves(self, build):
        self._assert_fold_identical(build())

    def test_tied_keys_keep_store_order(self):
        database = _tied_keys_database()
        direct = self._assert_identical(database)
        person = lambda key: TupleId("PERSON", (key,))
        tids = list(direct._tid_of)
        # equal renderings, store order: "1" was stored before 1
        assert tids.index(person("1")) + 1 == tids.index(person(1))
        assert tids.index(person(2)) + 1 == tids.index(person("2"))
        rows = _rows(direct)
        # p01's row: two tied reports under one FK, by node
        assert [entry[0] for entry in rows[person("p01")]
                if entry[0] in (person(2), person("2"))
                ] == [person(2), person("2")]
        # a task's row: tied neighbours by FK name before node
        assert [entry[:2] for entry in rows[TupleId("TASK", ("t10",))]] == [
            (person("2"), "fk_owner"), (person(2), "fk_reviewer"),
        ]
        # p02's row: its boss before its tasks, the two tied ones adjacent
        neighbours = [entry[0] for entry in rows[person("p02")]]
        assert neighbours[0] == person("p01")
        at = neighbours.index(TupleId("TASK", ("9",)))
        assert neighbours[at + 1] == TupleId("TASK", (9,))
        # the cycle between "1" and 1 is one edge carrying the later
        # reference in store order, 1's
        assert [entry for entry in rows[person(1)]
                if entry[0] == person("1")] == [
            (person("1"), "fk_boss", person(1), "fk_boss")
        ]

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


# ----------------------------------------------------------------------
# joining-network trees: compiled rows vs the networkx oracle
# ----------------------------------------------------------------------
def _networkx_tree(data_graph, tuples):
    """The networkx minimum spanning tree a network was once scored on:
    its induced multigraph, nodes by ``_sort_key``, one edge per pair
    (the first by ``(_sort_key(low), _sort_key(high), key)``).  Each
    edge is ordered from its lower ``_sort_key`` end: the subgraph view
    lists edges in the hash order of its node set, so their listed
    orientation would make the unit-weight tie-break seed-dependent."""
    import networkx as nx

    induced = data_graph.graph.subgraph(sorted(tuples, key=_sort_key))
    simple = nx.Graph()
    simple.add_nodes_from(sorted(induced.nodes, key=_sort_key))
    oriented = []
    for left, right, key, data in induced.edges(keys=True, data=True):
        low, high = sorted((left, right), key=_sort_key)
        oriented.append((_sort_key(low), _sort_key(high), key, low, high, data))
    oriented.sort(key=lambda item: item[:3])
    for __, __, key, low, high, data in oriented:
        if not simple.has_edge(low, high):
            simple.add_edge(low, high, edge_key=key, edge_data=data)
    return nx.minimum_spanning_tree(simple)


def _networkx_metrics(data_graph, tuples, keyword_tuples):
    """Tree edges, ``er_length``, pair-path steps, loose joints and
    ambiguity of a network, all read off :func:`_networkx_tree` (fans
    counted by :func:`_reference_related_count`)."""
    import networkx as nx

    from repro.core.connections import Connection

    tree = _networkx_tree(data_graph, tuples)
    edges = sorted(
        (sorted((str(left), str(right))), data["edge_key"], data["edge_data"])
        for left, right, data in tree.edges(data=True)
    )
    collapsed = sum(
        1
        for node in tree.nodes
        if data_graph.is_middle(node)
        and len(list(tree.neighbors(node))) == 2
        and not any(data_graph.is_middle(n) for n in tree.neighbors(node))
    )
    paths = []
    tids = sorted(set(keyword_tuples.values()), key=str)
    for index, left in enumerate(tids):
        for right in tids[index + 1:]:
            nodes = nx.shortest_path(tree, left, right)
            paths.append(Connection(TraversalCache(data_graph), [
                TuplePathStep(source, target, tree.edges[source, target]["edge_key"],
                              tree.edges[source, target]["edge_data"])
                for source, target in zip(nodes, nodes[1:])
            ]))
    factor = 1
    for path in paths:
        for fan_in, fan_out in _reference_fans(data_graph.graph, path):
            factor *= max(1, fan_in) * max(1, fan_out)
    return {
        "edges": edges,
        "rdb_length": tree.number_of_edges(),
        "er_length": tree.number_of_edges() - collapsed,
        "paths": [path.steps for path in paths],
        "loose_joints": sum(path.verdict().loose_joint_count for path in paths),
        "ambiguity": factor,
    }


def _network_metrics(network):
    """What :func:`_networkx_metrics` reads, off a :class:`JoiningNetwork`."""
    edges = sorted(
        (sorted((str(step.source), str(step.target))), step.edge_key,
         step.edge_data)
        for step in network.cache.frozen().spanning_tree(network.tuples)
    )
    return {
        "edges": edges,
        "rdb_length": network.rdb_length,
        "er_length": network.er_length,
        "paths": [path.steps for path in network.keyword_pair_paths()],
        "loose_joints": network.loose_joint_count(),
        "ambiguity": network.ambiguity_factor(),
    }


def _connected_sets(data_graph, rng, count, max_size=6):
    """``count`` random connected tuple sets of 2..``max_size`` tuples,
    each grown from a random tuple through random neighbours."""
    graph = data_graph.graph
    nodes = sorted(graph.nodes, key=str)
    sets = []
    while len(sets) < count:
        members = {rng.choice(nodes)}
        for __ in range(rng.randint(1, max_size - 1)):
            frontier = sorted(
                {other for tid in members for other in graph.neighbors(tid)}
                - members,
                key=str,
            )
            if not frontier:
                break
            members.add(rng.choice(frontier))
        if len(members) > 1:
            sets.append(frozenset(members))
    return sets


def _assert_trees_equal(engine, rng, count):
    """Networks over random connected sets score like the networkx
    oracle; returns how many of the sets were cyclic."""
    from repro.core.search import JoiningNetwork

    data_graph = engine.data_graph
    cyclic = 0
    for members in _connected_sets(data_graph, rng, count):
        ordered = sorted(members, key=str)
        keyword_tuples = {
            f"k{index}": tid
            for index, tid in enumerate(rng.sample(ordered, min(3, len(ordered))))
        }
        network = JoiningNetwork(engine.traversal_cache, members, keyword_tuples)
        assert _network_metrics(network) == _networkx_metrics(
            data_graph, members, keyword_tuples
        ), ordered
        induced = data_graph.graph.subgraph(ordered)
        cyclic += induced.number_of_edges() > len(members) - 1
    return cyclic


class TestNetworkTreeEqualsNetworkx:
    """A joining network's spanning tree, built by Kruskal over the
    compiled rows, is the tree networkx's minimum spanning tree chose
    over the induced multigraph: same edges and keys, same ``er_length``,
    pair paths, loose joints and ambiguity — on generated databases and
    on the multigraph's corner cases, patched or not."""

    @relaxed
    @given(configs, st.integers(min_value=0, max_value=1 << 16))
    def test_generated_databases(self, config, seed):
        import random

        engine = KeywordSearchEngine(generate_company_like(config))
        _assert_trees_equal(engine, random.Random(seed), 40)

    def test_corner_cases(self):
        import random

        engine = KeywordSearchEngine(_org_corner_cases())
        person = lambda key: TupleId("PERSON", (key,))
        rows = _rows(engine.traversal_cache.frozen())
        # a self-loop, a two-person cycle and both task keys onto one person
        assert (person("p03"), "fk_boss", person("p03"), "fk_boss") in rows[
            person("p03")
        ]
        assert len(rows[TupleId("TASK", ("t04",))]) == 2
        cyclic = sum(
            _assert_trees_equal(engine, random.Random(seed), 40)
            for seed in range(10)
        )
        assert cyclic

    def test_patched_graph_with_appended_nodes(self):
        import random

        engine = KeywordSearchEngine(_org_corner_cases())
        frozen = engine.traversal_cache.frozen()
        engine.apply([
            Insert("PERSON", {"ID": "p06", "BOSS": "p02"}),
            Insert("TASK", {"ID": "t06", "OWNER": "p06", "REVIEWER": "p02"}),
            Insert("TASK", {"ID": "t07", "OWNER": "p06", "REVIEWER": "p06"}),
        ])
        assert engine.traversal_cache.frozen() is frozen
        assert not frozen._ints_sorted
        cyclic = sum(
            _assert_trees_equal(engine, random.Random(seed), 40)
            for seed in range(10)
        )
        assert cyclic


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

    @pytest.mark.parametrize("restored", [False, True])
    def test_insert_resolves_dangling_references(self, restored, tmp_path):
        """Inserting the tuple a dangling reference names (left in while
        foreign-key checks were off) adds that reference's edge: the
        changeset carries it and the patched rows equal a fresh compile."""
        person = lambda key: TupleId("PERSON", (key,))
        engine = KeywordSearchEngine(_org_corner_cases())
        if restored:
            engine.save(tmp_path / "org.snap")
            engine = KeywordSearchEngine.open(tmp_path / "org.snap")
        frozen = engine.traversal_cache.frozen()
        try:
            changeset = engine.apply([
                Insert("PERSON", {"ID": "p77", "BOSS": "p03"}),
                Insert("PERSON", {"ID": "p88", "BOSS": None}),
            ])
            assert sorted(
                (str(e.referencing), str(e.referenced), e.foreign_key.name)
                for e in changeset.edges_added
            ) == [
                ("PERSON(p05)", "PERSON(p88)", "fk_boss"),
                ("PERSON(p77)", "PERSON(p03)", "fk_boss"),
                ("TASK(t05)", "PERSON(p77)", "fk_owner"),
            ]
            assert _rows(frozen) == _rows(FrozenGraph(DataGraph(engine.database)))
            assert frozen.node_of(person("p77")) is not None
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


# ----------------------------------------------------------------------
# edge data derived from key and flag vs the multigraph's
# ----------------------------------------------------------------------
class TestPayloadsEqualTheMultigraph:
    """Every live entry's edge data, built from its edge key and
    referencing flag (:meth:`FrozenGraph._payload`), equals the data
    :func:`~repro.graph.data_graph.build_tuple_graph` puts on that edge —
    on cold builds, snapshot-restored graphs and folds, after random
    changesets and on the multigraph's corner cases."""

    @staticmethod
    def _assert_payloads(frozen, database):
        pytest.importorskip("networkx")
        from repro.graph.data_graph import build_tuple_graph

        graph = build_tuple_graph(database)
        assert frozen.live_count() == graph.number_of_nodes()
        for node in range(frozen.capacity):
            if not frozen._alive[node]:
                continue
            tid = frozen.tid_of(node)
            entries = list(zip(*frozen._row_lists(node)))
            derived = {
                (frozen.tid_of(other), frozen._key_name(key)):
                frozen._payload(node, other, key, ref)
                for other, key, ref in entries
            }
            expected = {
                (other, key): data
                for __, other, key, data in graph.edges(tid, keys=True, data=True)
            }
            assert len(derived) == len(entries)
            assert derived == expected, tid

    @staticmethod
    def _reopened(engine, path):
        engine.save(path)
        return KeywordSearchEngine.open(path)

    @relaxed
    @given(
        st.lists(
            st.tuples(st.sampled_from(_ORG_KINDS),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=12,
        ),
        st.booleans(),
    )
    def test_after_random_changesets(self, program, restored):
        with tempfile.TemporaryDirectory() as directory:
            engine = KeywordSearchEngine(_org_database())
            if restored:
                engine = self._reopened(engine, os.path.join(directory, "a.snap"))
            try:
                self._assert_payloads(
                    engine.traversal_cache.frozen(), engine.database
                )
                closed = set()
                for kind, salt in program:
                    try:
                        changeset = engine.apply(
                            _org_batch(engine.database, kind, salt, closed)
                        )
                    except (IntegrityError, PrimaryKeyError):
                        continue
                    closed.difference_update(
                        tid.key[0] for tid in changeset.tuples_added
                    )
                    closed.update(
                        tid.key[0] for tid in changeset.tuples_removed
                        if tid.relation == "TASK"
                    )
                    self._assert_payloads(
                        engine.traversal_cache.frozen(), engine.database
                    )
                engine.traversal_cache.frozen()._compile()
                self._assert_payloads(
                    engine.traversal_cache.frozen(), engine.database
                )
                again = self._reopened(engine, os.path.join(directory, "b.snap"))
                try:
                    self._assert_payloads(
                        again.traversal_cache.frozen(), again.database
                    )
                finally:
                    again.close()
            finally:
                engine.close()

    @pytest.mark.parametrize("shape", ["cold", "restored", "folded"])
    def test_corner_cases(self, shape, tmp_path):
        database = _org_corner_cases()
        engine = KeywordSearchEngine(database)
        if shape == "restored":
            engine = self._reopened(engine, tmp_path / "corner.snap")
        frozen = engine.traversal_cache.frozen()
        if shape == "folded":
            frozen._compile()
        try:
            self._assert_payloads(frozen, database)
            # the cycle's one edge carries the later (store-order) reference
            person = lambda key: TupleId("PERSON", (key,))
            cycle = [
                frozen._payload(frozen.node_of(person("p00")), other, key, ref)
                for other, key, ref in zip(
                    *frozen._row_lists(frozen.node_of(person("p00")))
                )
                if other == frozen.node_of(person("p01"))
            ]
            assert [data["referencing"] for data in cycle] == [person("p01")]
        finally:
            engine.close()

    def _cycle_referencing(self, engine):
        """The referencing tuples of the ``fk_boss`` entries between p00
        and p01, after asserting every payload equals the multigraph's."""
        frozen = engine.traversal_cache.frozen()
        self._assert_payloads(frozen, engine.database)
        person = lambda key: TupleId("PERSON", (key,))
        node = frozen.node_of(person("p00"))
        return [
            frozen._payload(node, other, key, ref)["referencing"]
            for other, key, ref in zip(*frozen._row_lists(node))
            if other == frozen.node_of(person("p01")) and frozen._key_name(key) == "fk_boss"
        ]

    def _patched(self, database, batch, tmp_path=None):
        """Apply ``batch`` to an engine over ``database`` (reopened from
        a snapshot under ``tmp_path`` when given) whose graph compiled
        first."""
        engine = KeywordSearchEngine(database)
        if tmp_path is not None:
            engine = self._reopened(engine, tmp_path / "cycle.snap")
        frozen = engine.traversal_cache.frozen()  # compiled before the patch
        compactions = frozen.compactions
        engine.apply(batch)
        assert engine.traversal_cache.frozen() is frozen
        assert frozen.compactions == compactions
        return engine

    def test_patched_two_tuple_cycle(self):
        """Dropping the reference a cycle's entry carries keeps the
        entry, re-flagged to the reference that still holds."""
        engine = self._patched(*_cycle_batches()["dropped"])
        try:
            assert self._cycle_referencing(engine) == [TupleId("PERSON", ("p00",))]
        finally:
            engine.close()

    @pytest.mark.parametrize("restored", [False, True], ids=["cold", "restored"])
    def test_patched_cycle_references(self, restored, tmp_path):
        """Dropping either reference of a cycle, then adding it back:
        one entry throughout, carrying the later reference in store
        order while both hold (p01 is stored after p00)."""
        person = lambda key: TupleId("PERSON", (key,))
        for dropped, kept in (("p00", "p01"), ("p01", "p00")):
            engine = self._patched(
                _org_corner_cases(),
                [Update(person(dropped), {"BOSS": None})],
                tmp_path if restored else None,
            )
            try:
                assert self._cycle_referencing(engine) == [person(kept)]
                engine.apply([Update(person(dropped), {"BOSS": kept})])
                assert self._cycle_referencing(engine) == [person("p01")]
            finally:
                engine.close()

    @pytest.mark.parametrize("restored", [False, True], ids=["cold", "restored"])
    def test_patched_second_reference_closes_a_cycle(self, restored, tmp_path):
        """Adding the reference that closes a two-tuple cycle merges it
        into the existing entry instead of appending a second one."""
        person = lambda key: TupleId("PERSON", (key,))
        engine = self._patched(
            *_cycle_batches()["closed"], tmp_path if restored else None
        )
        try:
            assert self._cycle_referencing(engine) == [person("p01")]
        finally:
            engine.close()

    @pytest.mark.parametrize("restored", [False, True], ids=["cold", "restored"])
    def test_patched_cycle_follows_a_reinserted_tuple(self, restored, tmp_path):
        """Deleting and re-inserting p00 in one batch nets out its edges
        but moves it behind p01 in store order: the cycle's entry now
        carries p00's reference."""
        person = lambda key: TupleId("PERSON", (key,))
        engine = self._patched(
            *_cycle_batches()["reinserted"], tmp_path if restored else None
        )
        try:
            assert self._cycle_referencing(engine) == [person("p00")]
        finally:
            engine.close()


class TestAmbiguityAfterCycleBatches:
    """An engine that ranked and explained by instance ambiguity before a
    batch reshaping a two-person cycle answers and explains every
    two-word text afterwards exactly like a fresh engine over the same
    database: nothing of the pre-batch graph survives the batch."""

    @staticmethod
    def _outcomes(engine, texts):
        return {
            text: [
                (result.render(), result.score, engine.explain(result))
                for result in engine.search(text)
            ]
            for text in texts
        }

    @pytest.mark.parametrize("case", sorted(_cycle_batches()))
    def test_answers_and_explanations_equal_a_fresh_engine(self, case):
        database, batch = _cycle_batches()[case]
        ranker = InstanceAmbiguityRanker()
        engine = KeywordSearchEngine(database, ranker=ranker)
        assert self._outcomes(engine, _two_word_texts(engine))
        engine.apply(batch)
        fresh = KeywordSearchEngine(engine.database, ranker=ranker)
        texts = _two_word_texts(fresh)
        assert self._outcomes(engine, texts) == self._outcomes(fresh, texts)


# ----------------------------------------------------------------------
# instance ambiguity on the compiled rows vs a walk of the multigraph
# ----------------------------------------------------------------------
def _reference_related_count(graph, anchor, step, side_relation):
    """The ``side_relation`` tuples related to ``anchor`` like ``step``,
    counted on the networkx multigraph ``graph``: through tuples of the
    step's middle relation for a collapsed ``N:M`` step, else over the
    step's foreign key."""
    def neighbours(tid):
        return [(other, key) for __, other, key in graph.edges(tid, keys=True)]

    if step.middle is not None:
        return len({
            other
            for neighbour, __ in neighbours(anchor)
            if neighbour.relation == step.middle.relation
            for other, __ in neighbours(neighbour)
            if other.relation == side_relation and other != anchor
        })
    fk_name = step.edge_steps[0].edge_key
    return len({
        neighbour
        for neighbour, key in neighbours(anchor)
        if key == fk_name and neighbour.relation == side_relation
    })


def _reference_fans(graph, connection):
    """``(fan-in, fan-out)`` of each loose joint of ``connection``,
    counted on the networkx multigraph ``graph``."""
    from repro.core.associations import loose_joints

    steps = connection.conceptual_steps()
    return [
        (
            _reference_related_count(
                graph, steps[joint].target, steps[joint],
                steps[joint].source.relation,
            ),
            _reference_related_count(
                graph, steps[joint].target, steps[joint + 1],
                steps[joint + 1].target.relation,
            ),
        )
        for joint in loose_joints(connection.cardinalities())
    ]


def _assert_fans_equal_the_multigraph(engine, texts):
    """Every loose connection answer of ``texts`` counts the fans of each
    loose joint, and so its ambiguity factor, as the multigraph walk over
    a fresh build of the engine's database does; returns how many loose
    answers were checked."""
    from repro.core.ambiguity import ambiguity_factor, joint_fan_counts
    from repro.core.associations import loose_joints
    from repro.core.connections import Connection
    from repro.graph.data_graph import build_tuple_graph

    graph = build_tuple_graph(engine.database)
    checked = 0
    for text in texts:
        for result in engine.search(text):
            answer = result.answer
            if not isinstance(answer, Connection) or answer.verdict().is_close:
                continue
            fans = _reference_fans(graph, answer)
            assert [
                joint_fan_counts(answer, joint)
                for joint in loose_joints(answer.cardinalities())
            ] == fans
            factor = 1
            for fan_in, fan_out in fans:
                factor *= max(1, fan_in) * max(1, fan_out)
            assert ambiguity_factor(answer) == factor
            checked += 1
    return checked


class TestAmbiguityEqualsTheMultigraphWalk:
    """Joint fan counts and ambiguity factors read off the compiled rows
    equal a walk of the networkx multigraph — on generated databases,
    on the multigraph's corner cases and after random changesets."""

    @relaxed
    @given(configs)
    def test_generated_databases(self, config):
        _assert_fans_equal_the_multigraph(
            planted_engine(config), ["kwalpha kwbeta"]
        )

    def test_corner_cases(self):
        engine = KeywordSearchEngine(_org_corner_cases())
        assert _assert_fans_equal_the_multigraph(engine, _two_word_texts(engine))

    @relaxed
    @given(
        st.lists(
            st.tuples(st.sampled_from(_ORG_KINDS),
                      st.integers(min_value=0, max_value=1 << 16)),
            min_size=1, max_size=8,
        ),
        st.booleans(),
    )
    def test_after_random_changesets(self, program, corner):
        engine = KeywordSearchEngine(
            _org_corner_cases() if corner else _org_database()
        )
        _assert_fans_equal_the_multigraph(engine, _two_word_texts(engine))
        closed = set()
        for kind, salt in program:
            try:
                changeset = engine.apply(
                    _org_batch(engine.database, kind, salt, closed)
                )
            except (IntegrityError, PrimaryKeyError):
                continue
            closed.difference_update(tid.key[0] for tid in changeset.tuples_added)
            closed.update(
                tid.key[0] for tid in changeset.tuples_removed
                if tid.relation == "TASK"
            )
            _assert_fans_equal_the_multigraph(engine, _two_word_texts(engine))
