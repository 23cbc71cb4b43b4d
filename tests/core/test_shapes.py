"""The shape memo: what a schema-level ranker reads of an answer is
determined by the answer's shape key, and a memoised score equals the
ranker's own definition.

A connection's key is its (relation, FK name, referencing side) steps
plus its last relation; a network's key is the canonical form of the
labelled spanning tree its metrics read
(:meth:`~repro.graph.csr.FrozenGraph.tree_shape`).  The grouping tests
below fail when a key forgets an edge's direction or which tuples hold
keywords; the engine tests compare every built-in ranker's memoised
scores with an executor that holds no memo.
"""

import random
from collections import defaultdict
from unittest import mock

import pytest

from repro.core.connections import Connection
from repro.core.engine import KeywordSearchEngine
from repro.core.executor import Executor
from repro.core.plan import plan_query
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
    shape_facts,
)
from repro.core.search import JoiningNetwork, SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import csr_enumerate_simple_paths
from repro.live.changes import Insert
from repro.relational.database import Database, TupleId
from repro.relational.schema import AttributeDef, DatabaseSchema, ForeignKey, Relation
from stored_rows import bib_corpus

LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)


def _org_database():
    """People under a self-referencing BOSS key and tasks with two keys
    onto people: paths and trees that differ only in which end of an
    edge references the other."""
    schema = DatabaseSchema(name="org")
    schema.add_relation(Relation(
        "PERSON", [AttributeDef("ID"), AttributeDef("BOSS")], primary_key=["ID"]
    ))
    schema.add_relation(Relation(
        "TASK",
        [AttributeDef("ID"), AttributeDef("OWNER"), AttributeDef("REVIEWER")],
        primary_key=["ID"],
    ))
    schema.add_foreign_key(ForeignKey("fk_boss", "PERSON", ("BOSS",), "PERSON", ("ID",)))
    schema.add_foreign_key(ForeignKey("fk_owner", "TASK", ("OWNER",), "PERSON", ("ID",)))
    schema.add_foreign_key(
        ForeignKey("fk_reviewer", "TASK", ("REVIEWER",), "PERSON", ("ID",))
    )
    database = Database(schema)
    for number in range(8):
        boss = f"p{(number - 1) // 2:02d}" if number else None
        database.insert("PERSON", {"ID": f"p{number:02d}", "BOSS": boss})
    for number in range(6):
        database.insert("TASK", {"ID": f"t{number:02d}", "OWNER": f"p{number:02d}",
                                 "REVIEWER": f"p{(number * 3 + 1) % 8:02d}"})
    return database


def _company(seed):
    database = generate_company_like(SyntheticConfig(
        departments=2, projects_per_department=2, employees_per_department=3,
        works_on_per_employee=2, dependents_per_employee=0.5, seed=seed,
    ))
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 2, seed=3)
    return database


DATABASES = {
    "org": _org_database,
    "company-1": lambda: _company(1),
    "company-7": lambda: _company(7),
    "bib": lambda: bib_corpus("tiny", 11).database(),
}


def _all_tids(engine):
    frozen = engine.traversal_cache.frozen()
    return sorted(
        (frozen.tid_of(node) for node in range(frozen.capacity)
         if frozen._alive[node]),
        key=str,
    )


def _networks(engine, rng, count, max_size=6):
    """``count`` networks over random connected tuple sets, each with one
    to three random keyword tuples."""
    frozen = engine.traversal_cache.frozen()
    tids = _all_tids(engine)
    networks = []
    while len(networks) < count:
        members = {rng.choice(tids)}
        for __ in range(rng.randint(0, max_size - 1)):
            frontier = sorted(
                {other for tid in members for other, __, __ in frozen.neighbours(tid)}
                - members,
                key=str,
            )
            if not frontier:
                break
            members.add(rng.choice(frontier))
        ordered = sorted(members, key=str)
        keyword_tuples = {
            f"k{at}": tid
            for at, tid in enumerate(rng.sample(ordered, rng.randint(1, min(3, len(ordered)))))
        }
        networks.append(JoiningNetwork(engine.traversal_cache, frozenset(members),
                                       keyword_tuples))
    return networks


def _connections(engine, rng, pairs):
    """Every path of at most four edges between ``pairs`` random tuple
    pairs, each pair the ends of a random walk of two to four steps."""
    frozen = engine.traversal_cache.frozen()
    tids = _all_tids(engine)
    connections = []
    for __ in range(pairs):
        source = target = rng.choice(tids)
        for __ in range(rng.randint(2, 4)):
            neighbours = sorted({other for other, __, __ in frozen.neighbours(target)},
                                key=str)
            if not neighbours:
                break
            target = rng.choice(neighbours)
        if target == source:
            continue
        for steps in csr_enumerate_simple_paths(engine.traversal_cache, source, target, 4):
            connections.append(Connection(engine.traversal_cache, steps))
    return connections


def _facts_by_key(answers):
    grouped = defaultdict(set)
    for answer in answers:
        grouped[answer.shape_key()].add(shape_facts(answer))
    return grouped


@pytest.mark.parametrize("name", sorted(DATABASES))
class TestShapeKeyDeterminesFacts:
    """Answers with equal keys have equal loose joints, ER length and RDB
    length, and answers of one shape share a key."""

    def test_networks(self, name):
        engine = KeywordSearchEngine(DATABASES[name]())
        grouped = _facts_by_key(_networks(engine, random.Random(5), 300))
        assert all(len(facts) == 1 for facts in grouped.values()), [
            (key, facts) for key, facts in grouped.items() if len(facts) > 1
        ]
        assert len(grouped) < 300  # isomorphic trees share a key

    def test_connections(self, name):
        engine = KeywordSearchEngine(DATABASES[name]())
        connections = _connections(engine, random.Random(5), 40)
        grouped = _facts_by_key(connections)
        assert all(len(facts) == 1 for facts in grouped.values()), [
            (key, facts) for key, facts in grouped.items() if len(facts) > 1
        ]
        assert len(grouped) < len(connections)


class TestTreeShape:
    def test_independent_of_listing_order(self):
        engine = KeywordSearchEngine(_company(1))
        frozen = engine.traversal_cache.frozen()
        for network in _networks(engine, random.Random(3), 60):
            marked = set(network.keyword_tuples.values())
            ordered = sorted(network.tuples, key=str)
            forms = {
                frozen.tree_shape(listing, marked)
                for listing in (ordered, ordered[::-1], network.tuples)
            }
            assert len(forms) == 1

    def test_direction_and_marks_tell_chains_from_forks(self):
        engine = KeywordSearchEngine(_org_database())
        frozen = engine.traversal_cache.frozen()
        person = lambda number: TupleId("PERSON", (f"p{number:02d}",))
        # p02 -> p00 <- p01 (two reports meet at their boss): a loose joint
        # between the reports; p03 -> p01 -> p00 is a chain, close.
        fork = frozenset((person(0), person(1), person(2)))
        chain = frozenset((person(0), person(1), person(3)))
        assert frozen.tree_shape(fork, {person(1), person(2)}) != frozen.tree_shape(
            chain, {person(0), person(3)}
        )
        assert frozen.tree_shape(fork, {person(1), person(2)}) != frozen.tree_shape(
            fork, {person(0), person(2)}
        )
        forked = JoiningNetwork(engine.traversal_cache, fork,
                                {"a": person(1), "b": person(2)})
        chained = JoiningNetwork(engine.traversal_cache, chain,
                                 {"a": person(0), "b": person(3)})
        assert shape_facts(forked).loose_joints == 1
        assert shape_facts(chained).loose_joints == 0


#: The schema-level rankers first; ``InstanceAmbiguityRanker`` is the
#: one that must bypass the memo.
RANKERS = (
    RdbLengthRanker(),
    ErLengthRanker(),
    ClosenessRanker(),
    InstanceAmbiguityRanker(),
)


def _unmemoised(engine, text, ranker, semantics, top_k):
    plan = plan_query(engine.match(text), semantics=semantics, top_k=top_k)
    executor = Executor(engine.traversal_cache, adaptive=engine.adaptive)
    return executor.run(plan, ranker, LIMITS)


def _rendered(results):
    return [(result.rank, result.score, result.render()) for result in results]


TEXTS = ("kwalpha kwbeta", "kwbeta kwgamma", "kwalpha kwbeta kwgamma")


def _assert_memoised_scores_equal_definitions(engine):
    kinds = set()
    for ranker in RANKERS:
        schema_level = getattr(ranker, "schema_level", False)
        for text in TEXTS:
            for semantics in ("and", "or"):
                for top_k in (None, 3):
                    scored = engine.shapes.scored
                    results = engine.search(text, ranker=ranker, limits=LIMITS,
                                            top_k=top_k, semantics=semantics)
                    kinds.update(type(result.answer) for result in results)
                    assert _rendered(results) == _rendered(
                        _unmemoised(engine, text, ranker, semantics, top_k)
                    ), (ranker, text, semantics, top_k)
                    for result in results:
                        score = ranker.score(result.answer)
                        assert result.score[-len(score):] == score
                    if schema_level:
                        assert engine.shapes.scored - scored == engine.last_stats.candidates
                    else:  # never reads the memo
                        assert engine.shapes.scored == scored
    assert {Connection, JoiningNetwork} <= kinds


class TestMemoisedScoresEqualTheDefinitions:
    """Every built-in ranker, two and three keywords, AND and OR,
    ``top_k`` and full mode, on cold and restored engines, before and
    after an ``apply``."""

    @pytest.mark.parametrize("seed", (1, 7))
    def test_cold_engine_before_and_after_apply(self, seed):
        engine = KeywordSearchEngine(_company(seed), result_cache_entries=0)
        _assert_memoised_scores_equal_definitions(engine)
        memo, shapes = engine.shapes, engine.shapes.shapes
        engine.apply([
            Insert("EMPLOYEE", {"SSN": "e-new", "L_NAME": "kwbeta", "S_NAME": "Ada",
                                "D_ID": engine.match("kwalpha")[0].tuple_ids[0].key[0]}),
        ])
        assert engine.shapes is memo and memo.shapes == shapes  # outlives apply
        _assert_memoised_scores_equal_definitions(engine)

    def test_restored_engine_before_and_after_apply(self, tmp_path):
        KeywordSearchEngine(_company(7)).save(tmp_path / "company.snap")
        engine = KeywordSearchEngine.open(tmp_path / "company.snap",
                                          result_cache_entries=0)
        assert engine.shapes.shapes == 0
        _assert_memoised_scores_equal_definitions(engine)
        engine.apply([
            Insert("PROJECT", {"ID": "p-new", "P_NAME": "kwgamma lab",
                               "D_ID": engine.match("kwalpha")[0].tuple_ids[0].key[0]}),
        ])
        _assert_memoised_scores_equal_definitions(engine)

    def test_bib_networks(self):
        bib = bib_corpus("tiny", 11)
        engine = KeywordSearchEngine(bib.database(), result_cache_entries=0)
        text = " ".join(bib.head_words[60:63])
        for ranker in RANKERS[:3]:
            for top_k in (None, 10):
                assert _rendered(engine.search(text, ranker=ranker, limits=LIMITS,
                                               top_k=top_k)) == (
                    _rendered(_unmemoised(engine, text, ranker, "and", top_k))
                )


class TestShapeCounts:
    """The memo's counters: one entry per distinct shape, one scoring per
    schema-level candidate, and the definitions run once per shape."""

    def test_three_keyword_full_mode_scores_far_more_than_it_computes(self):
        bib = bib_corpus("tiny", 11)
        engine = KeywordSearchEngine(bib.database(), result_cache_entries=0)
        text = " ".join(bib.head_words[60:63])
        with mock.patch.object(
            JoiningNetwork, "loose_joint_count", autospec=True,
            side_effect=JoiningNetwork.loose_joint_count,
        ) as definition:
            results = engine.search(text)
        snapshot = engine.metrics_snapshot()
        assert snapshot["ranking.scored"] == engine.last_stats.candidates == len(results)
        assert snapshot["ranking.shapes"] == len(
            {result.answer.shape_key() for result in results}
        )
        assert definition.call_count == snapshot["ranking.shapes"]
        assert snapshot["ranking.scored"] >= 10 * snapshot["ranking.shapes"]

    def test_a_path_shape_is_classified_once(self, engine):
        with mock.patch.object(
            Connection, "verdict", autospec=True, side_effect=Connection.verdict,
        ) as definition:
            first = engine.search("Smith XML", top_k=None)
            again = engine.search("Smith XML", pushdown=False,
                                  limits=SearchLimits(max_rdb_length=5))
        assert first and again
        shapes = {result.answer.shape_key() for result in first + again
                  if isinstance(result.answer, Connection)}
        assert definition.call_count == len(shapes)
