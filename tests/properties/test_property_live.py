"""Differential property: live updates are invisible to query answering.

Hypothesis drives random interleavings of ``engine.apply`` mutation
batches (dependent/works-on inserts, description updates that create and
destroy keyword matches, deletes) with queries; after every step the
live engine's ``search`` / ``search_batch`` / ``search_stream`` must be
bit-identical — answers, order, scores, ranks, and ``SearchLimitError``
points — to a from-scratch engine built over an identical database kept
in lockstep and to :func:`repro.oracle.search` over that database, under
both semantics.

A second property pins the answer cache's bounded taint: across random
corpora, limits, semantics, keyword counts, rankers and mutations, every
entry that survives an ``apply`` still equals the rebuilt engine's
answer — the dropped set contains every entry whose answers changed.
A fixed example then replays under several hash seeds in subprocesses:
answers may depend on neither the seed nor the size of the whole graph.
"""

import json
import os
import subprocess
import sys
from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import (
    ClosenessRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    plant,
)
from repro.errors import ReproError, SearchLimitError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.oracle import search as oracle_search

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=2),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=3),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=30),
)

_KINDS = ("insert_dependent", "insert_works", "update_description", "delete")

operations = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=1 << 20)),
    min_size=1,
    max_size=6,
)

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
_QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha")


def planted_database(config):
    database = generate_company_like(config)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(2, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(2, database.count("EMPLOYEE")), seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION",
          min(2, database.count("PROJECT")), seed=3)
    return database


def build_mutation(database, kind, salt, counter):
    """Deterministically derive one valid mutation from the current state."""
    employees = database.tuples("EMPLOYEE")
    if kind == "insert_dependent":
        essn = employees[salt % len(employees)].tid.key[0]
        name = ("kwbeta", "kwalpha", "plainname")[salt % 3]
        return Insert(
            "DEPENDENT",
            {"ID": f"hp{counter}", "ESSN": essn, "DEPENDENT_NAME": name},
        )
    if kind == "insert_works":
        projects = database.tuples("PROJECT")
        pairs = len(employees) * len(projects)
        for probe in range(pairs):
            position = (salt + probe) % pairs
            essn = employees[position // len(projects)].tid.key[0]
            pid = projects[position % len(projects)].tid.key[0]
            if database.get("WORKS_FOR", essn, pid) is None:
                return Insert(
                    "WORKS_FOR",
                    {"ESSN": essn, "P_ID": pid, "HOURS": salt % 40 + 1},
                )
        return None  # N:M already complete
    if kind == "update_description":
        departments = database.tuples("DEPARTMENT")
        department = departments[salt % len(departments)]
        text = ("kwalpha research", "plain words only",
                "kwgamma and kwalpha notes")[salt % 3]
        return Update(department.tid, {"D_DESCRIPTION": text})
    # delete: dependents and works-on rows are never referenced.
    victims = database.tuples("DEPENDENT") + database.tuples("WORKS_FOR")
    if not victims:
        return None
    return Delete(victims[salt % len(victims)].tid)


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


def run_interleaving(config, ops):
    """Yield (live engine, lockstep oracle database) after each batch."""
    live_db = planted_database(config)
    oracle_db = planted_database(config)
    engine = KeywordSearchEngine(live_db)
    yield engine, oracle_db
    for counter, (kind, salt) in enumerate(ops):
        mutation = build_mutation(live_db, kind, salt, counter)
        batch = [] if mutation is None else [mutation]
        engine.apply(batch)
        apply_to_database(oracle_db, batch)
        yield engine, oracle_db


def rebuilt(database):
    """The from-scratch answerers over ``database``: a cold engine's
    ``search`` and :func:`repro.oracle.search`."""
    cold = KeywordSearchEngine(database, result_cache_entries=0)
    return cold.search, partial(oracle_search, database)


class TestInterleavingDifferential:
    @relaxed
    @given(configs, operations)
    def test_search_matches_rebuilt_engine_at_every_step(self, config, ops):
        for engine, oracle_db in run_interleaving(config, ops):
            for search in rebuilt(oracle_db):
                for query in _QUERIES:
                    for semantics in ("and", "or"):
                        assert rendered(
                            engine.search(query, limits=_LIMITS,
                                          semantics=semantics)
                        ) == rendered(
                            search(query, limits=_LIMITS, semantics=semantics)
                        )

    @relaxed
    @given(configs, operations, st.integers(min_value=1, max_value=5))
    def test_stream_batch_and_topk_after_mutations(self, config, ops, k):
        final = None
        for final in run_interleaving(config, ops):
            pass
        engine, oracle_db = final
        queries = list(_QUERIES)
        for search in rebuilt(oracle_db):
            assert [
                rendered(r)
                for r in engine.search_batch(queries, limits=_LIMITS)
            ] == [rendered(search(q, limits=_LIMITS)) for q in queries]
            for query in queries:
                assert rendered(
                    list(engine.search_stream(query, limits=_LIMITS))
                ) == rendered(search(query, limits=_LIMITS))
                assert rendered(
                    engine.search(query, limits=_LIMITS, top_k=k)
                ) == rendered(
                    search(query, limits=_LIMITS, top_k=k, pushdown=False)
                )

    @relaxed
    @given(configs, operations)
    def test_budget_error_points_identical(self, config, ops):
        tight = SearchLimits(
            max_rdb_length=4, max_tuples=5,
            max_paths_per_pair=2, max_networks=2,
        )

        def outcome(search, query):
            try:
                return ("ok", rendered(search(query, limits=tight)))
            except SearchLimitError as error:
                return ("limit", str(error))

        for engine, oracle_db in run_interleaving(config, ops):
            for search in rebuilt(oracle_db):
                for query in _QUERIES:
                    assert outcome(engine.search, query) == outcome(
                        search, query
                    )

    @relaxed
    @given(configs, operations)
    def test_cores_agree_after_mutations(self, config, ops):
        """The live engine after its last batch against the oracle over
        the live database itself (not its lockstep copy)."""
        final = None
        for final in run_interleaving(config, ops):
            pass
        engine, __ = final
        for query in _QUERIES:
            for semantics in ("and", "or"):
                assert rendered(
                    engine.search(query, limits=_LIMITS, semantics=semantics)
                ) == rendered(
                    oracle_search(engine.database, query, limits=_LIMITS,
                                  semantics=semantics)
                )


# ----------------------------------------------------------------------
# bounded taint
# ----------------------------------------------------------------------
taint_configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=2, max_value=4),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=3),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=30),
)

# Short limits keep answer reach below the corpus diameter, so both
# outcomes — entries the change reaches, entries it cannot — occur.
taint_limits = st.builds(
    SearchLimits,
    max_rdb_length=st.integers(min_value=1, max_value=4),
    max_tuples=st.integers(min_value=1, max_value=5),
)


class TestBoundedTaint:
    """(entries dropped) ⊇ (entries whose answers changed): whatever the
    answer cache keeps across an ``apply`` equals a rebuilt engine."""

    @relaxed
    @given(
        taint_configs,
        operations,
        st.lists(taint_limits, min_size=1, max_size=2, unique=True),
        st.sampled_from([ClosenessRanker(), RdbLengthRanker(),
                         InstanceAmbiguityRanker()]),
    )
    def test_surviving_entries_equal_a_rebuilt_engine(
        self, config, ops, limit_choices, ranker
    ):
        live_db = planted_database(config)
        oracle_db = planted_database(config)
        engine = KeywordSearchEngine(live_db, ranker=ranker)
        specs = [
            (query, semantics, limits)
            for query in _QUERIES
            for semantics in ("and", "or")
            for limits in limit_choices
        ]

        def ask(target, spec):
            query, semantics, limits = spec
            return rendered(
                target.search(query, limits=limits, semantics=semantics)
            )

        for counter, (kind, salt) in enumerate(ops):
            before = {spec: ask(engine, spec) for spec in specs}  # all cached
            mutation = build_mutation(live_db, kind, salt, counter)
            batch = [] if mutation is None else [mutation]
            engine.apply(batch)
            apply_to_database(oracle_db, batch)
            oracle = KeywordSearchEngine(
                oracle_db, ranker=ranker, result_cache_entries=0
            )
            for spec in specs:
                query, semantics, limits = spec
                key = engine._cache_key(
                    query, ranker, limits, None, semantics, None
                )
                survived = key in engine.result_cache._entries
                fresh = ask(oracle, spec)
                if fresh != before[spec]:
                    assert not survived
                hits = engine.result_cache.stats.hits
                assert ask(engine, spec) == fresh
                assert (engine.result_cache.stats.hits == hits + 1) == survived


# ----------------------------------------------------------------------
# the taint rule against the radius-reach rule it replaced
# ----------------------------------------------------------------------
def _reach(entry):
    limits = entry.limits
    return max(limits.max_rdb_length, limits.max_tuples - 1) - 1


def _reach_ball(engine, changeset, reach):
    """``{tuple: depth}`` within ``reach`` hops of the structural seeds
    in the patched graph (networkx, not the CSR rows), removed tuples
    at depth 0."""
    import networkx as nx

    graph = nx.Graph(engine.data_graph.graph)
    seeds = {
        tid for tid in changeset.structural_tuples() if graph.has_node(tid)
    }
    ball = (
        nx.multi_source_dijkstra_path_length(graph, seeds, cutoff=reach)
        if seeds else {}
    )
    ball.update(dict.fromkeys(changeset.tuples_removed, 0))
    return ball


def _reach_tainted(entry, ball):
    """The radius-reach rule: every keyword (any two under OR) within
    the entry's reach, and for two keywords ``d1 + d2 + 1 <= L``."""
    reach = _reach(entry)
    nearest = []
    for tuple_ids in entry.fingerprint:
        depth = min(
            (ball.get(tid, reach + 1) for tid in tuple_ids), default=reach + 1
        )
        if depth <= reach:
            nearest.append(depth)
    needed = len(entry.fingerprint) if entry.semantics == "and" else 2
    if len(nearest) < needed:
        return False
    if len(entry.fingerprint) == 2:
        return sum(nearest) + 1 <= entry.limits.max_rdb_length
    return True


def _reach_rule(entries, changeset, index, ball):
    """``(dropped, structural)``: the keys the radius-reach rule drops
    for a changeset, and which of them only its ball reached."""
    from repro.core.matching import match_keywords

    if changeset.is_empty():
        return set(), set()  # an empty batch makes nothing stale
    rewritten = set(
        changeset.tuples_updated
        + changeset.tuples_replaced
        + changeset.tuples_added
    )
    gone = rewritten | set(changeset.tuples_removed)
    tokens = {token for tid in rewritten for token in index.tokens_of(tid)}
    dropped, structural = set(), set()
    for key, entry in entries.items():
        if entry.volatile or entry.footprint & gone:
            dropped.add(key)
        elif entry.tokens() & tokens and entry.fingerprint != tuple(
            match.tuple_ids for match in match_keywords(index, entry.keywords)
        ):
            dropped.add(key)
        elif entry.footprint & ball.keys() and _reach_tainted(entry, ball):
            structural.add(key)
    return dropped, structural


_TEXTS = (
    "kwalpha", "kwbeta", "kwalpha kwbeta", "kwbeta kwgamma",
    "kwalpha kwgamma", "kwalpha kwbeta kwgamma",
)
_STRUCTURAL = ("insert_dependent", "insert_works", "delete")


class TestTaintRuleDifferential:
    """The half-radius node-int rule drops exactly what the radius-reach
    ``TupleId`` rule dropped — except one-keyword AND entries, which no
    longer drop structurally (their answers are single tuples) — across
    random corpora, limits, semantics, 1–3 keywords and structural
    batches, with the compiled graph folded (renumbered) between store
    and apply at random."""

    @settings(relaxed, max_examples=40)
    @given(
        taint_configs,
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from(_STRUCTURAL),
                              st.integers(min_value=0, max_value=1 << 20)),
                    min_size=1, max_size=3,
                ),
                st.booleans(),
            ),
            min_size=2, max_size=5,
        ),
        st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=4, unique=True),
        # Budgets of 4–6 leave the far keyword of a pair beyond the
        # sweep but within reach of the meeting step.
        st.lists(
            st.builds(
                SearchLimits,
                max_rdb_length=st.integers(min_value=2, max_value=6),
                max_tuples=st.integers(min_value=1, max_value=5),
            ),
            min_size=1, max_size=2, unique=True,
        ),
        st.sampled_from([ClosenessRanker(), RdbLengthRanker(),
                         InstanceAmbiguityRanker()]),
    )
    def test_dropped_set_equals_the_radius_reach_rule(
        self, config, steps, texts, limit_choices, ranker
    ):
        database = planted_database(config)
        engine = KeywordSearchEngine(database, ranker=ranker)
        cache = engine.result_cache
        counter = 0
        for ops, fold in steps:
            for text in texts:
                for semantics in ("and", "or"):
                    for limits in limit_choices:
                        engine.search(text, limits=limits, semantics=semantics)
            if fold:
                engine.traversal_cache.frozen()._compile()
            batch, seen = [], set()
            for kind, salt in ops:
                mutation = build_mutation(database, kind, salt, counter)
                counter += 1
                if mutation is not None and repr(mutation) not in seen:
                    seen.add(repr(mutation))
                    batch.append(mutation)
            entries = dict(cache._entries)
            try:
                changeset = engine.apply(batch)
            except ReproError:
                continue  # two mutations of one batch collided
            ball = _reach_ball(
                engine, changeset, max(map(_reach, entries.values()))
            )
            dropped, structural = _reach_rule(
                entries, changeset, engine.index, ball
            )
            for key, entry in entries.items():
                expected = key in dropped or (
                    key in structural
                    and not (len(entry.fingerprint) == 1
                             and entry.semantics == "and")
                )
                assert (key not in cache._entries) == expected, (
                    entry.keywords, entry.semantics, entry.limits
                )

    def test_a_full_save_between_store_and_apply(self, tmp_path):
        config = SyntheticConfig(
            departments=3, projects_per_department=2,
            employees_per_department=3, works_on_per_employee=2,
            dependents_per_employee=0.3, seed=5,
        )
        database = planted_database(config)
        engine = KeywordSearchEngine(database)
        limits = SearchLimits(max_rdb_length=3, max_tuples=3)
        counter = 0
        for step, kind in enumerate(("insert_works", "delete", "insert_dependent",
                                     "insert_works", "delete")):
            for text in _TEXTS:
                engine.search(text, limits=limits)
            if step % 2:
                frozen = engine.traversal_cache.frozen()
                stamp = frozen.compile_stamp
                engine.save(tmp_path / f"step{step}.snap")
                assert frozen.compile_stamp > stamp  # the save folded
            entries = dict(engine.result_cache._entries)
            mutation = build_mutation(database, kind, step * 7919, counter)
            counter += 1
            changeset = engine.apply([mutation])
            ball = _reach_ball(
                engine, changeset, max(map(_reach, entries.values()))
            )
            dropped, structural = _reach_rule(
                entries, changeset, engine.index, ball
            )
            for key, entry in entries.items():
                expected = key in dropped or (
                    key in structural and len(entry.fingerprint) > 1
                )
                assert (key not in engine.result_cache._entries) == expected


# ----------------------------------------------------------------------
# hash-seed independence
# ----------------------------------------------------------------------
_SEEDED_CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from test_property_live import _LIMITS, _QUERIES, rendered, run_interleaving
from repro.datasets.synthetic import SyntheticConfig
from repro.oracle import search

config = SyntheticConfig(
    departments=2, projects_per_department=2, employees_per_department=1,
    works_on_per_employee=1, dependents_per_employee=0.3,
    description_words=10, seed=30,
)
ops = [("update_description", 154), ("delete", 1), ("insert_works", 0)]
steps = []
for engine, oracle_db in run_interleaving(config, ops):
    steps.append([
        [rendered(engine.search(query, limits=_LIMITS, semantics=semantics)),
         rendered(search(oracle_db, query, limits=_LIMITS,
                         semantics=semantics))]
        for query in _QUERIES
        for semantics in ("and", "or")
    ])
print(json.dumps(steps))
"""


class TestHashSeedIndependence:
    """Regression: a joining network's spanning-tree tie-break followed
    the node order of a networkx subgraph view, which iterates its node
    *set* once the network is under half the graph — so a live engine
    that cached a network's score before an insert grew the graph past
    twice the network's size served a score the rebuilt engine no
    longer gave, under about half of all hash seeds (9, 10 and 12 among
    them; 0 and 42, the suite's own, among the other half)."""

    def test_answers_match_the_oracle_under_every_hash_seed(self):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.abspath(os.path.join(here, os.pardir, os.pardir, "src"))
        script = _SEEDED_CHILD.format(src=src, here=here)
        answers = {}
        for seed in ("0", "9", "10", "12"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            assert result.returncode == 0, result.stderr
            steps = json.loads(result.stdout)
            for step, pairs in enumerate(steps):
                for live, oracle in pairs:
                    assert live == oracle, (seed, step)
            answers[seed] = steps
        assert len({json.dumps(steps) for steps in answers.values()}) == 1
