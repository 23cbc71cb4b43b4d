"""Differential property: live updates are invisible to query answering.

Hypothesis drives random interleavings of ``engine.apply`` mutation
batches (dependent/works-on inserts, description updates that create and
destroy keyword matches, deletes) with queries; after every step the
live engine's ``search`` / ``search_batch`` / ``search_stream`` must be
bit-identical — answers, order, scores, ranks, and ``SearchLimitError``
points — to a from-scratch engine built over an identical database kept
in lockstep.  Both traversal cores and both semantics are exercised.

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
from repro.errors import SearchLimitError
from repro.live.changes import Delete, Insert, Update, apply_to_database

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


def run_interleaving(config, ops, fast):
    """Yield (live engine, lockstep oracle database) after each batch."""
    live_db = planted_database(config)
    oracle_db = planted_database(config)
    engine = KeywordSearchEngine(live_db, use_fast_traversal=fast)
    yield engine, oracle_db
    for counter, (kind, salt) in enumerate(ops):
        mutation = build_mutation(live_db, kind, salt, counter)
        batch = [] if mutation is None else [mutation]
        engine.apply(batch)
        apply_to_database(oracle_db, batch)
        yield engine, oracle_db


class TestInterleavingDifferential:
    @relaxed
    @given(configs, operations, st.booleans())
    def test_search_matches_rebuilt_engine_at_every_step(
        self, config, ops, fast
    ):
        for engine, oracle_db in run_interleaving(config, ops, fast):
            oracle = KeywordSearchEngine(
                oracle_db, use_fast_traversal=fast, result_cache_entries=0
            )
            for query in _QUERIES:
                for semantics in ("and", "or"):
                    assert rendered(
                        engine.search(query, limits=_LIMITS,
                                      semantics=semantics)
                    ) == rendered(
                        oracle.search(query, limits=_LIMITS,
                                      semantics=semantics)
                    )

    @relaxed
    @given(configs, operations, st.booleans(),
           st.integers(min_value=1, max_value=5))
    def test_stream_batch_and_topk_after_mutations(self, config, ops, fast, k):
        final = None
        for final in run_interleaving(config, ops, fast):
            pass
        engine, oracle_db = final
        oracle = KeywordSearchEngine(
            oracle_db, use_fast_traversal=fast, result_cache_entries=0
        )
        queries = list(_QUERIES)
        assert [
            rendered(r) for r in engine.search_batch(queries, limits=_LIMITS)
        ] == [rendered(oracle.search(q, limits=_LIMITS)) for q in queries]
        for query in queries:
            assert rendered(
                list(engine.search_stream(query, limits=_LIMITS))
            ) == rendered(oracle.search(query, limits=_LIMITS))
            assert rendered(
                engine.search(query, limits=_LIMITS, top_k=k)
            ) == rendered(
                oracle.search(query, limits=_LIMITS, top_k=k, pushdown=False)
            )

    @relaxed
    @given(configs, operations, st.booleans())
    def test_budget_error_points_identical(self, config, ops, fast):
        tight = SearchLimits(
            max_rdb_length=4, max_tuples=5,
            max_paths_per_pair=2, max_networks=2,
        )

        def outcome(target, query):
            try:
                return ("ok", rendered(target.search(query, limits=tight)))
            except SearchLimitError as error:
                return ("limit", str(error))

        for engine, oracle_db in run_interleaving(config, ops, fast):
            oracle = KeywordSearchEngine(
                oracle_db, use_fast_traversal=fast, result_cache_entries=0
            )
            for query in _QUERIES:
                assert outcome(engine, query) == outcome(oracle, query)

    @relaxed
    @given(configs, operations)
    def test_cores_agree_after_mutations(self, config, ops):
        fast_pair = None
        slow_pair = None
        for fast_pair in run_interleaving(config, ops, True):
            pass
        for slow_pair in run_interleaving(config, ops, False):
            pass
        fast_engine, __ = fast_pair
        slow_engine, __ = slow_pair
        for query in _QUERIES:
            for semantics in ("and", "or"):
                assert rendered(
                    fast_engine.search(query, limits=_LIMITS,
                                       semantics=semantics)
                ) == rendered(
                    slow_engine.search(query, limits=_LIMITS,
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
# hash-seed independence
# ----------------------------------------------------------------------
_SEEDED_CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from test_property_live import _LIMITS, _QUERIES, rendered, run_interleaving
from repro.core.engine import KeywordSearchEngine
from repro.datasets.synthetic import SyntheticConfig

config = SyntheticConfig(
    departments=2, projects_per_department=2, employees_per_department=1,
    works_on_per_employee=1, dependents_per_employee=0.3,
    description_words=10, seed=30,
)
ops = [("update_description", 154), ("delete", 1), ("insert_works", 0)]
steps = []
for engine, oracle_db in run_interleaving(config, ops, False):
    oracle = KeywordSearchEngine(
        oracle_db, use_fast_traversal=False, result_cache_entries=0
    )
    steps.append([
        [rendered(target.search(query, limits=_LIMITS, semantics=semantics))
         for target in (engine, oracle)]
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
