"""Differential property: the scale layer is invisible to answering.

Hypothesis drives random multi-tenant instances, semantics and
live-update interleavings; a snapshot of the live engine restored after
every batch, and the process-pool batch path at the final state, must be
bit-identical (answers, order, scores, ranks, ``SearchLimitError``
points) to a plain engine cold-built over the same data.
"""

import os
import tempfile
from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import ForeignKeyError, SearchLimitError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.oracle import search as oracle_search
from repro.relational.database import TupleId

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=2),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=2, max_value=3),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=30),
)

_KINDS = ("insert_dependent", "insert_works", "update_description", "delete")

operations = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=1 << 20)),
    min_size=0,
    max_size=4,
)

relaxed = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
_TIGHT = SearchLimits(
    max_rdb_length=4, max_tuples=5, max_paths_per_pair=2, max_networks=2
)
_QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha")


def planted_database(config, tenants):
    database = generate_tenants(config, tenants=tenants)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(3, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(3, database.count("EMPLOYEE")), seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION",
          min(3, database.count("PROJECT")), seed=3)
    return database


def build_mutation(database, kind, salt, counter):
    """Deterministically derive one valid mutation from current state."""
    employees = database.tuples("EMPLOYEE")
    if kind == "insert_dependent":
        essn = employees[salt % len(employees)].tid.key[0]
        name = ("kwbeta", "kwalpha", "plainname")[salt % 3]
        return Insert(
            "DEPENDENT",
            {"ID": f"hp{counter}", "ESSN": essn, "DEPENDENT_NAME": name},
        )
    if kind == "insert_works":
        # May link two tenants' components into one.
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
        return None
    if kind == "update_description":
        departments = database.tuples("DEPARTMENT")
        department = departments[salt % len(departments)]
        text = ("kwalpha research", "plain words only",
                "kwgamma and kwalpha notes")[salt % 3]
        return Update(department.tid, {"D_DESCRIPTION": text})
    victims = database.tuples("DEPENDENT") + database.tuples("WORKS_FOR")
    if not victims:
        return None
    return Delete(victims[salt % len(victims)].tid)


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


def outcome(engine, query, limits):
    try:
        return ("ok", rendered(engine.search(query, limits=limits)))
    except SearchLimitError as error:
        return ("limit", str(error))


def restored(engine, tmp, **options):
    """Open a snapshot of ``engine``'s current state."""
    path = os.path.join(tmp, f"v{engine.version}.snap")
    engine.save(path)
    return KeywordSearchEngine.open(path, result_cache_entries=0, **options)


class TestSnapshotDifferential:
    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),  # tenants
        operations,
    )
    def test_restored_equals_plain_on_cores(self, config, tenants, ops):
        """After every batch a restored snapshot answers like a plain
        engine over the lockstep database and like the oracle."""
        live = KeywordSearchEngine(
            planted_database(config, tenants), result_cache_entries=0
        )
        plain_db = planted_database(config, tenants)
        with tempfile.TemporaryDirectory() as tmp:
            for counter, (kind, salt) in enumerate([(None, None)] + ops):
                if kind is not None:
                    mutation = build_mutation(live.database, kind, salt, counter)
                    batch = [] if mutation is None else [mutation]
                    live.apply(batch)
                    apply_to_database(plain_db, batch)
                plain = KeywordSearchEngine(plain_db, result_cache_entries=0)
                with restored(live, tmp) as opened:
                    for search in (plain.search, partial(oracle_search, plain_db)):
                        for query in _QUERIES:
                            for semantics in ("and", "or"):
                                assert rendered(
                                    opened.search(
                                        query, limits=_LIMITS,
                                        semantics=semantics,
                                    )
                                ) == rendered(
                                    search(
                                        query, limits=_LIMITS,
                                        semantics=semantics,
                                    )
                                )

    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),  # top-k
        operations,
    )
    def test_batch_stream_topk_and_restore(self, config, tenants, k, ops):
        live = KeywordSearchEngine(
            planted_database(config, tenants), result_cache_entries=0
        )
        plain_db = planted_database(config, tenants)
        for counter, (kind, salt) in enumerate(ops):
            mutation = build_mutation(live.database, kind, salt, counter)
            batch = [] if mutation is None else [mutation]
            live.apply(batch)
            apply_to_database(plain_db, batch)
        plain = KeywordSearchEngine(plain_db, result_cache_entries=0)

        queries = list(_QUERIES)
        expected = [rendered(plain.search(q, limits=_LIMITS)) for q in queries]
        assert [
            rendered(r) for r in live.search_batch(queries, limits=_LIMITS)
        ] == expected
        with tempfile.TemporaryDirectory() as tmp:
            with restored(live, tmp) as opened:
                assert [
                    rendered(r)
                    for r in opened.search_batch(queries, limits=_LIMITS)
                ] == expected
                for query in queries:
                    assert rendered(
                        list(opened.search_stream(query, limits=_LIMITS))
                    ) == rendered(plain.search(query, limits=_LIMITS))
                    assert rendered(
                        opened.search(query, limits=_LIMITS, top_k=k)
                    ) == rendered(plain.search(query, limits=_LIMITS, top_k=k))

    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        operations,
    )
    def test_budget_error_points_identical(self, config, tenants, ops):
        live = KeywordSearchEngine(
            planted_database(config, tenants), result_cache_entries=0
        )
        plain_db = planted_database(config, tenants)
        for counter, (kind, salt) in enumerate(ops):
            mutation = build_mutation(live.database, kind, salt, counter)
            batch = [] if mutation is None else [mutation]
            live.apply(batch)
            apply_to_database(plain_db, batch)
        plain = KeywordSearchEngine(plain_db, result_cache_entries=0)
        with tempfile.TemporaryDirectory() as tmp:
            with restored(live, tmp) as opened:
                for query in _QUERIES:
                    assert outcome(opened, query, _TIGHT) == outcome(
                        plain, query, _TIGHT
                    )


class TestRestoredRowsDifferential:
    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        operations,
        st.integers(min_value=0, max_value=1 << 20),  # rolled-back victim
    )
    def test_rows_equal_a_cold_build(self, config, tenants, ops, salt):
        """A restored engine builds each row on its first read: after
        random batches — whose updates and deletes hit rows it never
        read, being derived from the cold database — and a rolled-back
        batch whose undo restores a relation's whole key order, every
        relation's tuples (values in attribute order, labels, store
        order) equal a cold build's."""
        cold = planted_database(config, tenants)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "base.snap")
            KeywordSearchEngine(planted_database(config, tenants)).save(path)
            with KeywordSearchEngine.open(path, result_cache_entries=0) as opened:
                for counter, (kind, salt_of) in enumerate(ops):
                    mutation = build_mutation(cold, kind, salt_of, counter)
                    batch = [] if mutation is None else [mutation]
                    opened.apply(batch)
                    apply_to_database(cold, batch)
                keys = cold.relation_key_order("WORKS_FOR")
                victims = (keys[0], keys[salt % len(keys)]) if keys else ()
                failing = [
                    Delete(TupleId("WORKS_FOR", key))
                    for key in dict.fromkeys(victims)
                ] + [Insert("WORKS_FOR", {"ESSN": "nobody", "P_ID": "none"})]
                for database_apply in (opened.apply, partial(apply_to_database, cold)):
                    try:
                        database_apply(failing)
                    except ForeignKeyError:
                        pass
                    else:
                        raise AssertionError("the batch was not rolled back")
                assert opened.database.relation_key_order("WORKS_FOR") == keys
                for relation in cold.schema.relations:
                    assert [
                        (record.tid, list(record.values.items()), record.label)
                        for record in opened.database.tuples(relation.name)
                    ] == [
                        (record.tid, list(record.values.items()), record.label)
                        for record in cold.tuples(relation.name)
                    ]


class TestParallelDifferential:
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        operations,
    )
    def test_parallel_equals_serial_after_mutations(self, config, tenants, ops):
        engine = KeywordSearchEngine(
            planted_database(config, tenants), result_cache_entries=0
        )
        plain_db = planted_database(config, tenants)
        try:
            for counter, (kind, salt) in enumerate(ops):
                mutation = build_mutation(engine.database, kind, salt, counter)
                batch = [] if mutation is None else [mutation]
                engine.apply(batch)
                apply_to_database(plain_db, batch)
            plain = KeywordSearchEngine(plain_db, result_cache_entries=0)
            queries = list(_QUERIES)
            parallel = [
                rendered(r)
                for r in engine.search_batch(queries, limits=_LIMITS, jobs=2)
            ]
            assert parallel == [
                rendered(r) for r in plain.search_batch(queries, limits=_LIMITS)
            ]
        finally:
            engine.close_pool()
