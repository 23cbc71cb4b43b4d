"""Differential property: the scale layer is invisible to answering.

Hypothesis drives random multi-tenant instances, shard counts, cores,
semantics and live-update interleavings; at every step the sharded
engine — and, at the final state, a snapshot-restored engine and the
process-pool batch path — must be bit-identical (answers, order,
scores, ranks, ``SearchLimitError`` points) to a plain unsharded
engine over the same data.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import SearchLimitError
from repro.live.changes import Delete, Insert, Update

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
        # May link two tenants' components — the shard-merge path.
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


class TestShardedDifferential:
    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),  # tenants
        st.integers(min_value=1, max_value=4),  # shards
        st.sampled_from(("csr", "reference")),
        operations,
    )
    def test_sharded_equals_plain_through_mutations(
        self, config, tenants, shards, core, ops
    ):
        sharded = KeywordSearchEngine(
            planted_database(config, tenants), core=core, shards=shards,
            result_cache_entries=0,
        )
        plain_db = planted_database(config, tenants)
        for counter, (kind, salt) in enumerate([(None, None)] + ops):
            if kind is not None:
                mutation = build_mutation(sharded.database, kind, salt, counter)
                batch = [] if mutation is None else [mutation]
                sharded.apply(batch)
                from repro.live.changes import apply_to_database

                apply_to_database(plain_db, batch)
            plain = KeywordSearchEngine(
                plain_db, core=core, result_cache_entries=0
            )
            for query in _QUERIES:
                for semantics in ("and", "or"):
                    assert rendered(
                        sharded.search(
                            query, limits=_LIMITS, semantics=semantics
                        )
                    ) == rendered(
                        plain.search(query, limits=_LIMITS, semantics=semantics)
                    )

    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),  # top-k
        operations,
    )
    def test_batch_stream_topk_and_snapshot_round_trip(
        self, config, tenants, shards, k, ops
    ):
        import os
        import tempfile

        sharded = KeywordSearchEngine(
            planted_database(config, tenants), shards=shards,
            result_cache_entries=0,
        )
        for counter, (kind, salt) in enumerate(ops):
            mutation = build_mutation(sharded.database, kind, salt, counter)
            sharded.apply([] if mutation is None else [mutation])
        plain = KeywordSearchEngine(
            planted_database(config, tenants), result_cache_entries=0
        )
        for counter, (kind, salt) in enumerate(ops):
            mutation = build_mutation(plain.database, kind, salt, counter)
            plain.apply([] if mutation is None else [mutation])

        queries = list(_QUERIES)
        expected = [rendered(plain.search(q, limits=_LIMITS)) for q in queries]
        assert [
            rendered(r) for r in sharded.search_batch(queries, limits=_LIMITS)
        ] == expected
        for query in queries:
            assert rendered(
                list(sharded.search_stream(query, limits=_LIMITS))
            ) == rendered(plain.search(query, limits=_LIMITS))
            assert rendered(
                sharded.search(query, limits=_LIMITS, top_k=k)
            ) == rendered(plain.search(query, limits=_LIMITS, top_k=k))

        with tempfile.TemporaryDirectory() as tmp:
            restored = KeywordSearchEngine.open(
                sharded.save(os.path.join(tmp, "s.snap"))
                and os.path.join(tmp, "s.snap"),
                result_cache_entries=0,
            )
            assert [
                rendered(r)
                for r in restored.search_batch(queries, limits=_LIMITS)
            ] == expected

    @relaxed
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        operations,
    )
    def test_budget_error_points_identical(self, config, tenants, shards, ops):
        sharded = KeywordSearchEngine(
            planted_database(config, tenants), shards=shards,
            result_cache_entries=0,
        )
        plain_db = planted_database(config, tenants)
        from repro.live.changes import apply_to_database

        for counter, (kind, salt) in enumerate(ops):
            mutation = build_mutation(sharded.database, kind, salt, counter)
            batch = [] if mutation is None else [mutation]
            sharded.apply(batch)
            apply_to_database(plain_db, batch)
        plain = KeywordSearchEngine(plain_db, result_cache_entries=0)
        for query in _QUERIES:
            assert outcome(sharded, query, _TIGHT) == outcome(
                plain, query, _TIGHT
            )


class TestParallelDifferential:
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        configs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        operations,
    )
    def test_parallel_equals_serial_after_mutations(
        self, config, tenants, shards, ops
    ):
        engine = KeywordSearchEngine(
            planted_database(config, tenants), shards=shards,
            result_cache_entries=0,
        )
        try:
            for counter, (kind, salt) in enumerate(ops):
                mutation = build_mutation(engine.database, kind, salt, counter)
                engine.apply([] if mutation is None else [mutation])
            queries = list(_QUERIES)
            serial = [
                rendered(r) for r in engine.search_batch(queries, limits=_LIMITS)
            ]
            parallel = [
                rendered(r)
                for r in engine.search_batch(queries, limits=_LIMITS, jobs=2)
            ]
            assert serial == parallel
        finally:
            engine.close_pool()
