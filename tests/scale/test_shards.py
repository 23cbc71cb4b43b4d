"""Unit tests for component-based shard partitioning and routing."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    generate_tenants,
    plant,
)
from repro.errors import QueryError
from repro.live.changes import Delete, Insert, Update
from repro.relational.database import TupleId
from repro.scale.shards import CROSS_SHARD, KeywordRouter, ShardPlan

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=11,
)


def tenant_engine(tenants=4, shards=4, **options):
    return KeywordSearchEngine(
        generate_tenants(CONFIG, tenants=tenants), shards=shards, **options
    )


class TestPartition:
    def test_every_live_node_is_assigned(self):
        engine = tenant_engine()
        plan = engine.shard_plan
        frozen = engine.traversal_cache.frozen()
        for node in range(frozen.capacity):
            assert plan._assignment[node] >= 0

    def test_components_are_never_split(self):
        engine = tenant_engine(tenants=3, shards=2)
        plan = engine.shard_plan
        frozen = engine.traversal_cache.frozen()
        components = frozen.components()
        shard_of_component = {}
        for node in range(frozen.capacity):
            shard = plan._assignment[node]
            previous = shard_of_component.setdefault(components[node], shard)
            assert previous == shard

    def test_balanced_across_equal_tenants(self):
        engine = tenant_engine(tenants=4, shards=2)
        sizes = engine.shard_plan.sizes()
        assert len(sizes) == 2
        assert sum(sizes) == engine.traversal_cache.frozen().live_count()
        # Four near-equal components over two shards: close to even.
        assert max(sizes) <= 2 * min(sizes)

    def test_deterministic(self):
        first = tenant_engine().shard_plan
        second = tenant_engine().shard_plan
        assert first._assignment == second._assignment

    def test_shard_count_validated(self):
        engine = tenant_engine(shards=None)
        with pytest.raises(QueryError):
            ShardPlan(engine.traversal_cache, 0)

    def test_more_shards_than_components(self):
        engine = tenant_engine(tenants=2, shards=5)
        sizes = engine.shard_plan.sizes()
        assert sum(1 for size in sizes if size) == 2  # only 2 components exist


class TestShardOf:
    def test_same_shard_group(self):
        engine = tenant_engine()
        plan = engine.shard_plan
        employees = [r.tid for r in engine.database.tuples("EMPLOYEE")]
        same_tenant = [t for t in employees if t.key[0].startswith("t1e")]
        shard = plan.shard_of_all(same_tenant[:3])
        assert isinstance(shard, int)

    def test_cross_shard_group(self):
        engine = tenant_engine(tenants=4, shards=4)
        plan = engine.shard_plan
        a = engine.database.get("EMPLOYEE", "t1e1").tid
        b = engine.database.get("EMPLOYEE", "t2e1").tid
        if plan.shard_of(a) != plan.shard_of(b):
            assert plan.shard_of_all([a, b]) is CROSS_SHARD

    def test_unknown_tuple_yields_none(self):
        engine = tenant_engine()
        plan = engine.shard_plan
        ghost = TupleId("EMPLOYEE", ("nope",))
        assert plan.shard_of(ghost) is None
        known = engine.database.get("EMPLOYEE", "t1e1").tid
        assert plan.shard_of_all([known, ghost]) is None


class TestShardGraphs:
    def test_local_graphs_partition_the_nodes(self):
        engine = tenant_engine(tenants=3, shards=3)
        plan = engine.shard_plan
        total = sum(
            plan.graph_for(shard).capacity for shard in range(plan.shard_count)
        )
        assert total == engine.traversal_cache.frozen().live_count()

    def test_local_interning_round_trips(self):
        engine = tenant_engine()
        plan = engine.shard_plan
        for shard in range(plan.shard_count):
            graph = plan.graph_for(shard)
            for node in range(graph.capacity):
                tid = graph.tid_of(node)
                assert graph.node_of(tid) == node
                assert plan.shard_of(tid) == shard

    def test_local_edges_stay_inside_the_shard(self):
        engine = tenant_engine()
        plan = engine.shard_plan
        for shard in range(plan.shard_count):
            graph = plan.graph_for(shard)
            for target in graph._targets:
                assert 0 <= target < graph.capacity

    def test_shard_kernels_match_global(self):
        from repro.graph.csr import csr_enumerate_simple_paths

        engine = tenant_engine(tenants=2, shards=2)
        plan = engine.shard_plan
        employees = [
            r.tid for r in engine.database.tuples("EMPLOYEE")
            if r.tid.key[0].startswith("t1e")
        ]
        source, target = employees[0], employees[2]
        shard = plan.shard_of(source)
        assert plan.shard_of(target) == shard
        global_paths = list(
            csr_enumerate_simple_paths(
                engine.data_graph, source, target, 4,
                cache=engine.traversal_cache,
            )
        )
        local_paths = list(
            csr_enumerate_simple_paths(
                engine.data_graph, source, target, 4,
                cache=plan.cache_for(shard),
            )
        )
        render = lambda paths: [
            [(str(s.source), str(s.target), s.edge_key) for s in path]
            for path in paths
        ]
        assert render(global_paths) == render(local_paths)
        assert len(global_paths) > 0


class TestRouter:
    def test_routes_from_postings(self):
        database = generate_tenants(CONFIG, tenants=3)
        plant(database, "needle", "EMPLOYEE", "L_NAME", 3, seed=5)
        engine = KeywordSearchEngine(database, shards=3)
        router = engine.router()
        shards = router.shards_for("needle")
        expected = {
            engine.shard_plan.shard_of(tid)
            for tid in engine.index.matching_tuples("needle")
        }
        assert shards == frozenset(expected)

    def test_and_intersects_or_unions(self):
        database = generate_tenants(CONFIG, tenants=3)
        plant(database, "kwone", "EMPLOYEE", "L_NAME", 2, seed=5)
        plant(database, "kwtwo", "PROJECT", "P_DESCRIPTION", 2, seed=6)
        engine = KeywordSearchEngine(database, shards=3)
        router = engine.router()
        one, two = router.shards_for("kwone"), router.shards_for("kwtwo")
        assert router.route(("kwone", "kwtwo"), "and") == one & two
        assert router.route(("kwone", "kwtwo"), "or") == one | two

    def test_unknown_keyword_routes_nowhere(self):
        engine = tenant_engine()
        assert engine.router().route(("zzznope",), "and") == frozenset()

    def test_semantics_validated(self):
        engine = tenant_engine()
        with pytest.raises(QueryError):
            engine.router().route(("a",), "xor")


class TestDifferential:
    """Sharded execution must be invisible in answers."""

    QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha")

    @staticmethod
    def planted(tenants=3):
        database = generate_tenants(CONFIG, tenants=tenants)
        plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 4, seed=1)
        plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 4, seed=2)
        plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 4, seed=3)
        return database

    @staticmethod
    def rendered(results):
        return [(r.render(), r.score, r.rank) for r in results]

    @pytest.mark.parametrize("core", ["csr", "reference"])
    def test_identical_across_cores_and_semantics(self, core):
        database = self.planted()
        plain = KeywordSearchEngine(database, core=core, result_cache_entries=0)
        sharded = KeywordSearchEngine(
            database, core=core, shards=3, result_cache_entries=0
        )
        limits = SearchLimits(max_rdb_length=4, max_tuples=5)
        for query in self.QUERIES:
            for semantics in ("and", "or"):
                assert self.rendered(
                    sharded.search(query, limits=limits, semantics=semantics)
                ) == self.rendered(
                    plain.search(query, limits=limits, semantics=semantics)
                )

    def test_identical_with_topk_and_stream(self):
        database = self.planted()
        plain = KeywordSearchEngine(database, result_cache_entries=0)
        sharded = KeywordSearchEngine(database, shards=3, result_cache_entries=0)
        limits = SearchLimits(max_rdb_length=4, max_tuples=5)
        for query in self.QUERIES:
            assert self.rendered(
                sharded.search(query, limits=limits, top_k=3)
            ) == self.rendered(plain.search(query, limits=limits, top_k=3))
            assert self.rendered(
                list(sharded.search_stream(query, limits=limits))
            ) == self.rendered(plain.search(query, limits=limits))

    def test_sharding_actually_skips_units(self):
        database = self.planted()
        sharded = KeywordSearchEngine(database, shards=3, result_cache_entries=0)
        sharded.search("kwalpha kwbeta", limits=SearchLimits(max_rdb_length=4))
        assert sharded.last_stats.shard_skips > 0


class TestLiveMaintenance:
    def test_insert_routes_to_existing_component_shard(self):
        engine = tenant_engine(tenants=3, shards=3)
        plan = engine.shard_plan
        host = engine.database.get("EMPLOYEE", "t2e1")
        host_shard = plan.shard_of(host.tid)
        engine.apply([
            Insert("DEPENDENT", {"ID": "zz1", "ESSN": "t2e1",
                                 "DEPENDENT_NAME": "Newborn"})
        ])
        assert plan.shard_of(TupleId("DEPENDENT", ("zz1",))) == host_shard

    def test_component_merge_unifies_shards(self):
        engine = tenant_engine(tenants=2, shards=2)
        plan = engine.shard_plan
        a = engine.database.get("EMPLOYEE", "t1e1").tid
        b = engine.database.get("PROJECT", "t2p1").tid
        first, second = plan.shard_of(a), plan.shard_of(b)
        assert first != second
        engine.apply([
            Insert("WORKS_FOR", {"ESSN": "t1e1", "P_ID": "t2p1", "HOURS": 5})
        ])
        merged = plan.shard_of(a)
        assert merged == plan.shard_of(b) == min(first, second)

    def test_assignment_stays_component_aligned_after_mutations(self):
        engine = tenant_engine(tenants=3, shards=2)
        victim = engine.database.tuples("WORKS_FOR")[-1].tid
        engine.apply([
            Insert("DEPENDENT", {"ID": "zz2", "ESSN": "t1e2",
                                 "DEPENDENT_NAME": "kid"}),
            Update(TupleId("DEPARTMENT", ("t2d1",)),
                   {"D_DESCRIPTION": "changed words"}),
            Delete(victim),
        ])
        plan = engine.shard_plan
        frozen = engine.traversal_cache.frozen()
        components = frozen.components()
        shard_of_component = {}
        for node in range(frozen.capacity):
            if not frozen._alive[node]:
                continue
            shard = plan._assignment[node]
            assert shard >= 0
            previous = shard_of_component.setdefault(components[node], shard)
            assert previous == shard

    def test_delete_never_leaks_tombstones_into_shard_graphs(self):
        """Regression: a removed tuple's stale shard assignment must not
        surface in the shard's next extraction (tid_of on a tombstone)."""
        database = TestDifferential.planted()
        sharded = KeywordSearchEngine(database, shards=3, result_cache_entries=0)
        plain = KeywordSearchEngine(
            TestDifferential.planted(), result_cache_entries=0
        )
        sharded.search("kwalpha kwbeta", limits=SearchLimits(max_rdb_length=4))
        victims = database.tuples("DEPENDENT") or database.tuples("WORKS_FOR")
        mutation = [Delete(victims[0].tid)]
        sharded.apply(mutation)
        plain.apply(mutation)
        for query in TestDifferential.QUERIES:
            assert TestDifferential.rendered(
                sharded.search(query, limits=SearchLimits(max_rdb_length=4))
            ) == TestDifferential.rendered(
                plain.search(query, limits=SearchLimits(max_rdb_length=4))
            )
        plan = sharded.shard_plan
        frozen = sharded.traversal_cache.frozen()
        for shard in range(plan.shard_count):
            graph = plan.graph_for(shard)
            assert all(graph.tid_of(n) is not None for n in range(graph.capacity))
        for node in range(frozen.capacity):
            if not frozen._alive[node]:
                assert plan._assignment[node] == -1

    def test_compaction_triggers_full_rebuild(self):
        engine = tenant_engine(tenants=3, shards=3)
        plan = engine.shard_plan
        frozen = engine.traversal_cache.frozen()
        frozen.compaction_threshold = 0.0
        frozen.min_compaction_nodes = 1
        before = plan.version
        engine.apply([
            Insert("DEPENDENT", {"ID": "zz3", "ESSN": "t1e1",
                                 "DEPENDENT_NAME": "kid"})
        ])
        assert engine.traversal_cache.frozen().compactions >= 1
        assert plan.version > before
        # still component-aligned and queryable
        assert plan.shard_of(TupleId("DEPENDENT", ("zz3",))) is not None
