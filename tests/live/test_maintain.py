"""Incremental maintainers equal a full rebuild, structure by structure."""

from collections import defaultdict

import pytest

from repro.datasets.company import build_company_database
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import (
    affected_tuples,
    apply_changeset,
    apply_to_traversal_cache,
)
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def graph_signature(data_graph):
    graph = data_graph.graph
    nodes = sorted((str(n), data["relation"]) for n, data in graph.nodes(data=True))
    edges = sorted(
        (str(u), str(v), key, data["foreign_key"].name, str(data["referencing"]))
        for u, v, key, data in graph.edges(keys=True, data=True)
    )
    return nodes, edges


def index_signature(index):
    return {
        token: list(index.postings(token)) for token in index.vocabulary()
    }


BATCH = [
    Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}),
    Update(tid("DEPARTMENT", "d2"), {"D_DESCRIPTION": "Quantum projects"}),
    Update(tid("DEPENDENT", "t2"), {"ESSN": "e1"}),
    Delete(tid("DEPENDENT", "t1")),
]


class TestMaintainers:
    def test_index_equals_fresh_build(self, company_db):
        index = InvertedIndex(company_db)
        changeset = apply_to_database(company_db, BATCH)
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )

    @pytest.mark.parametrize("then", ["delete", "rename", "reinsert"])
    def test_index_unposts_the_pre_batch_image(self, company_db, then):
        # The index holds a tuple under its pre-batch tokens only; a
        # batch that renames it and then deletes, renames again or
        # re-inserts it must unpost exactly those.
        index = InvertedIndex(company_db)
        t1 = tid("DEPENDENT", "t1")
        before = dict(company_db.tuple(t1).values)
        follow = {
            "delete": [Delete(t1)],
            "rename": [Update(t1, {"DEPENDENT_NAME": "Quentin"})],
            "reinsert": [Delete(t1), Insert("DEPENDENT", {
                **before, "DEPENDENT_NAME": "Quentin",
            })],
        }[then]
        changeset = apply_to_database(
            company_db,
            [Update(t1, {"DEPENDENT_NAME": "Renamed"})] + follow,
        )
        assert changeset.before == {t1: before}
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )

    def test_index_after_delete_reinsert_equals_fresh_build(self, company_db):
        # A replace moves the tuple to the relation's store tail; its
        # posting position must follow (posting order included).
        index = InvertedIndex(company_db)
        changeset = apply_to_database(
            company_db,
            [
                Delete(tid("DEPENDENT", "t1")),
                Insert("DEPENDENT", {"ID": "t1", "ESSN": "e2",
                                     "DEPENDENT_NAME": "Renamed"}),
            ],
        )
        assert changeset.tuples_replaced == (tid("DEPENDENT", "t1"),)
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )

    @pytest.mark.parametrize("restored", [False, True])
    def test_batch_appends_take_tail_positions_without_a_rescan(
        self, company_db, restored, monkeypatch
    ):
        # Several inserts into one relation plus a delete-then-reinsert:
        # the store tail ends up t8, t1, t9 (added and replaced tuples
        # interleaved), and none of them is "the last tuple" alone.
        if restored:
            built = InvertedIndex(company_db)
            index = InvertedIndex.from_state(
                company_db,
                defaultdict(list, {token: list(built.postings(token))
                                   for token in built.vocabulary()}),
            )
        else:
            index = InvertedIndex(company_db)
        changeset = apply_to_database(
            company_db,
            [
                Delete(tid("DEPENDENT", "t1")),
                Insert("DEPENDENT", {"ID": "t8", "ESSN": "e1",
                                     "DEPENDENT_NAME": "Alice"}),
                Insert("DEPENDENT", {"ID": "t1", "ESSN": "e2",
                                     "DEPENDENT_NAME": "Alice"}),
                Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                     "DEPENDENT_NAME": "Alice"}),
            ],
        )
        assert changeset.tuples_replaced == (tid("DEPENDENT", "t1"),)
        assert [record.tid for record in company_db.tail("DEPENDENT", 3)] == [
            tid("DEPENDENT", "t8"), tid("DEPENDENT", "t1"),
            tid("DEPENDENT", "t9"),
        ]
        rescans = []
        refresh = index._refresh_order
        monkeypatch.setattr(
            index, "_refresh_order",
            lambda relation: rescans.append(relation) or refresh(relation),
        )
        if restored:
            # Installed by from_state with the original bound method.
            index._order._fill = index._refresh_order
        apply_changeset(changeset, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )
        again = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": f"u{n}", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Alice"}) for n in (1, 2)],
        )
        apply_changeset(again, company_db, index=index)
        assert index_signature(index) == index_signature(
            InvertedIndex(company_db)
        )
        # A restored index derives a relation's order keys lazily — one
        # scan when a new posting first meets an old one of that
        # relation — but no batch ever triggers a scan by itself.
        assert len(rescans) == len(set(rescans))
        assert restored or not rescans

    def test_graph_equals_fresh_build(self, company_db):
        data_graph = DataGraph(company_db)
        changeset = apply_to_database(company_db, BATCH)
        apply_changeset(changeset, company_db, data_graph=data_graph)
        assert graph_signature(data_graph) == graph_signature(
            DataGraph(company_db)
        )

    def test_conceptual_view_patched_not_stale(self, company_db):
        data_graph = DataGraph(company_db)
        stale = data_graph.conceptual_graph()
        changeset = apply_to_database(
            company_db,
            [Insert("WORKS_FOR",
                    {"ESSN": "e3", "P_ID": "p1", "HOURS": 5})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        fresh = data_graph.conceptual_graph()
        assert fresh is not stale
        assert fresh.has_edge(tid("EMPLOYEE", "e3"), tid("PROJECT", "p1"))


class TestTraversalCacheInvalidation:
    def test_only_touched_component_maps_drop(self, company_db):
        # Add an isolated department: its component is separate from the
        # main one, so its distance row must survive mutations elsewhere.
        company_db.insert("DEPARTMENT", {"ID": "d9", "D_NAME": "isolated"})
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        d9 = frozen.node_of(tid("DEPARTMENT", "d9"))
        e1 = frozen.node_of(tid("EMPLOYEE", "e1"))
        frozen.distances(d9, radius=3)
        frozen.distances(e1, radius=3)
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT",
                    {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        apply_to_traversal_cache(cache, changeset)
        assert cache.compiled() is frozen  # patched, not recompiled
        assert e1 not in frozen._distances  # its source gained an edge
        cache.hits = cache.misses = 0
        frozen.distances(d9, radius=3)
        assert cache.hits == 1 and cache.misses == 0

    def test_value_only_update_keeps_every_map(self, company_db):
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        frozen = cache.frozen()
        e1 = frozen.node_of(tid("EMPLOYEE", "e1"))
        row = frozen.distances(e1, radius=3)
        changeset = apply_to_database(
            company_db,
            [Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "robotics"})],
        )
        apply_changeset(changeset, company_db, data_graph=data_graph)
        apply_to_traversal_cache(cache, changeset)
        cache.hits = cache.misses = 0
        assert frozen.distances(e1, radius=3) is row
        assert cache.hits == 1 and cache.misses == 0


class TestAffectedTuples:
    """The taint ball: depth-labelled, bounded, same on every graph form."""

    INSERT = [Insert("DEPENDENT",
                     {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})]

    def taint(self, company_db, mutations, reach, compiled):
        data_graph = DataGraph(company_db)
        cache = TraversalCache(data_graph)
        if compiled:
            cache.frozen()
        changeset = apply_to_database(company_db, mutations)
        apply_changeset(
            changeset, company_db, data_graph=data_graph, traversal_cache=cache
        )
        return data_graph, affected_tuples(cache, changeset, reach)

    def test_structural_change_taints_only_its_ball(self, company_db):
        import networkx as nx

        for reach in (0, 1, 2, 5):
            db = build_company_database()
            data_graph, affected = self.taint(db, self.INSERT, reach, True)
            distances = nx.multi_source_dijkstra_path_length(
                nx.Graph(data_graph.graph),
                {tid("DEPENDENT", "t9"), tid("EMPLOYEE", "e1")},
            )
            assert affected == {
                node: depth for node, depth in distances.items()
                if depth <= reach
            }
        # One FK hop from e1 is its department; the rest of the (single)
        # component lies farther out and stays untainted at reach 1.
        __, near = self.taint(company_db, self.INSERT, 1, True)
        assert near[tid("DEPENDENT", "t9")] == near[tid("EMPLOYEE", "e1")] == 0
        assert near[tid("DEPARTMENT", "d1")] == 1
        assert tid("DEPARTMENT", "d2") not in near

    def test_data_graph_sweep_equals_compiled_sweep(self):
        for reach in (0, 1, 3):
            __, compiled = self.taint(
                build_company_database(), BATCH, reach, True
            )
            __, plain = self.taint(
                build_company_database(), BATCH, reach, False
            )
            assert compiled == plain

    def test_value_update_taints_only_the_tuple(self, company_db):
        # Value-only updates have no structural reach at all: the answer
        # cache tests them against entry footprints instead.
        __, affected = self.taint(
            company_db,
            [Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "robotics"})],
            5,
            True,
        )
        assert affected == {}

    def test_removed_tuple_still_reported_affected(self, company_db):
        __, affected = self.taint(
            company_db, [Delete(tid("DEPENDENT", "t1"))], 1, True
        )
        assert affected[tid("DEPENDENT", "t1")] == 0
        assert affected[tid("EMPLOYEE", "e3")] == 0
