"""Engine-level live updates: apply(), version, rebuild hygiene."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.executor import ExecutionStats
from repro.errors import IntegrityError
from repro.live.changes import Delete, Insert, Update
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


class TestApply:
    def test_version_bumps_and_stamps(self, engine):
        assert engine.version == 0
        changeset = engine.apply(
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Nora"})]
        )
        assert engine.version == 1
        assert changeset.version == 1
        engine.apply([Delete(tid("DEPENDENT", "t9"))])
        assert engine.version == 2

    def test_apply_equals_rebuilt_engine(self, engine):
        engine.apply(
            [
                Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                     "DEPENDENT_NAME": "Smith"}),
                Update(tid("DEPARTMENT", "d2"),
                       {"D_DESCRIPTION": "XML retrieval lab"}),
                Delete(tid("DEPENDENT", "t1")),
            ]
        )
        fresh = KeywordSearchEngine(engine.database)
        for query in ("Smith XML", "Smith Brown", "XML"):
            for semantics in ("and", "or"):
                assert rendered(
                    engine.search(query, semantics=semantics)
                ) == rendered(fresh.search(query, semantics=semantics))

    def test_failed_apply_changes_nothing(self, engine):
        baseline = rendered(engine.search("Smith XML"))
        version = engine.version
        with pytest.raises(IntegrityError):
            engine.apply(
                [
                    Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Smith"}),
                    Delete(tid("EMPLOYEE", "e2")),  # referenced -> fails
                ]
            )
        assert engine.version == version
        assert rendered(engine.search("Smith XML")) == baseline
        assert rendered(
            KeywordSearchEngine(engine.database).search("Smith XML")
        ) == baseline

    def test_fk_delete_error_is_clear_and_non_corrupting(self, engine):
        with pytest.raises(IntegrityError, match="still referenced"):
            engine.apply([Delete(tid("EMPLOYEE", "e1"))])
        # Graph untouched: the employee and its edges still answer.
        assert engine.data_graph.has_node(tid("EMPLOYEE", "e1"))
        assert rendered(engine.search("Smith XML")) == rendered(
            KeywordSearchEngine(engine.database).search("Smith XML")
        )

    def test_empty_batch_bumps_version_only(self, engine):
        engine.search("Smith XML")
        stores = engine.result_cache.stats.stores
        changeset = engine.apply([])
        assert changeset.is_empty()
        assert engine.version == 1
        assert engine.result_cache.stats.invalidated == 0
        assert engine.result_cache.stats.stores == stores

    def test_stream_and_batch_see_mutations(self, engine):
        engine.apply(
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Smith"})]
        )
        fresh = KeywordSearchEngine(engine.database)
        assert rendered(list(engine.search_stream("Smith XML"))) == rendered(
            list(fresh.search_stream("Smith XML"))
        )
        assert [rendered(r) for r in engine.search_batch(
            ["Smith XML", "Smith Brown"]
        )] == [rendered(r) for r in fresh.search_batch(
            ["Smith XML", "Smith Brown"]
        )]


    def test_append_beside_a_source_at_budget_distance(self, company_db):
        # "Barbara" (e2) lies exactly max_rdb_length = 5 hops from
        # "programming" (d1): outside d1's radius-3 distance row, so an
        # insert next to e2 leaves that row cached and the next search
        # reads it at the appended tuple, which lies in e2's source ball.
        engine = KeywordSearchEngine(company_db, result_cache_entries=0)
        baseline = rendered(engine.search("Barbara programming"))
        assert baseline
        frozen = engine.traversal_cache.frozen()
        d1 = frozen.node_of(tid("DEPARTMENT", "d1"))
        row = frozen._distances[d1][0]
        engine.apply(
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Nora"})]
        )
        assert frozen._distances[d1][0] is row  # survived the apply
        fresh = KeywordSearchEngine(engine.database, result_cache_entries=0)
        for query in ("Barbara programming", "Nora programming"):
            assert rendered(engine.search(query)) == rendered(
                fresh.search(query)
            )
        assert rendered(engine.search("Barbara programming")) == baseline


class TestRebuildHygiene:
    def test_rebuild_clears_pipeline_state(self, engine):
        engine.search_batch(["Smith XML", "SMITH XML"], top_k=2)
        assert engine.last_stats.candidates > 0
        assert len(engine.result_cache) > 0
        version = engine.version
        engine.rebuild()
        assert engine.last_stats == ExecutionStats()
        assert len(engine.result_cache) == 0
        assert engine.version == version + 1

    def test_rebuild_still_oracle_after_direct_mutation(self, engine):
        engine.search("Nora")
        engine.database.insert(
            "DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}
        )
        engine.rebuild()
        results = engine.search("Nora")
        assert len(results) == 1


class TestStreamMutationInterleaving:
    def test_stream_refuses_to_continue_after_apply(self, engine):
        from repro.errors import MutationError

        stream = engine.search_stream("Smith XML")
        next(stream)
        engine.apply(
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Smith"})]
        )
        with pytest.raises(MutationError, match="restart the stream"):
            next(stream)

    def test_abandoned_stream_never_pollutes_cache(self, engine):
        stream = engine.search_stream("Smith XML")
        next(stream)
        engine.apply(
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Smith"})]
        )
        stream.close()
        fresh = KeywordSearchEngine(engine.database)
        assert rendered(engine.search("Smith XML")) == rendered(
            fresh.search("Smith XML")
        )

    def test_cached_replay_also_guarded(self, engine):
        from repro.errors import MutationError

        list(engine.search_stream("Smith XML"))  # populate cache
        stream = engine.search_stream("Smith XML")  # replays entry
        next(stream)
        engine.apply([Delete(tid("DEPENDENT", "t1"))])
        with pytest.raises(MutationError):
            next(stream)
