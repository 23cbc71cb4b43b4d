"""Differential tests for the process-pool batch executor."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import RdbLengthRanker
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import SearchLimitError
from repro.live.changes import Insert

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=31,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = [
    "kwalpha kwbeta",
    "kwalpha kwbeta kwgamma",
    "kwalpha",
    "zznothing",
    "kwbeta kwgamma",
]


def planted_database(tenants=3):
    database = generate_tenants(CONFIG, tenants=tenants)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 3, seed=3)
    return database


def rendered(batches):
    return [[(r.render(), r.score, r.rank) for r in results]
            for results in batches]


@pytest.fixture()
def engine():
    engine = KeywordSearchEngine(planted_database())
    yield engine
    engine.close_pool()


class TestParallelDifferential:
    def test_batch_identical_to_serial(self, engine):
        serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
        parallel = rendered(engine.search_batch(QUERIES, limits=LIMITS, jobs=2))
        assert serial == parallel

    def test_or_semantics_and_topk(self, engine):
        for top_k in (None, 2):
            serial = rendered(
                engine.search_batch(
                    QUERIES, limits=LIMITS, semantics="or", top_k=top_k
                )
            )
            parallel = rendered(
                engine.search_batch(
                    QUERIES, limits=LIMITS, semantics="or", top_k=top_k, jobs=2
                )
            )
            assert serial == parallel

    def test_non_default_ranker_round_trips(self, engine):
        ranker = RdbLengthRanker()
        serial = rendered(
            engine.search_batch(QUERIES, ranker=ranker, limits=LIMITS)
        )
        parallel = rendered(
            engine.search_batch(QUERIES, ranker=ranker, limits=LIMITS, jobs=2)
        )
        assert serial == parallel

    def test_duplicate_queries_collapse(self, engine):
        queries = [QUERIES[0], QUERIES[1], QUERIES[0], QUERIES[0]]
        parallel = engine.search_batch(queries, limits=LIMITS, jobs=2)
        assert rendered([parallel[0]]) == rendered([parallel[2]])
        assert parallel[0] is parallel[3]

    def test_more_jobs_than_queries(self, engine):
        serial = rendered(engine.search_batch(QUERIES[:2], limits=LIMITS))
        parallel = rendered(
            engine.search_batch(QUERIES[:2], limits=LIMITS, jobs=4)
        )
        assert serial == parallel

    def test_jobs_one_stays_serial(self, engine):
        engine.search_batch(QUERIES[:2], limits=LIMITS, jobs=1)
        assert engine._searcher is None  # no pool was ever started

    def test_worker_answers_revive_against_coordinator_graph(self, engine):
        results = engine.search_batch(QUERIES[:2], limits=LIMITS, jobs=2)[0]
        connection = next(
            r.answer for r in results if hasattr(r.answer, "steps")
        )
        explained = engine.explain(
            next(r for r in results if r.answer is connection)
        )
        assert "verdict" in explained  # metrics computable after revival


class TestParallelStats:
    def test_stats_merge_across_workers(self, engine):
        engine.search_batch(QUERIES, limits=LIMITS)
        serial_stats = engine.last_stats
        engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        parallel_stats = engine.last_stats
        assert parallel_stats.candidates == serial_stats.candidates
        assert parallel_stats.emitted == serial_stats.emitted


class TestParallelErrors:
    def test_budget_error_matches_serial(self, engine):
        tight = SearchLimits(
            max_rdb_length=4, max_tuples=5,
            max_paths_per_pair=1, max_networks=1,
        )

        def outcome(jobs):
            try:
                return (
                    "ok",
                    rendered(
                        engine.search_batch(QUERIES, limits=tight, jobs=jobs)
                    ),
                )
            except SearchLimitError as error:
                return ("limit", str(error), error.context)

        assert outcome(None) == outcome(2)

    def test_earlier_queries_survive_a_failing_one(self, engine):
        tight = SearchLimits(
            max_rdb_length=4, max_tuples=5,
            max_paths_per_pair=1, max_networks=1,
        )
        try:
            engine.search_batch(QUERIES, limits=tight, jobs=2)
        except SearchLimitError:
            pass
        else:  # the workload must actually trip the budget for this test
            pytest.skip("workload did not exceed the tight budget")
        # the failing batch left the engine fully usable
        serial = rendered(engine.search_batch(QUERIES[:1], limits=LIMITS))
        parallel = rendered(
            engine.search_batch(QUERIES[:1], limits=LIMITS, jobs=2)
        )
        assert serial == parallel


class TestCallerShare:
    """``jobs=N`` counts this process: N − 1 workers answer beside it."""

    DISTINCT = [
        "kwalpha kwbeta",
        "kwalpha kwbeta kwgamma",
        "kwalpha",
        "zznothing",
        "kwbeta kwgamma",
        "kwalpha kwgamma",
        "kwgamma",
        "kwbeta",
    ]
    TIGHT = SearchLimits(
        max_rdb_length=4, max_tuples=5, max_paths_per_pair=1, max_networks=1
    )

    @staticmethod
    def _serial_error(queries, limits):
        engine = KeywordSearchEngine(planted_database())
        with pytest.raises(SearchLimitError) as caught:
            engine.search_batch(queries, limits=limits)
        return str(caught.value)

    @staticmethod
    def _cached(engine, queries, limits):
        return [
            engine.result_cache.lookup(
                engine._cache_key(q, engine.ranker, limits, None, "and", None)
            )
            is not None
            for q in queries
        ]

    def test_two_jobs_start_one_worker(self, engine):
        import multiprocessing

        serial = rendered(
            KeywordSearchEngine(planted_database()).search_batch(
                self.DISTINCT, limits=LIMITS
            )
        )
        before = {p.pid for p in multiprocessing.active_children()}
        parallel = rendered(
            engine.search_batch(self.DISTINCT, limits=LIMITS, jobs=2)
        )
        searcher = engine._searcher
        started = {p.pid for p in multiprocessing.active_children()} - before
        assert started == {process.pid for process, __ in searcher._workers}
        assert len(started) == 1
        assert searcher.last_assignment == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert searcher.pipe_batches == 1
        assert parallel == serial

    def test_error_in_this_process_raises_after_earlier_commits(self, engine):
        # Positions 0-1 are this process's share; 1 trips the budget.
        queries = ["kwalpha", "kwbeta kwgamma", "kwgamma", "kwbeta"]
        expected = self._serial_error(queries, self.TIGHT)
        with pytest.raises(SearchLimitError) as caught:
            engine.search_batch(queries, limits=self.TIGHT, jobs=2)
        assert str(caught.value) == expected
        assert self._cached(engine, queries, self.TIGHT) == [
            True, False, False, False,
        ]
        assert engine._searcher.pipe_batches == 1  # the reply was read
        # No stale reply waits in the pipe: the next batch is its own.
        following = ["kwgamma", "kwalpha", "kwbeta", "zznothing"]
        serial = rendered(
            KeywordSearchEngine(planted_database()).search_batch(
                following, limits=LIMITS
            )
        )
        assert rendered(
            engine.search_batch(following, limits=LIMITS, jobs=2)
        ) == serial
        assert engine._searcher.pipe_batches == 2

    def test_worker_error_raises_after_this_process_committed(self, engine):
        # Positions 2-3 are the worker's chunk; 3 trips the budget.
        queries = ["kwalpha", "kwgamma", "kwbeta", "kwbeta kwgamma"]
        expected = self._serial_error(queries, self.TIGHT)
        with pytest.raises(SearchLimitError) as caught:
            engine.search_batch(queries, limits=self.TIGHT, jobs=2)
        assert str(caught.value) == expected
        assert engine._searcher.last_assignment == [[0, 1], [2, 3]]
        assert engine._searcher.pipe_batches == 1
        assert self._cached(engine, queries, self.TIGHT) == [
            True, True, True, False,
        ]


class TestPipeTransport:
    def test_large_chunks_cross_the_pipe(self):
        """A chunk whose pickled answers exceed the OS pipe buffer
        (64 KiB) comes back through the pool equal to serial."""
        import pickle

        from repro.scale.parallel import ParallelSearcher, _portable_answer

        assert not hasattr(ParallelSearcher, "region_bytes")
        database = generate_tenants(CONFIG, tenants=4)
        plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 8, seed=1)
        plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 32, seed=2)
        loose = SearchLimits(max_rdb_length=5, max_tuples=6)
        # This process answers the first query; the large one is the
        # worker's chunk.
        queries = ["kwalpha", "kwalpha kwbeta"]
        engine = KeywordSearchEngine(database, result_cache_entries=0)
        try:
            serial = engine.search_batch(queries, limits=loose)
            parallel = engine.search_batch(queries, limits=loose, jobs=2)
            assert engine._searcher.pipe_batches == 1
            assert engine._searcher.last_assignment == [[0], [1]]
        finally:
            engine.close_pool()
        portable = [(_portable_answer(r.answer), r.score) for r in parallel[1]]
        assert len(pickle.dumps(portable)) > 64 * 1024
        assert rendered(parallel) == rendered(serial)


class TestPoolLifecycle:
    def test_apply_refreshes_the_snapshot_and_pool(self, engine):
        before = rendered(engine.search_batch(QUERIES, limits=LIMITS, jobs=2))
        first_searcher = engine._searcher
        engine.apply([
            Insert("DEPENDENT", {"ID": "pp1", "ESSN": "t1e1",
                                 "DEPENDENT_NAME": "kwbeta"})
        ])
        after_parallel = rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        )
        assert engine._searcher is not first_searcher
        after_serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
        assert after_parallel == after_serial
        assert after_parallel != before  # the insert is visible

    def test_close_pool_is_idempotent(self, engine):
        engine.search_batch(QUERIES[:1], limits=LIMITS, jobs=2)
        engine.close_pool()
        engine.close_pool()
        assert engine._searcher is None

    def test_rebuild_closes_the_pool(self, engine):
        engine.search_batch(QUERIES[:1], limits=LIMITS, jobs=2)
        engine.rebuild()
        assert engine._searcher is None


class TestObservability:
    """Worker traces merge in worker order, without touching answers;
    the coordinator's counters tell what the batch did."""

    def _observed_batch(self, jobs=2):
        from repro import obs

        engine = KeywordSearchEngine(planted_database())
        obs.reset()
        obs.set_enabled(True)
        try:
            batches = engine.search_batch(QUERIES, limits=LIMITS, jobs=jobs)
            trace = engine.last_trace
            counters = engine.metrics_snapshot()
        finally:
            obs.set_enabled(False)
            obs.reset()
            engine.close_pool()
        return rendered(batches), trace, counters

    def test_worker_traces_merge_into_batch_trace(self, engine):
        serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
        parallel, trace, counters = self._observed_batch()
        assert parallel == serial
        assert trace.root.name == "query.batch"
        assert trace.root.tags["jobs"] == 2
        workers = [
            span for span in trace.walk() if span.name == "worker.batch"
        ]
        assert len(workers) == 1
        # input-position order, whatever order the chunks completed in
        assert [w.tags["worker"] for w in workers] == [0]
        # Every distinct query ran exactly once, in this process's chunk
        # or in one worker's, each chunk in input order.
        distinct = list(dict.fromkeys(QUERIES))
        own = [
            span.tags["query"] for span in trace.root.children
            if span.name == "plan.compile"
        ]
        per_chunk = [own] + [
            [
                span.tags["query"] for span in w.children
                if span.name == "query"
            ]
            for w in workers
        ]
        assert [q for chunk in per_chunk for q in chunk] == distinct
        assert own == distinct[: len(distinct) // 2]

    def test_worker_metrics_merge_into_registry(self):
        __, __, counters = self._observed_batch()
        # every distinct query ran here or in a worker, and the
        # coordinator stored each answer list once
        assert counters["result_cache.stores"] == len(dict.fromkeys(QUERIES))
        pool = [
            name for name in counters
            if name.startswith("pool.") and counters[name]
        ]
        assert pool == ["pool.pipe_batches"]

    def test_pipe_transport_carries_the_same_observability(self):
        parallel, trace, counters = self._observed_batch()
        workers = [
            span for span in trace.walk() if span.name == "worker.batch"
        ]
        assert workers
        assert all("transport" not in w.tags for w in workers)
        assert counters["pool.pipe_batches"] == 1

    def test_merged_observability_is_deterministic(self):
        first = self._observed_batch()
        second = self._observed_batch()
        assert first[0] == second[0]
        assert first[1].shape() == second[1].shape()
        assert first[2] == second[2]

    def test_disabled_batch_ships_no_observability_records(self, engine):
        engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        searcher = engine._searcher
        assert searcher is not None
        assert searcher.last_obs == []
        assert engine.last_trace is None


class TestSelfHealing:
    """Dead workers respawn; a doubly-failed chunk degrades to
    in-process execution — the batch completes bit-identically."""

    def _fresh_engine(self):
        # No coordinator answer cache: every batch must reach the pool.
        return KeywordSearchEngine(
            planted_database(), result_cache_entries=0
        )

    def test_killed_worker_respawns_between_batches(self):
        import os
        import signal

        engine = self._fresh_engine()
        try:
            serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
            rendered(engine.search_batch(QUERIES, limits=LIMITS, jobs=2))
            searcher = engine._searcher
            victim, __ = searcher._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()

            healed = rendered(
                engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            )
            assert healed == serial
            assert searcher.respawns == 1
            assert searcher.inline_chunks == 0
            # the replacement keeps serving
            assert rendered(
                engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            ) == serial
            assert searcher.respawns == 1
        finally:
            engine.close_pool()

    def test_worker_killed_mid_chunk_retries_once(self, tmp_path):
        """A fault-armed worker SIGKILLs itself mid-chunk; the respawned
        worker (same snapshot generation) re-runs the chunk and the
        batch result is bit-identical to serial."""
        import os

        from repro.durable import fault

        sentinel = str(tmp_path / "pool.once")
        fault.configure(f"pool.chunk:kill:once={sentinel}")
        engine = self._fresh_engine()
        try:
            serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
            parallel = rendered(
                engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            )
            searcher = engine._searcher
            assert parallel == serial
            assert searcher.respawns == 1
            assert searcher.inline_chunks == 0
            assert os.path.exists(sentinel)  # the fault really fired
        finally:
            fault.reset()
            engine.close_pool()

    def test_failed_respawn_degrades_to_inline_execution(self):
        import os
        import signal

        engine = self._fresh_engine()
        try:
            serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
            rendered(engine.search_batch(QUERIES, limits=LIMITS, jobs=2))
            searcher = engine._searcher
            victim, __ = searcher._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()

            def no_spawn():
                raise OSError("no processes left")

            searcher._spawn_worker = no_spawn
            degraded = rendered(
                engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            )
            assert degraded == serial
            assert searcher.respawns == 1
            assert searcher.inline_chunks == 1
        finally:
            engine.close_pool()

    def test_respawn_metrics(self):
        import os
        import signal

        from repro.obs.metrics import diff_snapshots

        engine = self._fresh_engine()
        try:
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            searcher = engine._searcher
            victim, __ = searcher._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            before = engine.metrics_snapshot()
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            delta = diff_snapshots(before, engine.metrics_snapshot())
            assert delta["pool.respawns"] == 1
            assert "pool.inline_chunks" not in delta
        finally:
            engine.close_pool()


class TestInheritedHandles:
    """A worker only reads what it inherits: the WAL file, the snapshot
    mmap and their handles stay the coordinator's."""

    def test_workers_leave_the_wal_and_snapshot_untouched(self, tmp_path):
        import os
        from pathlib import Path

        from repro.durable import fault

        path = str(tmp_path / "live.snap")
        KeywordSearchEngine(planted_database()).save(path)
        engine = KeywordSearchEngine.open(
            path, wal=True, result_cache_entries=0
        )
        try:
            engine.apply([
                Insert("DEPENDENT", {"ID": "ih1", "ESSN": "t1e1",
                                     "DEPENDENT_NAME": "kwbeta"})
            ])
            wal_bytes = Path(engine.wal.path).read_bytes()
            snapshot_bytes = Path(path).read_bytes()
            serial = rendered(engine.search_batch(QUERIES, limits=LIMITS))
            sentinel = str(tmp_path / "pool.once")
            fault.configure(f"pool.chunk:kill:once={sentinel}")
            try:
                for __ in range(2):
                    assert rendered(
                        engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
                    ) == serial
            finally:
                fault.reset()
            assert os.path.exists(sentinel)  # a worker really was killed
            assert engine._searcher.respawns == 1
            assert engine._searcher.pipe_batches == 2
            engine.close_pool()
            assert Path(engine.wal.path).read_bytes() == wal_bytes
            assert Path(path).read_bytes() == snapshot_bytes
            version = engine.version
        finally:
            engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        try:
            assert reopened.version == version
            assert rendered(reopened.search_batch(QUERIES, limits=LIMITS)) == serial
        finally:
            reopened.close()


class TestForkedFromTheLiveEngine:
    """Pool workers serve the engine they inherit: a never-saved or
    mutated engine pools without writing a snapshot."""

    MUTATIONS = [
        [Insert("DEPENDENT", {"ID": "fk1", "ESSN": "t1e1",
                              "DEPENDENT_NAME": "kwbeta"})],
        [Insert("DEPENDENT", {"ID": "fk2", "ESSN": "t2e2",
                              "DEPENDENT_NAME": "kwalpha kwgamma"})],
    ]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_never_saved_engine_pools_without_writing(
        self, tmp_path, monkeypatch, jobs
    ):
        import os
        import tempfile

        def refuse(engine, path):
            raise AssertionError(f"a pooled batch saved to {path}")

        monkeypatch.setattr(KeywordSearchEngine, "save", refuse)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        pooled = KeywordSearchEngine(planted_database())
        serial = KeywordSearchEngine(planted_database())
        batches = [QUERIES, TestCallerShare.DISTINCT]
        try:
            for mutations in [None] + self.MUTATIONS:
                if mutations is not None:
                    pooled.apply(mutations)
                    serial.apply(mutations)
                for queries in batches:
                    assert rendered(
                        pooled.search_batch(queries, limits=LIMITS, jobs=jobs)
                    ) == rendered(serial.search_batch(queries, limits=LIMITS))
                    assert pooled.last_stats == serial.last_stats
                assert pooled._searcher.pipe_batches > 0
        finally:
            pooled.close_pool()
        assert os.listdir(tmp_path) == []
        assert pooled.snapshot_path is None

    def test_without_fork_jobs_answer_serially(self, monkeypatch):
        import multiprocessing

        from repro.scale.parallel import ParallelSearcher

        def no_process(searcher):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(ParallelSearcher, "_spawn_worker", no_process)
        engine = KeywordSearchEngine(planted_database())
        serial = KeywordSearchEngine(planted_database())
        before = {p.pid for p in multiprocessing.active_children()}
        assert rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        ) == rendered(serial.search_batch(QUERIES, limits=LIMITS))
        assert engine.last_stats == serial.last_stats
        assert engine._searcher is None
        assert {p.pid for p in multiprocessing.active_children()} == before
