"""Unit tests for the engine's counter snapshot
(``KeywordSearchEngine.metrics_snapshot``) and the flat-snapshot
helpers in ``repro.obs.metrics``."""

import pickle

from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import build_company_database
from repro.live.changes import Insert
from repro.obs import trace as obs_trace
from repro.obs.metrics import diff_snapshots, render_report


class TestEngineCounters:
    def test_snapshot_is_plain_sorted_and_picklable(self, engine):
        engine.search("Smith XML")
        snapshot = engine.metrics_snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert all(type(value) is int for value in snapshot.values())
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_each_entry_equals_the_attribute_it_reads(self, engine):
        engine.search("Smith XML")
        engine.search("Smith XML")
        snapshot = engine.metrics_snapshot()
        stats, cache = engine.result_cache.stats, engine.traversal_cache
        for name in ("hits", "misses", "stores", "evicted", "invalidated"):
            assert snapshot[f"result_cache.{name}"] == getattr(stats, name)
        for name in ("hits", "misses", "dense_builds", "paths_enumerated",
                     "trees_enumerated"):
            assert snapshot[f"traversal_cache.{name}"] == getattr(cache, name)
        assert snapshot["csr.compactions"] == cache._frozen.compactions
        assert snapshot["ranking.shapes"] == engine.shapes.shapes > 0
        assert snapshot["ranking.scored"] == engine.shapes.scored > 0
        assert not any(name.startswith("pool.") for name in snapshot)

    def test_counters_are_always_on_and_per_engine(self):
        assert not obs_trace.ENABLED
        first = KeywordSearchEngine(build_company_database())
        second = KeywordSearchEngine(build_company_database())
        before = first.metrics_snapshot()
        assert before["result_cache.misses"] == 0  # there without a switch
        second.search("Smith XML")
        assert first.metrics_snapshot() == before
        first.search("Smith XML")
        moved = diff_snapshots(before, first.metrics_snapshot())
        assert moved["result_cache.misses"] == 1
        assert moved["traversal_cache.misses"] > 0
        assert moved["traversal_cache.paths_enumerated"] > 0

    def test_counters_survive_a_rebuild(self, tmp_path):
        engine = KeywordSearchEngine(build_company_database())
        answers = engine.search("Smith XML")
        engine.apply([Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                           "DEPENDENT_NAME": "Smith"})])
        engine.save(tmp_path / "company.snap")  # folds: one compaction
        before = engine.metrics_snapshot()
        assert before["csr.compactions"] == 1
        cache = engine.traversal_cache
        engine.rebuild()
        assert engine.traversal_cache is not cache
        engine.search("Smith XML")
        delta = diff_snapshots(before, engine.metrics_snapshot())
        assert delta["traversal_cache.misses"] > 0
        assert all(value > 0 for value in delta.values())
        # Answers from before the rebuild keep the cache they were built on.
        assert answers[0].answer.cache is cache
        assert [result.render() for result in answers]


class TestDiffSnapshots:
    def test_delta_replays_workload_contribution(self):
        before = {"a.x": 2, "a.y": 5}
        after = {"a.x": 7, "a.y": 5, "b.z": 1}
        delta = diff_snapshots(before, after)
        assert delta == {"a.x": 5, "b.z": 1}
        replayed = {
            name: before.get(name, 0) + delta.get(name, 0) for name in after
        }
        assert replayed == after

    def test_unchanged_names_are_dropped(self):
        snapshot = {"a.x": 3, "b.y": 0}
        assert diff_snapshots(snapshot, snapshot) == {}


class TestRenderReport:
    def test_report_lists_sections(self):
        text = render_report({"b.y": 0, "executor.runs": 2, "a.x": 10}, "t")
        lines = text.splitlines()
        assert lines[0] == "== t =="
        assert [line.split() for line in lines[1:]] == [
            ["a.x", "10"], ["executor.runs", "2"],
        ]

    def test_empty_snapshot_says_so(self):
        assert "(empty)" in render_report({"a.x": 0})
