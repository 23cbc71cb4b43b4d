"""Release lifecycle for engines and the snapshots behind them.

``Snapshot``'s mmap once had no paired close anywhere.  These tests pin
the fix: ``Snapshot.close()`` releases every exported view before
unmapping, closed snapshots refuse further section access, and
``KeywordSearchEngine.close()`` tears down the worker pool, the
snapshot and what the engine built, cold-built or restored.  Both
objects double as context managers.
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import build_company_database
from repro.errors import SnapshotError
from repro.scale.snapshot import Snapshot


@pytest.fixture()
def snapshot_path(tmp_path):
    engine = KeywordSearchEngine(build_company_database())
    path = tmp_path / "engine.snap"
    engine.save(path)
    return path


def test_closed_snapshot_refuses_section_access(snapshot_path):
    snapshot = Snapshot(snapshot_path)
    assert snapshot.section("meta") is not None
    snapshot.close()
    assert snapshot.closed
    with pytest.raises(SnapshotError):
        snapshot.section("meta")


def test_snapshot_close_is_idempotent(snapshot_path):
    snapshot = Snapshot(snapshot_path)
    snapshot.close()
    snapshot.close()
    assert snapshot.closed


def test_snapshot_close_releases_exported_views(snapshot_path):
    # Without tracking exported views, mmap.close() raises BufferError
    # while any memoryview handed to a caller is still alive.
    snapshot = Snapshot(snapshot_path)
    view = snapshot.section("meta")
    snapshot.close()
    with pytest.raises(ValueError):
        view[0]


def test_transient_reads_do_not_accumulate_exported_views(snapshot_path):
    # json() and verify() take throwaway views; only views handed to
    # callers via section()/int_array() may stay retained until close().
    snapshot = Snapshot(snapshot_path)
    resting = len(snapshot._exported)
    for __ in range(10):
        snapshot.verify()
        snapshot.json("meta")
    assert len(snapshot._exported) == resting
    snapshot.close()


def test_snapshot_context_manager(snapshot_path):
    with Snapshot(snapshot_path) as snapshot:
        assert not snapshot.closed
    assert snapshot.closed


def test_closed_engine_refuses_uncached_queries(snapshot_path):
    engine = KeywordSearchEngine.open(snapshot_path)
    engine.close()
    assert engine._snapshot.closed
    with pytest.raises(SnapshotError):
        engine.search("Smith XML")


def test_engine_close_after_queries(snapshot_path):
    engine = KeywordSearchEngine.open(snapshot_path)
    answers = engine.search("Smith XML")
    assert answers
    engine.close()
    engine.close()  # idempotent
    assert engine._snapshot.closed


def test_engine_context_manager(snapshot_path):
    with KeywordSearchEngine.open(snapshot_path) as engine:
        assert engine.search("Smith XML")
    assert engine._snapshot.closed


def test_closed_plain_engine_lets_go_of_what_it_built():
    import gc
    import weakref

    database = build_company_database()
    engine = KeywordSearchEngine(database)
    assert engine.search("Smith XML")
    index, data_graph = engine.index, engine.data_graph
    cache, frozen = engine.traversal_cache, engine.traversal_cache._frozen
    assert frozen is not None  # the compiled graph served the query
    assert len(engine.result_cache) == 1
    held = [weakref.ref(part) for part in (index, data_graph, cache, frozen)]
    del index, data_graph, cache, frozen
    engine.close()
    gc.collect()
    assert [ref() for ref in held] == [None] * 4
    assert len(engine.result_cache) == 0
    with pytest.raises(SnapshotError):
        engine.search("Smith XML")
    with pytest.raises(SnapshotError):
        engine.search_batch(["Smith XML", "Brown CS"], jobs=2)
    assert engine._searcher is None  # no pool started for a closed engine
    with pytest.raises(SnapshotError):
        engine.apply([])
    engine.close()  # idempotent
    # The caller's database is untouched and serves a new engine.
    assert KeywordSearchEngine(database).search("Smith XML")


def test_closed_engine_lets_go_of_what_it_restored(snapshot_path):
    import gc
    import weakref

    engine = KeywordSearchEngine.open(snapshot_path)
    assert engine.search("Smith XML")
    postings = engine.index._postings
    stores = engine.database._tuples
    frozen = engine.traversal_cache._frozen
    assert dict.__len__(postings) > 0  # a decoded posting list
    assert dict.__len__(stores) > 0  # a loaded row store
    assert len(engine.result_cache) == 1
    held = [weakref.ref(part) for part in (postings, stores, frozen)]
    del postings, stores, frozen
    engine.close()
    gc.collect()
    assert [ref() for ref in held] == [None, None, None]
    assert len(engine.result_cache) == 0
    assert engine._snapshot.closed
    with pytest.raises(SnapshotError):
        engine.search("Smith XML")
    with pytest.raises(SnapshotError):
        engine.search_batch(["Smith XML", "Brown CS"], jobs=2)
    assert engine._searcher is None  # no pool started for a closed engine
    engine.close()  # still idempotent
