"""WAL format, attach/replay policy and torn-tail handling.

The contract under test: every ``engine.apply`` batch is durably logged
before in-memory state changes, reopening snapshot + WAL restores an
engine bit-identical to the one that executed the batches live, and the
only damage a crashed append can cause — a torn tail record — is
tolerated while every other mismatch refuses loudly.
"""

import os

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    plant,
)
from repro.durable import fault
from repro.durable import wal as wal_module
from repro.durable.wal import MAGIC, WriteAheadLog, default_wal_path
from repro.errors import FaultInjected, MutationFormatError, SnapshotError, WalError
from repro.live import maintain as maintain_module
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.oracle import search as oracle_search
from repro.relational.database import Database, TupleId
from repro.relational.schema import AttributeDef, DatabaseSchema, ForeignKey, Relation

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=3,
    works_on_per_employee=2,
    dependents_per_employee=0.5,
    seed=17,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ("kwalpha kwbeta", "kwalpha", "kwbeta")


def planted_database():
    database = generate_company_like(CONFIG)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 2, seed=2)
    return database


def batches_for(database):
    """Three deterministic batches: insert, update, delete + insert."""
    employee = database.tuples("EMPLOYEE")[0]
    department = database.tuples("DEPARTMENT")[0]
    essn = employee.tid.key[0]
    return [
        [Insert("DEPENDENT",
                {"ID": "walx1", "ESSN": essn, "DEPENDENT_NAME": "kwbeta"})],
        [Update(department.tid, {"D_DESCRIPTION": "kwalpha kwbeta lab"})],
        [
            Delete(TupleId("DEPENDENT", ("walx1",))),
            Insert("DEPENDENT",
                   {"ID": "walx2", "ESSN": essn, "DEPENDENT_NAME": "kwalpha"}),
        ],
    ]


def state_of(engine):
    """Replay-sensitive state: per-relation store order, rows, labels.

    Relations are compared each in its own store order (which index
    posting order observes) but enumerated sorted by name —
    ``all_tuples()`` interleaving on a lazily-loaded snapshot database
    depends on which relations were materialised first, which is
    access-order, not state.
    """
    database = engine.database
    rows = {
        name: [
            (key, dict(database.tuple(TupleId(name, key)).values),
             database.tuple(TupleId(name, key)).label)
            for key in database.relation_key_order(name)
        ]
        for name in sorted(r.name for r in database.schema.relations)
    }
    return engine.version, rows


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


def saved_engine(tmp_path, name="engine.snap"):
    path = str(tmp_path / name)
    engine = KeywordSearchEngine(planted_database())
    engine.save(path)
    engine.attach_wal()
    return engine, path


class TestWalFile:
    def test_fresh_log_requires_generation(self, tmp_path):
        with pytest.raises(WalError, match="generation"):
            WriteAheadLog(str(tmp_path / "x.wal"))

    def test_header_round_trip(self, tmp_path):
        path = str(tmp_path / "x.wal")
        WriteAheadLog(path, generation="cafe0123", base_version=7).close()
        wal = WriteAheadLog(path)
        assert wal.generation == "cafe0123"
        assert wal.base_version == 7
        assert wal.records() == []
        wal.close()

    def test_not_a_wal_file(self, tmp_path):
        path = tmp_path / "x.wal"
        path.write_bytes(b"definitely not a log")
        with pytest.raises(WalError, match="not a WAL"):
            WriteAheadLog(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.wal"
        WriteAheadLog(str(path), generation="g").close()
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(WalError, match="truncated WAL header"):
            WriteAheadLog(str(path))

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "x.wal"
        WriteAheadLog(str(path), generation="g").close()
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC) + 4] = ord("}")  # the header's opening brace
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError, match="corrupt WAL header"):
            WriteAheadLog(str(path))

    def test_append_and_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with WriteAheadLog(path, generation="g") as wal:
            first = wal.append({"version": 1, "payload": "a"})
            second = wal.append({"version": 2, "payload": "b"})
            assert second > first
        wal = WriteAheadLog(path)
        assert [record for __, record in wal.scan()] == [
            {"version": 1, "payload": "a"},
            {"version": 2, "payload": "b"},
        ]
        assert not wal.torn_tail
        wal.close()

    def test_reset_starts_over(self, tmp_path):
        path = str(tmp_path / "x.wal")
        wal = WriteAheadLog(path, generation="old", base_version=0)
        wal.append({"version": 1})
        wal.reset(generation="new", base_version=5)
        assert wal.records() == []
        assert (wal.generation, wal.base_version) == ("new", 5)
        wal.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with WriteAheadLog(path, generation="g") as wal:
            first_offset = wal.append({"version": 1, "pad": "x" * 64})
            wal.append({"version": 2})
        with open(path, "r+b") as handle:
            handle.seek(first_offset + 12)  # inside record 1's payload
            handle.write(b"\xff")
        wal = WriteAheadLog(path)
        with pytest.raises(WalError, match="mid-file"):
            wal.scan()
        wal.close()


class TestTornTail:
    def _torn_log(self, tmp_path, cut):
        path = str(tmp_path / "x.wal")
        with WriteAheadLog(path, generation="g") as wal:
            wal.append({"version": 1, "payload": "aaaa"})
            tail = wal.append({"version": 2, "payload": "bbbb"})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(tail + cut)
        return path, tail, size

    @pytest.mark.parametrize("cut", [0, 1, 4, 7, 8, 9])
    def test_truncated_tail_is_tolerated(self, tmp_path, cut):
        path, tail, __ = self._torn_log(tmp_path, cut)
        wal = WriteAheadLog(path)
        records = wal.scan()
        assert [record["version"] for __, record in records] == [1]
        assert wal.torn_tail == (cut > 0)
        wal.close()

    def test_next_append_truncates_the_tail(self, tmp_path):
        path, tail, __ = self._torn_log(tmp_path, cut=5)
        wal = WriteAheadLog(path)
        wal.scan()
        wal.append({"version": 2, "payload": "retry"})
        wal.close()
        reread = WriteAheadLog(path)
        assert [r["version"] for r in reread.records()] == [1, 2]
        assert not reread.torn_tail
        reread.close()

    def test_garbage_tail_bytes_are_tolerated(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with WriteAheadLog(path, generation="g") as wal:
            wal.append({"version": 1})
        with open(path, "ab") as handle:
            handle.write(b"\x03\x00\x00\x00")  # torn length prefix
        wal = WriteAheadLog(path)
        assert [r["version"] for r in wal.records()] == [1]
        assert wal.torn_tail
        wal.close()


class TestAttachAndReplay:
    def test_reopen_is_bit_identical_to_live_engine(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        for batch in batches_for(engine.database):
            engine.apply(batch)
        live_state = state_of(engine)
        live_answers = {q: rendered(engine.search(q, limits=LIMITS))
                        for q in QUERIES}
        engine.close()

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == live_state
        for query in QUERIES:
            assert rendered(
                reopened.search(query, limits=LIMITS)
            ) == live_answers[query]
        reopened.close()

    def test_empty_batches_keep_versions_in_lockstep(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        engine.apply([])
        engine.apply(batches_for(engine.database)[0])
        engine.apply([])
        assert engine.version == 3
        engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == 3
        reopened.close()

    def test_replay_count_and_wal_grows_across_generations(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])
        engine.close()
        second = KeywordSearchEngine.open(path)
        assert second.attach_wal() == 1
        second.apply(batches_for(second.database)[1])
        second.close()
        third = KeywordSearchEngine.open(path, wal=True)
        assert third.version == 2
        third.close()

    def test_attach_requires_snapshot_backed_engine(self):
        engine = KeywordSearchEngine(planted_database())
        with pytest.raises(WalError, match="snapshot-backed"):
            engine.attach_wal()

    def test_attach_refuses_after_engine_moved_on(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        engine.detach_wal()
        engine.apply(batches_for(engine.database)[0])
        with pytest.raises(WalError, match="moved past"):
            engine.attach_wal()
        engine.close()

    def test_double_attach_refused(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        with pytest.raises(WalError, match="already attached"):
            engine.attach_wal()
        engine.close()

    def test_rebuild_with_wal_refused_until_detached(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        with pytest.raises(WalError, match="rebuild"):
            engine.rebuild()
        engine.detach_wal()
        engine.rebuild()
        engine.close()

    def test_torn_tail_record_is_dropped_on_reopen(self, tmp_path):
        engine, path = saved_engine(tmp_path)
        batches = batches_for(engine.database)
        engine.apply(batches[0])
        engine.apply(batches[1])
        engine.close()
        wal_path = default_wal_path(path)
        with open(wal_path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 3)
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == 1  # the torn second record is lost
        assert reopened.wal.torn_tail
        reopened.close()


def churn_batches(database):
    """Batch programs whose churn spans batches — what one replay of the
    concatenated log nets and a per-batch apply never did — by name."""
    employee = database.tuples("EMPLOYEE")[0]
    department = database.tuples("DEPARTMENT")[0]
    victim = database.tuples("DEPENDENT")[0]
    essn = employee.tid.key[0]
    new = TupleId("DEPENDENT", ("walx1",))
    return {
        "insert_then_delete": [
            [Insert("DEPENDENT",
                    {"ID": "walx1", "ESSN": essn, "DEPENDENT_NAME": "kwbeta"})],
            [Update(department.tid, {"D_DESCRIPTION": "kwalpha kwbeta lab"})],
            [Delete(new)],
        ],
        "delete_then_reinsert": [
            [Delete(victim.tid)],
            [Insert("DEPENDENT",
                    {**victim.values, "DEPENDENT_NAME": "kwalpha"})],
        ],
        "update_then_delete": [
            [Update(victim.tid, {"DEPENDENT_NAME": "kwbeta kwalpha"})],
            [Update(employee.tid, {"L_NAME": "kwalpha"})],
            [Delete(victim.tid)],
        ],
    }


class TestCrossBatchChurn:
    @pytest.mark.parametrize(
        "program", ["insert_then_delete", "delete_then_reinsert",
                    "update_then_delete"]
    )
    def test_reopen_equals_live_and_a_fresh_build(self, tmp_path, program):
        engine, path = saved_engine(tmp_path)
        oracle_db = planted_database()
        batches = churn_batches(engine.database)[program]
        for batch in batches:
            engine.apply(batch)
            apply_to_database(oracle_db, batch)
        live_state = state_of(engine)
        live_answers = {q: rendered(engine.search(q, limits=LIMITS))
                        for q in QUERIES}
        engine.close()

        fresh = KeywordSearchEngine(oracle_db)
        reopened = KeywordSearchEngine.open(path, wal=True)
        try:
            assert reopened.version == len(batches)
            assert state_of(reopened) == live_state
            assert state_of(fresh)[1] == live_state[1]
            for query in QUERIES:
                answers = rendered(reopened.search(query, limits=LIMITS))
                assert answers == live_answers[query]
                assert answers == rendered(fresh.search(query, limits=LIMITS))
        finally:
            reopened.close()


def one_batch_of_each_kind(database):
    """An insert, an update and a delete batch, by kind.  The delete takes
    the first dependent in store order, so its rollback must move the
    tuple back in front of the others."""
    employee = database.tuples("EMPLOYEE")[0]
    department = database.tuples("DEPARTMENT")[0]
    victim = database.tuples("DEPENDENT")[0]
    return {
        "insert": [Insert("DEPENDENT",
                          {"ID": "nora", "ESSN": employee.tid.key[0],
                           "DEPENDENT_NAME": "kwalpha Nora"})],
        "update": [Update(department.tid,
                          {"D_DESCRIPTION": "kwbeta Nora lab"})],
        "delete": [Delete(victim.tid)],
    }


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


def wal_bytes(engine):
    with open(engine.wal.path, "rb") as handle:
        return handle.read()


class TestFailedAppendRollsBack:
    """The WAL append is the batch's commit: when it raises, the database,
    the store order, the version and the log are as they were before the
    batch, and a retry lands it as if the failure never happened."""

    @pytest.mark.parametrize("kind", ["insert", "update", "delete"])
    @pytest.mark.parametrize("failing", ["append", "datasync"])
    def test_failed_append_leaves_nothing_behind(self, tmp_path, monkeypatch,
                                                 kind, failing):
        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])  # a record to keep
        batch = one_batch_of_each_kind(engine.database)[kind]
        count = engine.database.count()
        before = state_of(engine)
        logged = wal_bytes(engine)
        queries = (*QUERIES, "Nora")
        answers = {q: rendered(engine.search(q, limits=LIMITS))
                   for q in queries}
        with monkeypatch.context() as patch:
            if failing == "append":
                patch.setattr(engine.wal, "append", disk_full)
            else:  # the record reached the file, the sync failed
                patch.setattr(wal_module, "_datasync", disk_full)
            with pytest.raises(OSError):
                engine.apply(batch)
        assert engine.database.count() == count
        assert state_of(engine) == before  # version and store order too
        assert wal_bytes(engine) == logged
        for query in queries:
            assert rendered(engine.search(query, limits=LIMITS)) \
                == answers[query]

        engine.apply(batch)
        oracle_db = planted_database()
        apply_to_database(oracle_db, batches_for(oracle_db)[0])
        apply_to_database(oracle_db, batch)
        fresh = KeywordSearchEngine(oracle_db)
        live_state = state_of(engine)
        assert live_state[0] == before[0] + 1
        assert state_of(fresh)[1] == live_state[1]
        live = {q: rendered(engine.search(q, limits=LIMITS)) for q in queries}
        for query in queries:
            assert live[query] == rendered(fresh.search(query, limits=LIMITS))
        engine.close()

        reopened = KeywordSearchEngine.open(path, wal=True)
        try:
            assert state_of(reopened) == live_state
            for query in queries:
                assert rendered(reopened.search(query, limits=LIMITS)) \
                    == live[query]
        finally:
            reopened.close()

    def test_company_insert_lands_on_retry(self, tmp_path, monkeypatch):
        path = str(tmp_path / "company.snap")
        KeywordSearchEngine(build_company_database()).save(path)
        engine = KeywordSearchEngine.open(path, wal=True)
        batch = [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                      "DEPENDENT_NAME": "Nora"})]
        logged = wal_bytes(engine)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(engine.wal, "append", disk_full)
                with pytest.raises(OSError):
                    engine.apply(batch)
            assert engine.database.count() == 16
            assert engine.version == 0
            assert wal_bytes(engine) == logged
            assert engine.search("Nora") == []
            engine.apply(batch)
            assert engine.version == 1
            assert [r.render() for r in engine.search("Nora")]
        finally:
            engine.close()


class TestRefusedRecords:
    def test_hostile_record_refuses_replay(self, tmp_path):
        """A CRC-valid record whose batch breaks a foreign key replays
        through the validated write path: attach and open raise
        ``WalError`` and the database and version stay as they were."""
        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])
        engine.wal.append({"version": 2, "mutations": [{
            "op": "insert", "relation": "DEPENDENT",
            "values": {"ID": "walx9", "ESSN": "no-such-employee",
                       "DEPENDENT_NAME": "kwbeta"},
        }]})
        engine.close()

        with pytest.raises(WalError, match="do not apply"):
            KeywordSearchEngine.open(path, wal=True)
        restored = KeywordSearchEngine.open(path)
        before = state_of(restored)
        answers = rendered(restored.search(QUERIES[0], limits=LIMITS))
        with pytest.raises(WalError, match="ForeignKeyError"):
            restored.attach_wal()
        assert restored.wal is None
        assert state_of(restored) == before
        assert before[0] == 0
        assert rendered(restored.search(QUERIES[0], limits=LIMITS)) == answers
        restored.close()

    def test_unencodable_batch_leaves_everything_untouched(self, tmp_path):
        """The record is encoded before the database changes: a batch it
        cannot carry raises a typed error with nothing applied."""
        engine, path = saved_engine(tmp_path)
        before = state_of(engine)
        employee = engine.database.tuples("EMPLOYEE")[0]
        with pytest.raises(MutationFormatError, match="cannot be logged"):
            engine.apply([Insert(
                "DEPENDENT",
                {"ID": "nora", "ESSN": employee.tid.key[0],
                 "DEPENDENT_NAME": "nora"},
                label=b"nora",
            )])
        assert state_of(engine) == before
        assert engine.search("nora") == []
        assert engine.wal.records() == []
        engine.apply(batches_for(engine.database)[0])
        state = state_of(engine)
        engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == state
        reopened.close()

    def test_previous_wal_format_refused(self, tmp_path):
        path = str(tmp_path / "x.wal")
        header = b'{"base_version":0,"format":1,"generation":"g"}'
        with open(path, "wb") as handle:
            handle.write(MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(WalError, match="unsupported WAL format"):
            WriteAheadLog(path)


def org_database():
    """PERSON with a self-referencing BOSS key and a text NAME."""
    schema = DatabaseSchema(name="org")
    schema.add_relation(Relation(
        "PERSON",
        [AttributeDef("ID"), AttributeDef("NAME", "text"), AttributeDef("BOSS")],
        primary_key=["ID"],
    ))
    schema.add_foreign_key(
        ForeignKey("fk_boss", "PERSON", ("BOSS",), "PERSON", ("ID",))
    )
    database = Database(schema)
    for number, name in enumerate(("kwalpha", "kwbeta", "plain", "kwbeta")):
        database.insert("PERSON", {
            "ID": f"p{number:02d}", "NAME": name,
            "BOSS": f"p{number // 2:02d}" if number else None,
        })
    return database


def compiled_arrays(engine):
    """The engine's CSR arrays, folded: node order, rows and edge data."""
    frozen = engine.traversal_cache.frozen()
    frozen._compile()
    return (
        [frozen.tid_of(node) for node in range(frozen.capacity)],
        list(frozen._offsets), list(frozen._targets),
        list(frozen._edge_keys), bytes(frozen._edge_refs),
    )


class TestSelfLoop:
    SELF_LOOP = Insert("PERSON", {"ID": "p77", "NAME": "kwalpha kwbeta",
                                  "BOSS": "p77"})
    ORG_QUERIES = ("kwalpha kwbeta", "kwalpha", "kwbeta")

    def test_insert_referencing_its_own_key(self, tmp_path):
        path = str(tmp_path / "org.snap")
        engine = KeywordSearchEngine(org_database())
        engine.save(path)
        engine.attach_wal()
        engine.apply([self.SELF_LOOP])
        oracle_db = org_database()
        oracle_db.insert("PERSON", self.SELF_LOOP.values)
        engines = [
            engine,
            KeywordSearchEngine.open(path, wal=True),
            KeywordSearchEngine(oracle_db),
        ]
        try:
            answers = [
                {q: rendered(each.search(q, limits=LIMITS))
                 for q in self.ORG_QUERIES}
                for each in engines
            ]
            assert answers[0]["kwalpha kwbeta"]
            assert answers[0] == answers[1] == answers[2]
            arrays = [compiled_arrays(each) for each in engines]
            assert arrays[0] == arrays[1] == arrays[2]
        finally:
            engines[0].close()
            engines[1].close()

    def test_delete_of_a_self_loop_is_not_held_by_it(self):
        database = org_database()
        database.insert("PERSON", self.SELF_LOOP.values)
        changeset = apply_to_database(
            database, [Delete(TupleId("PERSON", ("p77",)))]
        )
        assert changeset.tuples_removed == (TupleId("PERSON", ("p77",)),)
        assert database.get("PERSON", "p77") is None


class TestGenerationHandshake:
    def test_foreign_wal_refused(self, tmp_path):
        engine, path = saved_engine(tmp_path, "a.snap")
        engine.apply(batches_for(engine.database)[0])
        engine.close()

        other = KeywordSearchEngine(generate_company_like(
            SyntheticConfig(departments=1, projects_per_department=1,
                            employees_per_department=2, seed=99)
        ))
        other_path = str(tmp_path / "b.snap")
        other.save(other_path)
        # Pair b.snap with a.snap's log, which holds newer records.
        with pytest.raises(WalError, match="different snapshot"):
            other.attach_wal(default_wal_path(path))

    def test_stale_wal_after_interrupted_compaction_resets(self, tmp_path):
        from repro.scale.snapshot import write_snapshot

        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])
        state = state_of(engine)
        # Simulate a compaction that crashed after publishing the new
        # snapshot but before resetting the log: fold by hand, leave
        # the old-generation WAL (whose records are all folded) behind.
        write_snapshot(engine, path)
        engine.detach_wal()
        engine.close()

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == state
        assert reopened.wal.base_version == reopened.version
        assert reopened.wal.records() == []
        reopened.close()

    def test_wal_survives_unrelated_autosaves(self, tmp_path):
        """A pooled batch on a mutated engine must not re-pair the WAL."""
        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])
        engine.search_batch(list(QUERIES), limits=LIMITS, jobs=2)
        engine.apply(batches_for(engine.database)[1])
        assert engine._wal_snapshot_path == path
        version = engine.version
        engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == version
        reopened.close()


class TestWalMetrics:
    def test_append_and_replay_counters(self, tmp_path):
        """Appends are the log's records; replays are what
        ``attach_wal`` returns."""
        engine, path = saved_engine(tmp_path)
        engine.apply(batches_for(engine.database)[0])
        engine.apply([])
        assert [record["version"] for __, record in engine.wal.scan()] == [1, 2]
        engine.close()
        reopened = KeywordSearchEngine.open(path)
        try:
            assert reopened.attach_wal() == 2
            assert reopened.version == 2
        finally:
            reopened.close()


#: Every fault point an ``apply`` with a WAL passes, and the state a
#: fault there leaves: the commit's point rolls the batch back; the
#: others fire once the batch is durable, and the engine rebuilds.
APPLY_POINTS = {"apply.commit": "pre", "wal.append": "post", "live.maintain": "post"}


def fault_batches(database):
    """A batch that lands before the fault, and the faulted batch by
    kind; ``churn`` deletes and re-inserts what the first one inserted."""
    essn = database.tuples("EMPLOYEE")[0].tid.key[0]
    churn = TupleId("DEPENDENT", ("churn",))
    first = [Insert("DEPENDENT",
                    {"ID": "churn", "ESSN": essn, "DEPENDENT_NAME": "kwbeta"})]
    kinds = one_batch_of_each_kind(database)
    kinds["churn"] = [
        Delete(churn),
        Insert("DEPENDENT",
               {"ID": "churn", "ESSN": essn, "DEPENDENT_NAME": "kwalpha Nora"}),
        Update(database.tuples("DEPARTMENT")[0].tid, {"D_DESCRIPTION": "kwbeta"}),
    ]
    return first, kinds


def fail_graph_patch(*args, **kwargs):
    raise FaultInjected("graph patch failed", point="graph step")


class TestFaultsLeaveOneOfTwoStates:
    """A fault anywhere on ``apply``'s write path leaves the engine in
    exactly one of two states: the pre-batch engine at the same
    ``version``, or the post-batch engine at ``version + 1`` — and in
    either the answers equal ``repro.oracle.search`` over that database
    and a WAL reopen of the engine."""

    def test_the_table_names_every_point_apply_passes(self, tmp_path, monkeypatch):
        engine, __ = saved_engine(tmp_path)
        first, kinds = fault_batches(engine.database)
        passed = set()
        monkeypatch.setattr(fault, "maybe", passed.add)
        for batch in (first, *kinds.values()):
            engine.apply(batch)
        assert passed == set(APPLY_POINTS)
        engine.close()

    @pytest.mark.parametrize("kind", ["insert", "update", "delete", "churn"])
    @pytest.mark.parametrize("point", [*APPLY_POINTS, "graph step"])
    def test_pre_or_post_batch(self, tmp_path, monkeypatch, point, kind):
        engine, path = saved_engine(tmp_path)
        first, kinds = fault_batches(engine.database)
        engine.apply(first)
        version = engine.version
        with monkeypatch.context() as patch:
            if point == "graph step":  # what _maintain calls to patch the graph
                patch.setattr(maintain_module, "apply_to_traversal_cache",
                              fail_graph_patch)
            else:
                fault.configure(f"{point}:raise")
            try:
                with pytest.raises(FaultInjected):
                    engine.apply(kinds[kind])
            finally:
                fault.reset()
        landed = APPLY_POINTS.get(point, "post") == "post"
        assert engine.version == version + landed
        assert engine.metrics_snapshot()["engine.maintain_rebuilds"] == landed

        expected = planted_database()
        apply_to_database(expected, first)
        if landed:
            apply_to_database(expected, kinds[kind])
        queries = (*QUERIES, "Nora")
        answers = {q: rendered(engine.search(q, limits=LIMITS)) for q in queries}
        for query in queries:
            assert answers[query] == rendered(
                oracle_search(expected, query, limits=LIMITS)
            )
        state = state_of(engine)
        assert state[1] == state_of(KeywordSearchEngine(expected))[1]
        engine.close()

        reopened = KeywordSearchEngine.open(path, wal=True)
        try:
            assert state_of(reopened) == state
            for query in queries:
                assert rendered(reopened.search(query, limits=LIMITS)) \
                    == answers[query]
        finally:
            reopened.close()

    def test_a_failed_rebuild_closes_the_engine(self, tmp_path, monkeypatch):
        engine, path = saved_engine(tmp_path)
        batch = one_batch_of_each_kind(engine.database)["insert"]
        monkeypatch.setattr(engine.index, "build", disk_full)
        fault.configure("live.maintain:raise")
        try:
            with pytest.raises(OSError):
                engine.apply(batch)
        finally:
            fault.reset()
        with pytest.raises(SnapshotError):
            engine.search("Nora", limits=LIMITS)
        with pytest.raises(SnapshotError):
            engine.apply(batch)
        assert engine.wal is None

        expected = planted_database()
        apply_to_database(expected, batch)
        reopened = KeywordSearchEngine.open(path, wal=True)
        try:
            assert reopened.version == 1
            assert rendered(reopened.search("Nora", limits=LIMITS)) == rendered(
                oracle_search(expected, "Nora", limits=LIMITS)
            )
        finally:
            reopened.close()
