"""Compaction: fold the WAL into a fresh snapshot and swap it in.

Covers the offline path (``compact_snapshot``, the CLI's ``wal
compact``), fold-to-copy with ``--out``, and the acceptance scenario:
a live engine with a worker pool keeps answering a mixed read/write
workload across a compaction cycle with zero failed queries and answers
always equal to a from-scratch serial oracle.
"""

import os
from pathlib import Path

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    plant,
)
from repro.durable import compact_snapshot, default_wal_path
from repro.durable.wal import WriteAheadLog
from repro.errors import WalError
from repro.live.changes import Insert, Update, apply_to_database
from repro.scale import snapshot as snapshot_module
from repro.scale.snapshot import SNAPSHOT_FORMAT, Snapshot

DELTA_FORMAT = 9  # of a file that ends in a delta of mutation records

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    dependents_per_employee=0.5,
    seed=29,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ["kwalpha kwbeta", "kwalpha", "kwbeta", "nothinghere"]


def planted_database():
    database = generate_company_like(CONFIG)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    return database


def mixed_batch(database, counter):
    """Alternate keyword-bearing inserts and description updates."""
    if counter % 2 == 0:
        employees = database.tuples("EMPLOYEE")
        essn = employees[counter % len(employees)].tid.key[0]
        return [Insert(
            "DEPENDENT",
            {"ID": f"mix{counter}", "ESSN": essn,
             "DEPENDENT_NAME": ("kwbeta", "kwalpha")[counter % 4 == 0]},
        )]
    departments = database.tuples("DEPARTMENT")
    department = departments[counter % len(departments)]
    text = ("kwalpha shift", "plain words", "kwalpha kwbeta mix")[counter % 3]
    return [Update(department.tid, {"D_DESCRIPTION": text})]


def rendered(batches):
    return [[(r.render(), r.score, r.rank) for r in results]
            for results in batches]


def toc_of(path):
    """``(format, sections, meta, delta record count)`` of one file."""
    with Snapshot(path) as snapshot:
        return (
            snapshot.meta["format"],
            {name: list(entry) for name, entry in snapshot._toc.items()},
            dict(snapshot.meta),
            len(snapshot.delta()),
        )


@pytest.fixture
def delta_path(monkeypatch):
    """No byte threshold: every provable compaction appends a delta."""
    monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)


class TestOfflineCompaction:
    def _pair_with_records(self, tmp_path, batches=2):
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        engine.attach_wal()
        for counter in range(batches):
            engine.apply(mixed_batch(engine.database, counter))
        state = (engine.version,
                 rendered([engine.search(q, limits=LIMITS) for q in QUERIES]))
        engine.close()
        return path, state

    def test_compact_snapshot_folds_and_resets(self, tmp_path):
        path, (version, answers) = self._pair_with_records(tmp_path)
        report = compact_snapshot(path)
        assert report.records_folded == 2
        assert report.engine_version == version
        assert report.snapshot_path == path

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == version
        assert reopened.wal.base_version == version
        assert reopened.wal.records() == []
        assert rendered(
            [reopened.search(q, limits=LIMITS) for q in QUERIES]
        ) == answers
        reopened.close()

    def test_fold_to_copy_leaves_original_untouched(self, tmp_path):
        path, (version, answers) = self._pair_with_records(tmp_path)
        out = str(tmp_path / "folded.snap")
        with open(path, "rb") as handle:
            snapshot_bytes = handle.read()
        with open(default_wal_path(path), "rb") as handle:
            wal_bytes = handle.read()

        report = compact_snapshot(path, out=out)
        assert report.snapshot_path == out
        assert report.wal_path == default_wal_path(out)

        with open(path, "rb") as handle:
            assert handle.read() == snapshot_bytes
        with open(default_wal_path(path), "rb") as handle:
            assert handle.read() == wal_bytes

        copy = KeywordSearchEngine.open(out, wal=True)
        assert copy.version == version
        assert copy.wal.records() == []
        assert rendered(
            [copy.search(q, limits=LIMITS) for q in QUERIES]
        ) == answers
        copy.close()

    def test_compact_without_wal_refused(self, tmp_path):
        from repro.durable import hot_compact

        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        with pytest.raises(WalError, match="no attached WAL"):
            hot_compact(engine)
        engine.close()

    def test_compaction_metric(self, tmp_path):
        """One swap per compaction, told by its report: the snapshot
        published at the path, paired with an empty log."""
        path, (version, __) = self._pair_with_records(tmp_path)
        report = compact_snapshot(path)
        assert (report.snapshot_path, report.records_folded) == (path, 2)
        assert report.engine_version == version
        assert WriteAheadLog(report.wal_path).records() == []


class TestHotSwapUnderLoad:
    def test_mixed_workload_across_a_compaction_cycle(self, tmp_path):
        """The acceptance scenario: queries never fail, answers always
        match a from-scratch serial oracle, one compaction mid-stream
        leaves the pool serving."""
        path = str(tmp_path / "live.snap")
        oracle_db = planted_database()
        engine = KeywordSearchEngine(
            planted_database(), result_cache_entries=0
        )
        engine.save(path)
        engine.attach_wal()

        failed = 0
        for counter in range(8):
            answers = rendered(
                engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
            )
            oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
            expected = rendered(
                [oracle.search(q, limits=LIMITS) for q in QUERIES]
            )
            if answers != expected:
                failed += 1

            if counter == 4:
                searcher = engine._searcher
                engine.compact_wal()
                assert engine.wal.records() == []
                # Post-swap, the same pool still answers identically.
                assert rendered(
                    engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
                ) == expected
                assert engine._searcher is searcher

            batch = mixed_batch(engine.database, counter)
            engine.apply(batch)
            apply_to_database(oracle_db, batch)

        assert failed == 0
        assert engine.version == 8

        # The durable pair reflects every batch: snapshot at the
        # compaction point plus WAL records for what followed.
        version = engine.version
        engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == version
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        assert rendered(
            [reopened.search(q, limits=LIMITS) for q in QUERIES]
        ) == rendered(
            [oracle.search(q, limits=LIMITS) for q in QUERIES]
        )
        reopened.close()

    def test_hot_compact_to_copy_does_not_touch_the_pool(self, tmp_path):
        path = str(tmp_path / "live.snap")
        engine = KeywordSearchEngine(
            planted_database(), result_cache_entries=0
        )
        engine.save(path)
        engine.attach_wal()
        engine.apply(mixed_batch(engine.database, 0))
        before = rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        )
        out = str(tmp_path / "copy.snap")
        engine.compact_wal(out=out)
        assert os.path.exists(default_wal_path(out))
        # The original pair still has its record; the pool still serves.
        assert len(engine.wal.records()) == 1
        assert rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        ) == before
        engine.close()

    def test_pool_serves_through_compaction(self, tmp_path):
        """``compact_wal`` neither reopens nor re-forks a live pool: the
        same workers answer bit-identically afterwards."""
        path = str(tmp_path / "live.snap")
        engine = KeywordSearchEngine(
            planted_database(), result_cache_entries=0
        )
        engine.save(path)
        engine.attach_wal()
        for counter in range(3):
            engine.apply(mixed_batch(engine.database, counter))
        expected = rendered(
            [engine.search(q, limits=LIMITS) for q in QUERIES]
        )
        assert rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        ) == expected
        searcher = engine._searcher
        workers = [process.pid for process, __ in searcher._workers]
        engine.compact_wal()
        assert rendered(
            engine.search_batch(QUERIES, limits=LIMITS, jobs=2)
        ) == expected
        assert engine._searcher is searcher
        assert [process.pid for process, __ in searcher._workers] == workers
        assert searcher.respawns == 0
        assert searcher.pipe_batches == 2
        engine.close()


@pytest.mark.usefixtures("delta_path")
class TestOfflineCompactionThroughTheDelta(TestOfflineCompaction):
    """The offline scenarios again, compaction appending a delta."""

    def test_base_sections_are_byte_copied(self, tmp_path):
        path, (version, answers) = self._pair_with_records(tmp_path)
        __, before, ___, ____ = toc_of(path)
        assert compact_snapshot(path).records_folded == 2

        file_format, after, meta, records = toc_of(path)
        assert file_format == DELTA_FORMAT and records == 2
        assert (meta["base_version"], meta["engine_version"]) == (0, version)
        assert list(after) == list(before) + ["delta"]
        for name, (__, length, crc) in before.items():
            if name != "meta":
                assert after[name][1:] == [length, crc]

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == version
        assert reopened.wal.records() == []
        assert rendered(
            [reopened.search(q, limits=LIMITS) for q in QUERIES]
        ) == answers
        reopened.close()

    def test_copy_of_a_delta_snapshot_extends_its_delta(self, tmp_path):
        path, __ = self._pair_with_records(tmp_path)
        compact_snapshot(path)
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.apply(mixed_batch(engine.database, 2))
        original = toc_of(path)
        copy = str(tmp_path / "copy.snap")
        assert engine.compact_wal(out=copy).records_folded == 1
        assert toc_of(copy)[3] == 3
        assert toc_of(path) == original
        assert len(engine.wal.records()) == 1
        engine.close()


class TestDeltaThreshold:
    def _engine(self, tmp_path):
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        engine.attach_wal()
        return path, engine

    def test_delta_grows_to_the_threshold_then_folds(self, tmp_path, monkeypatch):
        """More records than the threshold allows, one compaction per
        record: deltas accumulate, the crossing compaction rewrites the
        base and empties the delta, and no open replays more than the
        bound."""
        path, engine = self._engine(tmp_path)
        base_bytes = sum(
            entry[1] for name, entry in toc_of(path)[1].items()
            if name != "meta"
        )
        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 8)
        oracle_db = planted_database()
        history = []
        for counter in range(12):
            batch = mixed_batch(engine.database, counter)
            engine.apply(batch)
            apply_to_database(oracle_db, batch)
            report = engine.compact_wal()
            assert report.records_folded == 1
            file_format, sections, meta, records = toc_of(path)
            assert records == meta["engine_version"] - meta.get(
                "base_version", meta["engine_version"]
            )
            assert (file_format, "delta" in sections) == (
                (DELTA_FORMAT, True) if records else (SNAPSHOT_FORMAT, False)
            )
            assert meta["engine_version"] == counter + 1
            if records:
                assert sections["delta"][1] * 8 <= base_bytes
            history.append(records)
        # Deltas accumulate (1, 2, ...), a full fold empties them (0),
        # and they start over — at least once in twelve records.
        assert 0 in history and max(history) > 1
        assert history[0] == 1 and history[history.index(0) + 1] == 1
        engine.close()

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == 12
        assert reopened.version - Snapshot(path).base_version == history[-1]
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        assert rendered(
            [reopened.search(q, limits=LIMITS) for q in QUERIES]
        ) == rendered([oracle.search(q, limits=LIMITS) for q in QUERIES])
        reopened.close()

    def test_save_never_writes_a_delta(self, tmp_path, delta_path):
        path, engine = self._engine(tmp_path)
        engine.apply(mixed_batch(engine.database, 0))
        engine.compact_wal()
        assert toc_of(path)[3] == 1
        engine.apply(mixed_batch(engine.database, 1))
        other = str(tmp_path / "saved.snap")
        engine.save(other)
        file_format, sections, meta, records = toc_of(other)
        assert (file_format, records, "delta" in sections) == (
            SNAPSHOT_FORMAT, 0, False
        )
        assert "base_version" not in meta
        assert meta["engine_version"] == engine.version == 2
        engine.close()

    def test_unprovable_pairing_takes_the_full_rewrite(self, tmp_path, delta_path):
        path, engine = self._engine(tmp_path)
        engine.apply(mixed_batch(engine.database, 0))
        # Overwriting the paired file breaks the generation handshake:
        # the bytes on disk are no longer the base the WAL extends.
        engine.save(path)
        assert engine.compact_wal().records_folded == 1
        assert toc_of(path)[0] == SNAPSHOT_FORMAT

        # A base that fails its CRC verify is never copied either.
        engine.apply(mixed_batch(engine.database, 1))
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        engine.compact_wal()
        assert toc_of(path)[0] == SNAPSHOT_FORMAT
        engine.close()
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == 2
        reopened.close()

    def test_empty_wal_compaction_writes_no_delta(self, tmp_path, delta_path):
        path, engine = self._engine(tmp_path)
        assert engine.compact_wal().records_folded == 0
        assert toc_of(path)[0] == SNAPSHOT_FORMAT
        engine.close()


class TestCompactionCadence:
    """One compaction per batch, under the production ``DELTA_FRACTION``,
    on a corpus large enough that a record fits the delta bound.

    Counted in bytes, so the gate repeats exactly on any machine: the
    compactions byte-copy what did not change and encode at most 1/4 of
    what a full rewrite per compaction would, the delta stays inside its
    byte bound (which bounds the replay an open pays), and the reopened
    pair replays exactly the delta and answers like a cold rebuild."""

    QUERIES = ["kwalpha kwbeta", "kwalpha", "kwbeta", "kwgamma",
               "kwalpha kwgamma"]

    @staticmethod
    def database():
        database = generate_company_like(SyntheticConfig(
            departments=12, projects_per_department=3,
            employees_per_department=8, works_on_per_employee=2,
            dependents_per_employee=0.5, seed=17,
        ))
        plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
        plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 4, seed=2)
        plant(database, "kwgamma", "PROJECT", "P_NAME", 3, seed=3)
        return database

    @staticmethod
    def batches(database, count=16, per_batch=5):
        """Keyword-bearing inserts interleaved with description churn."""
        employees = database.tuples("EMPLOYEE")
        departments = database.tuples("DEPARTMENT")
        batches = []
        for index in range(count):
            batch = []
            for slot in range(per_batch):
                serial = index * per_batch + slot
                if (index + slot) % 2 == 0:
                    essn = employees[serial % len(employees)].tid.key[0]
                    batch.append(Insert("DEPENDENT", {
                        "ID": f"bd{serial}", "ESSN": essn,
                        "DEPENDENT_NAME": ("kwbeta", "kwalpha",
                                           "plain")[serial % 3],
                    }))
                else:
                    department = departments[serial % len(departments)]
                    batch.append(Update(department.tid, {
                        "D_DESCRIPTION": ("kwalpha drift", "plain words",
                                          "kwbeta kwalpha note")[serial % 3],
                    }))
            batches.append(batch)
        return batches

    @staticmethod
    def sections(path):
        """``{section: (length, crc32)}`` of one file."""
        return {name: tuple(entry[1:]) for name, entry in toc_of(path)[1].items()}

    def test_delta_compactions_encode_what_changed(self, tmp_path):
        path = str(tmp_path / "cadence.snap")
        engine = KeywordSearchEngine(self.database())
        engine.save(path)
        engine.attach_wal()
        oracle_db = self.database()
        encoded = rewrite = deltas = 0
        before = self.sections(path)
        for batch in self.batches(engine.database):
            engine.apply(batch)
            apply_to_database(oracle_db, batch)
            engine.compact_wal()
            after = self.sections(path)
            # Sections whose bytes moved; the delta, whose old bytes are
            # byte-copied too, by its growth.
            encoded += sum(length for name, (length, crc) in after.items()
                           if before.get(name) != (length, crc))
            if "delta" in after and "delta" in before:
                encoded -= before["delta"][0]
            rewrite += sum(length for length, __ in after.values())
            deltas += "delta" in after
            before = after
        engine.close()

        assert deltas >= 1
        assert encoded * 4 <= rewrite, (encoded, rewrite)
        delta_bytes = before.get("delta", (0, 0))[0]
        base_bytes = sum(length for name, (length, __) in before.items()
                         if name not in ("meta", "delta"))
        assert delta_bytes * snapshot_module.DELTA_FRACTION <= base_bytes

        __, ___, meta, records = toc_of(path)
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert reopened.version == meta["engine_version"] == 16
        assert reopened.version - meta.get("base_version", 16) == records
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        assert rendered(
            [reopened.search(q, limits=LIMITS) for q in self.QUERIES]
        ) == rendered([oracle.search(q, limits=LIMITS) for q in self.QUERIES])
        reopened.close()


@pytest.mark.usefixtures("delta_path")
class TestHotSwapOntoADeltaSnapshot(TestHotSwapUnderLoad):
    """The pool scenarios again, every compaction appending a delta."""

    def test_pool_serves_through_compaction(self, tmp_path):
        super().test_pool_serves_through_compaction(tmp_path)
        assert toc_of(str(tmp_path / "live.snap"))[::3] == (DELTA_FORMAT, 3)
