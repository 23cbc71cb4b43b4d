"""Durability property: any crash prefix of the WAL replays exactly.

Hypothesis drives random mutation batches through a WAL-attached engine,
then truncates the log at an arbitrary byte boundary — the only shape a
crashed append can leave.  Reopening snapshot + truncated WAL must be
bit-identical (state and answers) to an engine that rebuilt from the
same snapshot and executed exactly the surviving prefix of batches
live.  Corruption *inside* the log (not at the tail) must refuse.

A third property holds a restored engine's index to a rebuild: writes
to still-encoded posting lists are queued and folded on first read, and
whatever reads, compactions and reopens come between, every token
serves what ``InvertedIndex(database)`` built from scratch holds.

A second property interleaves ``apply`` / ``compact_wal`` / close +
``open(wal=True)`` with the delta threshold set small enough that the
steps cross it: whatever mix of delta appends and full rewrites the
pair went through, reopening it lands on the engine built from scratch.
Its batches rename, delete and replace tuples whose tokens change — the
index unposts them from their pre-batch images, so a rename followed by
a delete in one batch must unpost the name the index actually holds.
"""

import os
import shutil
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    plant,
)
from repro.durable.wal import WriteAheadLog, default_wal_path
from repro.live.changes import Delete, Insert, Update
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex, _LazyPostings, _RawTable
from repro.scale import snapshot as snapshot_module

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

configs = st.builds(
    SyntheticConfig,
    departments=st.integers(min_value=1, max_value=2),
    projects_per_department=st.integers(min_value=1, max_value=2),
    employees_per_department=st.integers(min_value=1, max_value=3),
    works_on_per_employee=st.integers(min_value=1, max_value=2),
    dependents_per_employee=st.just(0.3),
    seed=st.integers(min_value=0, max_value=30),
)

_KINDS = (
    "insert_dependent", "update_description", "delete_dependent",
    "rename_dependent", "rename_then_delete", "replace_dependent",
)
_NAMES = ("kwbeta", "kwalpha", "plainname")

operations = st.lists(
    st.tuples(st.sampled_from(_KINDS),
              st.integers(min_value=0, max_value=1 << 20)),
    min_size=1,
    max_size=5,
)

_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
_QUERIES = ("kwalpha kwbeta", "kwalpha")


def planted_database(config):
    database = generate_company_like(config)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION",
          min(2, database.count("DEPARTMENT")), seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME",
          min(2, database.count("EMPLOYEE")), seed=2)
    return database


def build_batch(database, kind, salt, counter):
    """Deterministically derive one valid batch from the current state."""
    employees = database.tuples("EMPLOYEE")
    if kind == "insert_dependent":
        essn = employees[salt % len(employees)].tid.key[0]
        return [Insert(
            "DEPENDENT",
            {"ID": f"dur{counter}", "ESSN": essn,
             "DEPENDENT_NAME": _NAMES[salt % 3]},
        )]
    if kind == "update_description":
        departments = database.tuples("DEPARTMENT")
        department = departments[salt % len(departments)]
        text = ("kwalpha research", "plain words only",
                "kwbeta and kwalpha notes")[salt % 3]
        return [Update(department.tid, {"D_DESCRIPTION": text})]
    victims = database.tuples("DEPENDENT")
    if not victims:
        return []
    victim = victims[salt % len(victims)]
    # A name the victim does not carry yet: its tokens change.
    renamed = next(
        name for name in _NAMES[salt % 3:] + _NAMES
        if name != victim["DEPENDENT_NAME"]
    )
    if kind == "rename_dependent":
        return [Update(victim.tid, {"DEPENDENT_NAME": renamed})]
    if kind == "rename_then_delete":
        return [Update(victim.tid, {"DEPENDENT_NAME": renamed}),
                Delete(victim.tid)]
    if kind == "replace_dependent":
        return [Delete(victim.tid),
                Insert("DEPENDENT", {**victim.values, "DEPENDENT_NAME": renamed})]
    return [Delete(victim.tid)]


def state_of(engine):
    database = engine.database
    return engine.version, {
        name: [
            (key, dict(database.tuple(TupleId(name, key)).values))
            for key in database.relation_key_order(name)
        ]
        for name in sorted(r.name for r in database.schema.relations)
    }


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


class TestTruncationProperty:
    @relaxed
    @given(configs, operations, st.data())
    def test_any_byte_truncation_replays_the_applied_prefix(
        self, config, ops, data
    ):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "e.snap")
            engine = KeywordSearchEngine(planted_database(config))
            engine.save(path)
            engine.attach_wal()
            for counter, (kind, salt) in enumerate(ops):
                engine.apply(build_batch(engine.database, kind, salt, counter))
            engine.close()

            wal_path = default_wal_path(path)
            probe = WriteAheadLog(wal_path)
            record_offsets = [offset for offset, __ in probe.scan()]
            data_offset = probe._data_offset
            probe.close()
            size = os.path.getsize(wal_path)
            cut = data.draw(
                st.integers(min_value=data_offset, max_value=size),
                label="truncation_point",
            )

            # Crash copy: same snapshot, log cut at an arbitrary byte.
            crash = os.path.join(workdir, "crash.snap")
            shutil.copyfile(path, crash)
            shutil.copyfile(wal_path, default_wal_path(crash))
            with open(default_wal_path(crash), "r+b") as handle:
                handle.truncate(cut)

            surviving = sum(1 for offset in record_offsets if offset < cut
                            if self._complete(offset, record_offsets,
                                              size, cut))
            reopened = KeywordSearchEngine.open(crash, wal=True)
            assert reopened.version == surviving

            # Oracle: rebuild from the same snapshot, execute the
            # surviving prefix of batches live.
            oracle = KeywordSearchEngine.open(path)
            for counter, (kind, salt) in enumerate(ops[:surviving]):
                oracle.apply(build_batch(oracle.database, kind, salt, counter))

            assert state_of(reopened) == state_of(oracle)
            for query in _QUERIES:
                assert rendered(
                    reopened.search(query, limits=_LIMITS)
                ) == rendered(oracle.search(query, limits=_LIMITS))
            reopened.close()
            oracle.close()

    @staticmethod
    def _complete(offset, record_offsets, size, cut):
        """Does the record at ``offset`` survive a cut at ``cut``?"""
        position = record_offsets.index(offset)
        end = (record_offsets[position + 1]
               if position + 1 < len(record_offsets) else size)
        return end <= cut

    @relaxed
    @given(configs, operations,
           st.integers(min_value=0, max_value=1 << 20))
    def test_mid_file_corruption_refuses(self, config, ops, salt):
        import pytest

        from repro.errors import WalError

        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "e.snap")
            engine = KeywordSearchEngine(planted_database(config))
            engine.save(path)
            engine.attach_wal()
            for counter, (kind, salt_op) in enumerate(ops):
                engine.apply(
                    build_batch(engine.database, kind, salt_op, counter)
                )
            engine.close()

            wal_path = default_wal_path(path)
            probe = WriteAheadLog(wal_path)
            offsets = [offset for offset, __ in probe.scan()]
            probe.close()
            if len(offsets) < 2:
                return  # need a non-final record to corrupt
            # Flip one payload byte of the *first* record: its CRC then
            # fails before EOF — damage truncation cannot explain.  (A
            # corrupted length prefix may masquerade as a torn tail, so
            # only payload bytes guarantee a refusal.)
            payload_start = offsets[0] + 8
            position = payload_start + salt % (offsets[1] - payload_start)
            with open(wal_path, "r+b") as handle:
                handle.seek(position)
                byte = handle.read(1)
                handle.seek(position)
                handle.write(bytes([byte[0] ^ 0xFF]))

            with pytest.raises(WalError):
                engine = KeywordSearchEngine.open(path, wal=True)
                engine.close()


steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_KINDS),
                  st.integers(min_value=0, max_value=1 << 20)),
        st.tuples(st.sampled_from(("compact", "reopen")), st.just(0)),
    ),
    min_size=2,
    max_size=14,
)


class TestCompactionInterleavingProperty:
    @relaxed
    @given(configs, steps, st.sampled_from((0, 8, 16, 32)))
    def test_reopened_pair_equals_engine_rebuilt_from_scratch(
        self, config, steps, fraction
    ):
        """Fractions 8 and 16 put the threshold at two to five records of
        these bases, so runs of applies cross it; 0 never folds, 32
        (the shipped constant) nearly always does."""
        with tempfile.TemporaryDirectory() as workdir, mock.patch.object(
            snapshot_module, "DELTA_FRACTION", fraction
        ):
            path = os.path.join(workdir, "e.snap")
            engine = KeywordSearchEngine(planted_database(config))
            engine.save(path)
            engine.attach_wal()
            oracle = KeywordSearchEngine(
                planted_database(config), result_cache_entries=0
            )
            counter = 0
            for kind, salt in steps:
                if kind == "compact":
                    report = engine.compact_wal()
                    assert report.engine_version == engine.version
                    assert engine.wal.records() == []
                elif kind == "reopen":
                    engine.close()
                    engine = KeywordSearchEngine.open(path, wal=True)
                else:
                    batch = build_batch(engine.database, kind, salt, counter)
                    engine.apply(batch)
                    oracle.apply(batch)
                    counter += 1
                assert engine.version == oracle.version
            engine.close()

            reopened = KeywordSearchEngine.open(path, wal=True)
            assert state_of(reopened) == state_of(oracle)
            for query in _QUERIES:
                assert rendered(
                    reopened.search(query, limits=_LIMITS)
                ) == rendered(oracle.search(query, limits=_LIMITS))
            with snapshot_module.Snapshot(path) as snapshot:
                held = (
                    snapshot.read("delta")
                    if "delta" in snapshot.sections() else b""
                )
                base = sum(
                    entry[1] for name, entry in snapshot._toc.items()
                    if name not in ("meta", "delta")
                )
            assert len(held) * fraction <= base
            reopened.close()


deferred_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_KINDS + ("insert_then_delete",)),
                  st.integers(min_value=0, max_value=1 << 20)),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=1 << 20)),
        st.tuples(
            st.sampled_from(("compact_delta", "compact_full", "save_reopen")),
            st.just(0),
        ),
    ),
    min_size=2,
    max_size=12,
)

#: The three exact reads; whichever comes first folds a token.
_READS = (
    lambda index, token: index.posting_length(token),
    lambda index, token: token in index,
    lambda index, token: index.postings(token),
)


def unfolded_copy(index):
    """A second index over a copy of ``index``'s posting state: reading
    it folds the copy's queued writes (at ``index``'s order positions)
    and leaves those of ``index`` queued."""
    postings = index._postings
    raw = _RawTable(postings._columns, postings._raw.alive)  # alive is copied
    copy = _LazyPostings(postings._columns, raw)
    copy._pending = {
        token: list(writes) for token, writes in postings._pending.items()
    }
    dict.update(copy, {
        token: list(entries) for token, entries in dict.items(postings)
    })
    clone = InvertedIndex.from_state(index._database, copy)
    copy._place = postings._place
    return clone


def assert_serves_a_rebuild(index, database, seen):
    """Every token of a rebuild and of ``seen`` (tokens that may have
    lost their last posting since), each accessor first in turn;
    returns the rebuild's vocabulary."""
    fresh = InvertedIndex(database)
    vocabulary = fresh.vocabulary()
    for at, token in enumerate(sorted(set(vocabulary) | seen)):
        for read in _READS[at % 3:] + _READS[:at % 3]:
            assert read(index, token) == read(fresh, token), token
    assert index.vocabulary() == vocabulary
    return vocabulary


class TestDeferredPostingsEqualEager:
    @relaxed
    @given(configs, deferred_steps)
    def test_restored_index_serves_what_a_rebuild_holds(self, config, steps):
        """Replaces, renames followed by deletes and inserts deleted
        before any read queue both kinds of write on one token."""
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "e.snap")
            KeywordSearchEngine(planted_database(config)).save(path)
            engine = KeywordSearchEngine.open(path, wal=True)
            counter = 0
            # Every token a rebuild ever held, or a batch ever posted.
            seen = set(InvertedIndex(engine.database).vocabulary())
            seen.update(_NAMES + ("kwalpha", "kwbeta", "research", "notes"))
            for number, (kind, salt) in enumerate(steps):
                if kind == "read":
                    fresh = InvertedIndex(engine.database)
                    candidates = sorted(set(fresh.vocabulary()) | seen)
                    token = candidates[salt % len(candidates)]
                    read = _READS[(salt >> 8) % 3]
                    assert read(engine.index, token) == read(fresh, token)
                elif kind.startswith("compact"):
                    fraction = 0 if kind == "compact_delta" else 1 << 30
                    with mock.patch.object(
                        snapshot_module, "DELTA_FRACTION", fraction
                    ):
                        engine.compact_wal()
                elif kind == "save_reopen":
                    path = os.path.join(workdir, f"e{number}.snap")
                    engine.save(path)
                    engine.close()
                    engine = KeywordSearchEngine.open(path, wal=True)
                elif kind == "insert_then_delete":
                    engine.apply(build_batch(
                        engine.database, "insert_dependent", salt, counter
                    ))
                    engine.apply([Delete(TupleId("DEPENDENT", (f"dur{counter}",)))])
                    seen.add(f"dur{counter}")
                    counter += 1
                else:
                    engine.apply(build_batch(engine.database, kind, salt, counter))
                    counter += 1
                seen.update(assert_serves_a_rebuild(
                    unfolded_copy(engine.index), engine.database, seen
                ))
            assert_serves_a_rebuild(engine.index, engine.database, seen)
            engine.close()
