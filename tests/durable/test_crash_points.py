"""Crash injection at every durability fault point.

Two layers: in-process ``raise`` faults prove the atomic-write protocol
cleans up and preserves the previous artefact, and subprocess ``kill``
faults deliver a real ``SIGKILL`` at the armed point — no handlers, no
flushes — after which the parent reopens snapshot + WAL and must land
bit-identical to an oracle engine that executed the surviving prefix of
batches itself.
"""

import os
from pathlib import Path
import subprocess
import sys
import textwrap

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    plant,
)
from repro.durable import fault
from repro.errors import FaultInjected
from repro.live.changes import Insert
from repro.scale import snapshot as snapshot_module
from repro.scale.snapshot import Snapshot

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=3,
    works_on_per_employee=2,
    dependents_per_employee=0.5,
    seed=23,
)


def planted_database():
    database = generate_company_like(CONFIG)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 2, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 2, seed=2)
    return database


def batch(database, counter):
    """Batch ``counter``: one deterministic dependent insert."""
    employees = database.tuples("EMPLOYEE")
    essn = employees[counter % len(employees)].tid.key[0]
    name = ("kwbeta", "kwalpha", "plain")[counter % 3]
    return [Insert(
        "DEPENDENT",
        {"ID": f"cp{counter}", "ESSN": essn, "DEPENDENT_NAME": name},
    )]


def state_of(engine):
    from repro.relational.database import TupleId

    database = engine.database
    return engine.version, {
        name: [
            (key, dict(database.tuple(TupleId(name, key)).values))
            for key in database.relation_key_order(name)
        ]
        for name in sorted(r.name for r in database.schema.relations)
    }


def oracle_state(applied: int):
    """The state an engine reaches after ``applied`` batches, no WAL."""
    engine = KeywordSearchEngine(planted_database())
    for counter in range(applied):
        engine.apply(batch(engine.database, counter))
    return state_of(engine)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    fault.reset()
    os.environ.pop("REPRO_FAULT", None)


# ----------------------------------------------------------------------
# in-process raise faults: the atomic-write protocol
# ----------------------------------------------------------------------
class TestAtomicSaveRegression:
    def test_crash_mid_save_preserves_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        before = state_of(engine)
        engine.apply(batch(engine.database, 0))

        fault.configure("snapshot.mid-save:raise")
        with pytest.raises(FaultInjected):
            engine.save(path)
        fault.reset()

        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        reopened = KeywordSearchEngine.open(path)
        assert state_of(reopened) == before
        reopened.close()

    def test_crash_before_replace_preserves_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        before = state_of(engine)
        engine.apply(batch(engine.database, 0))

        fault.configure("snapshot.pre-replace:raise")
        with pytest.raises(FaultInjected):
            engine.save(path)
        fault.reset()

        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        reopened = KeywordSearchEngine.open(path)
        assert state_of(reopened) == before
        reopened.close()

    def test_crash_after_wal_append_survives_in_the_log(self, tmp_path):
        """The post-append pre-apply window: the batch is durable even
        though the in-memory engine never finished applying it."""
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        engine.attach_wal()
        engine.apply(batch(engine.database, 0))

        fault.configure("wal.append:raise")
        with pytest.raises(FaultInjected):
            engine.apply(batch(engine.database, 1))
        fault.reset()
        engine.detach_wal()

        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(2)
        reopened.close()


    @pytest.mark.parametrize(
        "point", ["snapshot.mid-save", "snapshot.pre-replace"]
    )
    def test_crash_publishing_a_delta_preserves_the_pair(
        self, tmp_path, monkeypatch, point
    ):
        """The delta path publishes through the same temp file + fsync +
        rename: a fault leaves no litter and the old snapshot + full WAL
        pair, and the compaction can simply be retried."""
        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        path = str(tmp_path / "e.snap")
        engine = KeywordSearchEngine(planted_database())
        engine.save(path)
        engine.attach_wal()
        engine.apply(batch(engine.database, 0))
        engine.compact_wal()
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == 1
        engine.apply(batch(engine.database, 1))
        before = Path(path).read_bytes()

        fault.configure(point + ":raise")
        with pytest.raises(FaultInjected):
            engine.compact_wal()
        fault.reset()

        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        assert Path(path).read_bytes() == before
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(2)
        reopened.close()
        engine.compact_wal()
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == 2
        engine.close()
        reopened = KeywordSearchEngine.open(path)
        assert state_of(reopened) == oracle_state(2)
        reopened.close()


# ----------------------------------------------------------------------
# subprocess SIGKILL faults: real crashes, bit-identical recovery
# ----------------------------------------------------------------------
_CHILD = textwrap.dedent("""
    import sys

    sys.path.insert(0, {src!r})
    sys.path.insert(0, {here!r})

    from test_crash_points import batch, planted_database
    from repro.core.engine import KeywordSearchEngine
    from repro.durable import fault

    point, path, applies = sys.argv[1], sys.argv[2], int(sys.argv[3])
    delta = len(sys.argv) > 4

    engine = KeywordSearchEngine(planted_database())
    engine.save(path)
    engine.attach_wal()
    if delta:
        # Every compaction appends a delta; the first batch is already
        # in one when the armed compaction starts.
        from repro.scale import snapshot
        snapshot.DELTA_FRACTION = 0
    for counter in range(applies):
        engine.apply(batch(engine.database, counter))
        print("applied", counter + 1, flush=True)
        if delta and counter == 0:
            engine.compact_wal()

    fault.configure(point + ":kill")
    if point.startswith("compact.") or delta:
        engine.compact_wal()
    elif point == "snapshot.mid-save":
        engine.detach_wal()
        engine.save(path)
    else:
        engine.apply(batch(engine.database, applies))
        print("applied", applies + 1, flush=True)
    print("survived", flush=True)  # never reached
""")


def run_child(tmp_path, point, applies, delta=False):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath(
        os.path.join(here, os.pardir, os.pardir, "src")
    )
    script = tmp_path / "child.py"
    script.write_text(_CHILD.format(src=src, here=here))
    path = str(tmp_path / "e.snap")
    result = subprocess.run(
        [sys.executable, str(script), point, path, str(applies)]
        + ["delta"] * delta,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == -9, (result.returncode, result.stderr)
    assert "survived" not in result.stdout
    return path, result.stdout


class TestKillNineRecovery:
    def test_kill_at_wal_append(self, tmp_path):
        path, out = run_child(tmp_path, "wal.append", applies=2)
        # The fault fires *after* the append fsynced: the third batch
        # is in the log even though apply() never returned.
        assert out.count("applied") == 2
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(3)
        reopened.close()

    def test_kill_mid_save_overwrite(self, tmp_path):
        path, __ = run_child(tmp_path, "snapshot.mid-save", applies=2)
        reopened = KeywordSearchEngine.open(path)
        # The overwrite died mid-write: the v0 snapshot is intact.
        assert state_of(reopened) == oracle_state(0)
        reopened.close()
        # ... and the WAL beside it still pairs with it, so replay
        # recovers both logged batches on top.
        recovered = KeywordSearchEngine.open(path, wal=True)
        assert state_of(recovered) == oracle_state(2)
        recovered.close()

    def test_kill_before_compaction_fold(self, tmp_path):
        path, __ = run_child(tmp_path, "compact.fold", applies=2)
        # Old snapshot + complete WAL: replay recovers everything.
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(2)
        assert reopened.version == 2
        reopened.close()

    def test_kill_between_fold_and_wal_reset(self, tmp_path):
        path, __ = run_child(tmp_path, "compact.swap", applies=2)
        # New snapshot + stale old-generation WAL: attach detects the
        # interrupted compaction, resets the log, replays nothing.
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(2)
        assert reopened.wal.base_version == reopened.version
        assert reopened.wal.records() == []
        reopened.close()


class TestKillNineDuringDeltaCompaction:
    """The compaction crash windows again, the publication appending to
    a delta: a kill before the rename leaves the previous delta snapshot
    and its complete WAL, a kill after it the new snapshot and a stale
    WAL — exactly the two recoverable shapes of the full rewrite."""

    @pytest.mark.parametrize(
        "point", ["compact.fold", "snapshot.mid-save", "snapshot.pre-replace"]
    )
    def test_kill_before_the_rename(self, tmp_path, point):
        path, __ = run_child(tmp_path, point, applies=3, delta=True)
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == 1
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(3)
        assert len(reopened.wal.records()) == 2
        reopened.close()

    def test_kill_between_rename_and_wal_reset(self, tmp_path):
        path, __ = run_child(tmp_path, "compact.swap", applies=3, delta=True)
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == 3
            assert snapshot.base_version == 0
        reopened = KeywordSearchEngine.open(path, wal=True)
        assert state_of(reopened) == oracle_state(3)
        assert reopened.wal.base_version == reopened.version == 3
        assert reopened.wal.records() == []
        reopened.close()
