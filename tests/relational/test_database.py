"""Unit tests for the database instance store."""

import copy
import multiprocessing
import os
import pickle

import pytest

from repro.errors import (
    ForeignKeyError,
    IntegrityError,
    PrimaryKeyError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational.database import Database, TupleId
from stored_rows import built_rows


class TestInsert:
    def test_insert_and_get(self, company_db):
        record = company_db.get("DEPARTMENT", "d1")
        assert record is not None
        assert record["D_NAME"] == "Cs"

    def test_insert_coerces_types(self, company_db):
        record = company_db.get("WORKS_FOR", "e1", "p1")
        assert record["HOURS"] == 40
        assert isinstance(record["HOURS"], int)

    def test_missing_attributes_become_null(self, db_schema):
        database = Database(db_schema)
        database.insert("DEPARTMENT", {"ID": "dx"})
        assert database.get("DEPARTMENT", "dx")["D_NAME"] is None

    def test_unknown_attribute_rejected(self, db_schema):
        database = Database(db_schema)
        with pytest.raises(UnknownAttributeError):
            database.insert("DEPARTMENT", {"ID": "dx", "NOPE": 1})

    def test_duplicate_primary_key_rejected(self, company_db):
        with pytest.raises(PrimaryKeyError):
            company_db.insert("DEPARTMENT", {"ID": "d1", "D_NAME": "dup"})

    def test_null_primary_key_rejected(self, db_schema):
        database = Database(db_schema)
        with pytest.raises(PrimaryKeyError):
            database.insert("DEPARTMENT", {"D_NAME": "x"})

    def test_dangling_fk_rejected_when_enforcing(self, company_db):
        with pytest.raises(ForeignKeyError):
            company_db.insert(
                "EMPLOYEE",
                {"SSN": "e9", "L_NAME": "New", "S_NAME": "Guy", "D_ID": "d99"},
            )

    def test_null_fk_allowed(self, company_db):
        record = company_db.insert(
            "EMPLOYEE", {"SSN": "e9", "L_NAME": "New", "S_NAME": "Guy"}
        )
        assert record["D_ID"] is None

    def test_unknown_relation_rejected(self, company_db):
        with pytest.raises(UnknownRelationError):
            company_db.insert("NOPE", {"ID": "x"})


class TestLabels:
    def test_default_label_is_key(self, company_db):
        assert company_db.get("DEPARTMENT", "d1").label == "d1"

    def test_explicit_label(self, company_db):
        assert company_db.get("WORKS_FOR", "e1", "p1").label == "w_f1"

    def test_by_label(self, company_db):
        assert company_db.by_label("w_f3").tid.key == ("e3", "p2")

    def test_by_label_missing_raises(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.by_label("nope")


class TestLookup:
    def test_tuples_in_insertion_order(self, company_db):
        labels = [t.label for t in company_db.tuples("EMPLOYEE")]
        assert labels == ["e1", "e2", "e3", "e4"]

    def test_all_tuples_count(self, company_db):
        assert sum(1 for __ in company_db.all_tuples()) == 16

    def test_count(self, company_db):
        assert company_db.count() == 16
        assert company_db.count("PROJECT") == 3

    def test_tuple_by_tid(self, company_db):
        tid = TupleId("EMPLOYEE", ("e1",))
        assert company_db.tuple(tid)["L_NAME"] == "Smith"

    def test_tuple_missing_raises(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.tuple(TupleId("EMPLOYEE", ("e99",)))

    def test_tuple_unknown_relation_raises(self, company_db):
        with pytest.raises(UnknownRelationError):
            company_db.tuple(TupleId("NOPE", ("x",)))

    def test_get_returns_none_for_missing(self, company_db):
        assert company_db.get("EMPLOYEE", "e99") is None


class TestNavigation:
    def test_referenced_tuple(self, company_db):
        fk = company_db.schema.foreign_key("fk_employee_department")
        employee = company_db.get("EMPLOYEE", "e1")
        department = company_db.referenced_tuple(employee, fk)
        assert department.tid == TupleId("DEPARTMENT", ("d1",))

    def test_referenced_tuple_null_fk(self, company_db):
        record = company_db.insert(
            "EMPLOYEE", {"SSN": "e9", "L_NAME": "X", "S_NAME": "Y"}
        )
        fk = company_db.schema.foreign_key("fk_employee_department")
        assert company_db.referenced_tuple(record, fk) is None

    def test_referenced_tuple_wrong_relation_raises(self, company_db):
        fk = company_db.schema.foreign_key("fk_employee_department")
        department = company_db.get("DEPARTMENT", "d1")
        with pytest.raises(IntegrityError):
            company_db.referenced_tuple(department, fk)

    def test_referencing_tuples(self, company_db):
        department = company_db.get("DEPARTMENT", "d1")
        labels = sorted(t.label for t in company_db.referencing_tuples(department))
        assert labels == ["e1", "e3", "p1"]

    def test_referencing_tuples_single_fk(self, company_db):
        fk = company_db.schema.foreign_key("fk_employee_department")
        department = company_db.get("DEPARTMENT", "d1")
        labels = sorted(
            t.label for t in company_db.referencing_tuples(department, fk)
        )
        assert labels == ["e1", "e3"]

    def test_referencing_tuples_wrong_relation_raises(self, company_db):
        fk = company_db.schema.foreign_key("fk_employee_department")
        employee = company_db.get("EMPLOYEE", "e1")
        with pytest.raises(IntegrityError, match="does not point at"):
            list(company_db.referencing_tuples(employee, fk))


class TestDelete:
    def test_delete_unreferenced(self, company_db):
        tid = TupleId("DEPENDENT", ("t2",))
        company_db.delete(tid)
        assert company_db.get("DEPENDENT", "t2") is None

    def test_delete_referenced_rejected(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("DEPARTMENT", ("d1",)))

    def test_delete_missing_raises(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("DEPENDENT", ("t99",)))


def _recounted(database):
    """Per-FK reference counts from one scan, zero entries dropped."""
    counts = {}
    for fk in database.schema.foreign_keys:
        table = counts[fk.name] = {}
        for record in database.tuples(fk.source):
            key = tuple(record.values[c] for c in fk.source_columns)
            table[key] = table.get(key, 0) + 1
    return counts


def _held_counts(database):
    return {
        name: {key: count for key, count in table.items() if count}
        for name, table in database._reference_counts.items()
    }


class TestReferenceCounts:
    """``delete``'s "still referenced" check reads per-FK counters that
    are built on the first delete and then kept current."""

    def test_nothing_is_counted_until_the_first_delete(self, company_db):
        company_db.insert("DEPENDENT", {"ID": "t9", "ESSN": "e1"})
        company_db.update(TupleId("DEPENDENT", ("t9",)), {"ESSN": "e2"})
        assert company_db._reference_counts == {}
        company_db.delete(TupleId("DEPENDENT", ("t9",)))
        # DEPENDENT is referenced by nothing: still no counter needed.
        assert company_db._reference_counts == {}

    def test_only_keys_onto_the_victims_relation_are_counted(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("EMPLOYEE", ("e1",)))
        wanted = {fk.name for fk in company_db.schema.foreign_keys_to("EMPLOYEE")}
        # ... and only as far as the first key that settles the answer.
        assert company_db._reference_counts
        assert set(company_db._reference_counts) <= wanted

    def test_counts_follow_every_mutation(self, company_db):
        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("DEPARTMENT", ("d1",)))
        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("EMPLOYEE", ("e1",)))
        company_db.insert("DEPENDENT", {"ID": "t9", "ESSN": "e1"})
        company_db.update(TupleId("DEPENDENT", ("t9",)), {"ESSN": "e2"})
        company_db.update(TupleId("DEPENDENT", ("t2",)), {"ESSN": None})
        company_db.delete(TupleId("DEPENDENT", ("t1",)))
        recounted = _recounted(company_db)
        assert _held_counts(company_db) == {
            name: recounted[name] for name in company_db._reference_counts
        }

    def test_last_reference_gone_unblocks_the_delete(self, company_db):
        victim = TupleId("EMPLOYEE", ("e3",))
        for record in list(company_db.referencing_tuples(company_db.tuple(victim))):
            company_db.delete(record.tid)
        company_db.delete(victim)
        assert company_db.get("EMPLOYEE", "e3") is None

    def test_rolled_back_batch_leaves_counts_exact(self, company_db):
        from repro.live.changes import Delete, Insert, apply_to_database

        with pytest.raises(IntegrityError):
            company_db.delete(TupleId("EMPLOYEE", ("e1",)))
        with pytest.raises(IntegrityError):
            apply_to_database(company_db, [
                Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1"}),
                Delete(TupleId("DEPENDENT", ("t1",))),
                Delete(TupleId("EMPLOYEE", ("e1",))),  # still referenced
            ])
        recounted = _recounted(company_db)
        assert _held_counts(company_db) == {
            name: recounted[name] for name in company_db._reference_counts
        }

    def test_error_names_the_referencers_as_a_scan_would(self, company_db):
        victim = company_db.tuple(TupleId("EMPLOYEE", ("e1",)))
        expected = [str(t.tid) for t in company_db.referencing_tuples(victim)][:5]
        with pytest.raises(IntegrityError) as exc:
            company_db.delete(victim.tid)
        assert exc.value.context["referencing"] == expected
        assert exc.value.context["tid"] == "EMPLOYEE(e1)"


class TestTail:
    def test_tail_is_the_last_tuples_in_store_order(self, company_db):
        """``(tuple id, values)`` pairs, read alike from unread and built
        rows, without building one."""
        unread = company_db.tail("EMPLOYEE", 99)
        assert built_rows(company_db) == set()
        everyone = [(t.tid, t.values) for t in company_db.tuples("EMPLOYEE")]
        assert unread == everyone
        assert company_db.tail("EMPLOYEE", 2) == everyone[-2:]
        assert company_db.tail("EMPLOYEE", 0) == []
        assert company_db.tail("EMPLOYEE", 99) == everyone
        with pytest.raises(UnknownRelationError):
            company_db.tail("NOPE", 1)


class TestDeferredIntegrity:
    def test_deferred_mode_allows_forward_references(self, db_schema):
        database = Database(db_schema, enforce_foreign_keys=False)
        database.insert(
            "EMPLOYEE", {"SSN": "e1", "L_NAME": "A", "S_NAME": "B", "D_ID": "d1"}
        )
        database.insert("DEPARTMENT", {"ID": "d1"})
        database.check_integrity()

    def test_check_integrity_catches_dangling(self, db_schema):
        database = Database(db_schema, enforce_foreign_keys=False)
        database.insert(
            "EMPLOYEE", {"SSN": "e1", "L_NAME": "A", "S_NAME": "B", "D_ID": "d9"}
        )
        with pytest.raises(ForeignKeyError):
            database.check_integrity()

    def test_company_instance_is_consistent(self, company_db):
        company_db.check_integrity()


class TestTupleClass:
    def test_equality_by_tid(self, company_db):
        first = company_db.get("EMPLOYEE", "e1")
        second = company_db.tuple(TupleId("EMPLOYEE", ("e1",)))
        assert first == second
        assert hash(first) == hash(second)

    def test_getitem_and_get(self, company_db):
        record = company_db.get("EMPLOYEE", "e1")
        assert record["L_NAME"] == "Smith"
        assert record.get("MISSING", "default") == "default"

    def test_tid_str(self):
        assert str(TupleId("EMPLOYEE", ("e1",))) == "EMPLOYEE(e1)"
        assert str(TupleId("WORKS_FOR", ("e1", "p1"))) == "WORKS_FOR(e1,p1)"


_IDS = [("EMPLOYEE", ("e1",)), ("WORKS_FOR", ("e1", "p1")), ("BOOK", (7, 2.5, True))]


def _hashes_in_child(blob):
    """Runs in a spawned child: hash the shipped ids and look them up in
    a table of ids the child builds itself."""
    shipped = pickle.loads(blob)
    local = {TupleId(relation, key): at for at, (relation, key) in enumerate(_IDS)}
    return (
        [hash(tid) for tid in shipped],
        [hash(TupleId(relation, key)) for relation, key in _IDS],
        [local.get(tid) for tid in shipped],
        hash("hash seed probe"),
    )


class TestTupleIdHashOnce:
    def test_str_repr_equality_and_hash_unchanged(self):
        tid = TupleId("WORKS_FOR", ("e1", "p1"))
        assert repr(tid) == "TupleId(relation='WORKS_FOR', key=('e1', 'p1'))"
        assert str(tid) == "WORKS_FOR(e1,p1)"
        assert tid == TupleId("WORKS_FOR", ("e1", "p1"))
        assert tid != TupleId("WORKS_FOR", ("e1", "p2"))
        assert tid != ("WORKS_FOR", ("e1", "p1"))
        # The value the dataclass hashed to: set and dict orders stay put.
        assert hash(tid) == hash(("WORKS_FOR", ("e1", "p1")))
        assert not hasattr(tid, "__dict__")
        with pytest.raises(AttributeError):
            tid.key = ("e2", "p1")

    def test_the_hash_is_never_pickled(self):
        tid = TupleId("EMPLOYEE", ("e1",))
        hash(tid)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert tid.__reduce_ex__(protocol) == (TupleId, ("EMPLOYEE", ("e1",)))
            restored = pickle.loads(pickle.dumps(tid, protocol))
            assert restored == tid and restored._hash is None  # rebuilt lazily
        assert copy.deepcopy(tid) == tid == copy.copy(tid)

    def test_unpickled_ids_hash_like_local_ones_under_another_seed(
        self, monkeypatch
    ):
        seed = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "8"
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        shipped = [TupleId(relation, key) for relation, key in _IDS]
        here = [hash(tid) for tid in shipped]  # computed, then shipped
        blob = pickle.dumps(shipped, pickle.HIGHEST_PROTOCOL)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            hashed, built, found, probe = pool.apply(_hashes_in_child, (blob,))
        assert probe != hash("hash seed probe"), "child ran under the same seed"
        assert hashed == built != here
        assert found == list(range(len(_IDS)))


class TestUpdate:
    def test_update_changes_values_in_place(self, company_db):
        tid = TupleId("DEPARTMENT", ("d1",))
        record = company_db.tuple(tid)
        company_db.update(tid, {"D_DESCRIPTION": "robotics"})
        assert record["D_DESCRIPTION"] == "robotics"
        assert company_db.tuple(tid) is record

    def test_update_rejects_unknown_attribute(self, company_db):
        with pytest.raises(UnknownAttributeError):
            company_db.update(
                TupleId("DEPARTMENT", ("d1",)), {"NO_SUCH": 1}
            )

    def test_update_rejects_pk_change(self, company_db):
        with pytest.raises(PrimaryKeyError):
            company_db.update(TupleId("DEPARTMENT", ("d1",)), {"ID": "d9"})

    def test_update_allows_equal_pk_value(self, company_db):
        company_db.update(
            TupleId("DEPARTMENT", ("d1",)),
            {"ID": "d1", "D_DESCRIPTION": "same key"},
        )

    def test_update_of_a_missing_tuple_raises(self, company_db):
        with pytest.raises(IntegrityError, match="no such tuple"):
            company_db.update(
                TupleId("DEPARTMENT", ("d99",)), {"D_NAME": "ghost"}
            )

    def test_update_validates_changed_foreign_keys(self, company_db):
        with pytest.raises(ForeignKeyError):
            company_db.update(TupleId("DEPENDENT", ("t1",)), {"ESSN": "e99"})

    def test_delete_referenced_error_is_clear(self, company_db):
        with pytest.raises(IntegrityError, match="still referenced") as exc:
            company_db.delete(TupleId("EMPLOYEE", ("e1",)))
        # The message names the victim and (some of) its referencers, so
        # the caller can resolve the conflict instead of corrupting the
        # graph by forcing the delete.
        assert "e1" in str(exc.value)
        assert company_db.get("EMPLOYEE", "e1") is not None
