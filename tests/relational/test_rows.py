"""A relation holds its rows as columns, and only a read builds one.

``Database.insert`` appends a row to its relation's columns and stores
the row number under its key; a ``Tuple`` exists once a caller reads the
row.  The cold build (posting scan, first CSR compile, deferred
integrity check) reads the columns, and answers render through
``Database.label``.
"""

from collections import Counter

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.errors import (
    ForeignKeyError,
    IntegrityError,
    PrimaryKeyError,
    UnknownRelationError,
)
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.relational.database import TupleId
from stored_rows import bib_corpus, built_rows, contents

LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ("Smith XML", "Alice XML", "Smith", "Nora Smith")
NORA = TupleId("DEPENDENT", ("t9",))


def rendered(engine):
    return {
        query: [(r.render(), r.score) for r in engine.search(query, limits=LIMITS)]
        for query in QUERIES
    }


class TestColdBuildBuildsNoRow:
    def test_construction_compile_integrity_and_searches(self):
        bib = bib_corpus()
        database = bib.database()  # inserts, then check_integrity()
        assert built_rows(database) == set()
        engine = KeywordSearchEngine(database)
        engine.traversal_cache.frozen()  # the first compile
        database.check_integrity()
        answers = [engine.search(text, top_k=10) for text in bib.texts(10)]
        assert any(answers)
        assert all(result.render() for results in answers for result in results)
        assert built_rows(database) == set()

    def test_scan_and_compile_share_the_databases_tuple_ids(self):
        database = build_company_database()
        engine = KeywordSearchEngine(database)
        frozen = engine.traversal_cache.frozen()
        ids = {id(tid) for tid in database.rows("EMPLOYEE")[1]}
        scanned = {id(tid) for tid in engine.index._postings._columns.tid_of}
        compiled = {id(tid) for tid in frozen._tid_of}
        assert ids <= scanned and ids <= compiled


class TestInsertedRows:
    @pytest.mark.parametrize("label", [None, "nora"])
    def test_a_read_equals_what_was_inserted(self, label):
        database = build_company_database()
        record = database.insert(
            "DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"},
            label=label,
        )
        assert built_rows(database) == set()
        assert database.label(NORA) == record.label == (label or "t9")
        assert built_rows(database) == set()
        read = database.tuple(NORA)
        assert read is not record
        assert read.values == record.values
        assert read.label == record.label
        assert read.tid == record.tid
        assert database.tuple(NORA) is read  # written back once built

    def test_the_returned_record_is_a_copy(self):
        database = build_company_database()
        record = database.insert(
            "DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}
        )
        record.values["DEPENDENT_NAME"] = "Changed"
        record.values["ESSN"] = "e2"
        read = database.tuple(NORA)
        assert read is not record
        assert read.values == {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}
        counts = database._references(
            database.schema.foreign_key("fk_dependent_employee")
        )
        assert counts[("e1",)] == 1 and counts.get(("e2",), 0) == 0

    def test_label_of_an_absent_tuple_raises_like_a_read(self):
        database = build_company_database()
        with pytest.raises(IntegrityError):
            database.label(NORA)


def _batches(database):
    """Mutation batches on one target row, by kind: the rollback batch
    deletes it, then fails on a dangling reference."""
    target = TupleId("DEPENDENT", ("t1",))
    return target, {
        "update": [Update(target, {"DEPENDENT_NAME": "Nora"})],
        "delete": [Delete(target)],
        "delete and re-insert": [
            Delete(target),
            Insert("DEPENDENT", {"ID": "t1", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}),
        ],
        "rollback": [
            Delete(target),
            Insert("DEPENDENT", {"ID": "t8", "ESSN": "e99", "DEPENDENT_NAME": "X"}),
        ],
    }


class TestUnreadRowsBehaveAsBuiltOnes:
    """``update``, ``delete`` and a rolled-back batch on a row still held
    as columns leave what they leave on the same row read first."""

    @pytest.mark.parametrize(
        "kind", ["update", "delete", "delete and re-insert", "rollback"]
    )
    def test_same_state_read_or_unread(self, kind):
        states = []
        for read_first in (False, True):
            database = build_company_database()
            target, batches = _batches(database)
            before = contents(database)
            if read_first:
                database.tuple(target)
            else:
                assert (target.relation, target.key) not in built_rows(database)
            if kind == "rollback":
                with pytest.raises(ForeignKeyError):
                    apply_to_database(database, batches[kind])
                assert contents(database) == before  # store order put back
            else:
                apply_to_database(database, batches[kind])
            counts = database._references(
                database.schema.foreign_key("fk_dependent_employee")
            )
            states.append((contents(database), dict(counts)))
        assert states[0] == states[1]

    def test_undo_puts_back_store_order_without_building_rows(self):
        database = build_company_database()
        __, batches = _batches(database)
        order = database.relation_key_order("DEPENDENT")
        with pytest.raises(ForeignKeyError):
            apply_to_database(database, batches["rollback"])
        assert database.relation_key_order("DEPENDENT") == order
        assert not {key for name, key in built_rows(database) if name == "DEPENDENT"}


    @pytest.mark.parametrize("read_first", [False, True])
    def test_a_rolled_back_delete_adds_no_labels_column(self, read_first):
        database = build_company_database()
        target, batches = _batches(database)
        assert database._columns["DEPENDENT"].labels is None
        if read_first:
            database.tuple(target)
        with pytest.raises(ForeignKeyError):
            apply_to_database(database, batches["rollback"])
        assert database._columns["DEPENDENT"].labels is None
        assert database.label(target) == "t1"


T1 = TupleId("DEPENDENT", ("t1",))
T1_VALUES = {"ID": "t1", "ESSN": "e3", "DEPENDENT_NAME": "Alice"}
BUILT = pytest.mark.parametrize("built", [False, True], ids=["unread", "built"])


def _company(built):
    """Figure 2's instance with ``T1`` unread, or read into its Tuple."""
    database = build_company_database()
    if built:
        database.tuple(T1)
    assert ((T1.relation, T1.key) in built_rows(database)) is built
    return database


class TestColumnarReads:
    """``values``, ``labels``, ``tail``, ``update`` and ``referenced_id``
    read and write an unread row in its columns and a read one in its
    ``Tuple`` alike, and build no row."""

    @BUILT
    def test_values_are_a_copy_read_without_building(self, built):
        database = _company(built)
        before = built_rows(database)
        values = database.values(T1)
        assert values == T1_VALUES
        assert built_rows(database) == before
        values["DEPENDENT_NAME"] = "Changed"
        assert database.values(T1) == T1_VALUES
        assert database.values(T1) is not database.values(T1)
        assert database.tuple(T1).values == T1_VALUES

    @pytest.mark.parametrize("tid, error", [
        (TupleId("DEPENDENT", ("t9",)), IntegrityError),
        (TupleId("NOPE", ("t1",)), UnknownRelationError),
    ], ids=["absent key", "unknown relation"])
    def test_values_of_what_is_not_stored_raise_like_a_read(self, tid, error):
        database = build_company_database()
        for read in (database.values, database.tuple, database.label):
            with pytest.raises(error):
                read(tid)

    @BUILT
    def test_update_writes_where_the_row_is_held(self, built):
        database = _company(built)
        before = built_rows(database)
        assert database.update(T1, {"DEPENDENT_NAME": "Nora"}) is None
        assert built_rows(database) == before
        assert database.values(T1) == dict(T1_VALUES, DEPENDENT_NAME="Nora")
        assert database.rows("DEPENDENT")[2]["DEPENDENT_NAME"] == ["Nora", "Theodore"]
        assert database.tuple(T1).values == dict(T1_VALUES, DEPENDENT_NAME="Nora")

    @BUILT
    def test_update_moves_the_reference_counts(self, built):
        database = _company(built)
        foreign_key = database.schema.foreign_key("fk_dependent_employee")
        counts = database._references(foreign_key)  # kept current from here
        database.update(T1, {"ESSN": "e1"})
        held = Counter((essn,) for essn in database.rows("DEPENDENT")[2]["ESSN"])
        assert held == Counter({("e1",): 1, ("e3",): 1})
        assert {key: n for key, n in counts.items() if n} == held
        database.enforce_foreign_keys = True
        database.delete(TupleId("DEPENDENT", ("t2",)))
        assert {key: n for key, n in counts.items() if n} == {("e1",): 1}

    @BUILT
    @pytest.mark.parametrize("change, error", [
        ({"ID": "t7"}, PrimaryKeyError),
        ({"ESSN": "e99"}, ForeignKeyError),
    ], ids=["key change", "dangling reference"])
    def test_a_refused_update_leaves_the_row_as_it_was(self, built, change, error):
        database = _company(built)
        database.enforce_foreign_keys = True
        with pytest.raises(error):
            database.update(T1, change)
        assert database.values(T1) == T1_VALUES
        assert contents(database) == contents(build_company_database())

    @pytest.mark.parametrize("case", [
        "none given", "one given", "the key's rendering", "read rows", "deleted rows",
    ])
    def test_labels_hold_none_where_the_label_is_the_keys_rendering(self, case):
        database = build_company_database()

        def insert(key, label):
            database.insert(
                "DEPENDENT", {"ID": key, "ESSN": "e1", "DEPENDENT_NAME": "N"},
                label=label,
            )

        expected = [None, None, "nora"]
        if case == "none given":
            insert("t9", None)
            expected = None
        elif case == "one given":
            insert("t9", "nora")
        elif case == "the key's rendering":
            insert("t9", "t9")
            expected = None
        elif case == "read rows":
            insert("t9", "nora")
            database.tuple(T1)
            database.tuple(NORA)
        else:
            insert("t8", "gone")
            insert("t9", "nora")
            database.delete(TupleId("DEPENDENT", ("t8",)))
        before = built_rows(database)
        assert database.labels("DEPENDENT") == expected
        assert built_rows(database) == before
        assert database.label(NORA) == ("t9" if expected is None else "nora")
        assert database.labels("EMPLOYEE") is None

    def test_tail_reads_unread_and_built_rows_alike(self):
        database = build_company_database()
        database.insert("DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})
        t2 = TupleId("DEPENDENT", ("t2",))
        database.tuple(t2)
        before = built_rows(database)
        tail = database.tail("DEPENDENT", 2)
        assert tail == [
            (t2, {"ID": "t2", "ESSN": "e3", "DEPENDENT_NAME": "Theodore"}),
            (NORA, {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"}),
        ]
        assert built_rows(database) == before
        for __, values in tail:
            values["DEPENDENT_NAME"] = "Changed"
        assert database.values(t2)["DEPENDENT_NAME"] == "Theodore"
        assert database.values(NORA)["DEPENDENT_NAME"] == "Nora"

    @pytest.mark.parametrize(
        "case", ["unread target", "read target", "null", "dangling"]
    )
    def test_referenced_id_builds_no_row(self, case):
        database = build_company_database()
        foreign_key = database.schema.foreign_key("fk_dependent_employee")
        e3 = TupleId("EMPLOYEE", ("e3",))
        essn, expected = {
            "unread target": ("e3", e3), "read target": ("e3", e3),
            "null": (None, None), "dangling": ("e99", None),
        }[case]
        if case == "read target":
            database.tuple(e3)
        before = built_rows(database)
        values = {"ID": "t9", "ESSN": essn, "DEPENDENT_NAME": "Nora"}
        assert database.referenced_id(values, foreign_key) == expected
        assert built_rows(database) == before


class TestChurn:
    def test_insert_delete_cycles_hold_no_dead_values(self):
        database = build_company_database()
        engine = KeywordSearchEngine(database)
        live = database.count("DEPENDENT")
        rows = lambda: len(database._columns["DEPENDENT"].keys)
        for cycle in range(20_000):
            engine.apply([Insert("DEPENDENT", {
                "ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": f"Nora{cycle % 3}",
            })])
            assert rows() <= 2 * (live + 1) + 1
            engine.apply([Delete(NORA)])
            assert rows() <= 2 * live + 1
        engine.apply([Insert("DEPENDENT",
                             {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})])
        rebuilt = build_company_database()
        rebuilt.insert("DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Nora"})
        assert contents(database) == contents(rebuilt)
        assert rendered(engine) == rendered(KeywordSearchEngine(rebuilt))
