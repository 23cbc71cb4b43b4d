"""A relation holds its rows as columns, and only a read builds one.

``Database.insert`` appends a row to its relation's columns and stores
the row number under its key; a ``Tuple`` exists once a caller reads the
row.  The cold build (posting scan, first CSR compile, deferred
integrity check) reads the columns, and answers render through
``Database.label``.
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.errors import ForeignKeyError, IntegrityError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.relational.database import TupleId
from stored_rows import bib_corpus, built_rows

LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ("Smith XML", "Alice XML", "Smith", "Nora Smith")
NORA = TupleId("DEPENDENT", ("t9",))


def contents(database):
    """Per relation, in store order: key, values and label of each row,
    read without building one."""
    state = {}
    for relation in database.schema.relations:
        keys, tids, columns = database.rows(relation.name)
        names = relation.attribute_names
        state[relation.name] = [
            (key, dict(zip(names, values)), database.label(tid))
            for key, tid, values in zip(
                keys, tids, zip(*[columns[name] for name in names])
            )
        ]
    return state


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
