"""Unit tests for the change-log / transaction layer."""

import json
import pickle

import pytest

from repro.errors import (
    ForeignKeyError,
    IntegrityError,
    MutationError,
    MutationFormatError,
    PrimaryKeyError,
    WalError,
)
from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import build_company_database
from repro.durable.wal import encode_record, replay_into
from repro.live.changes import (
    Delete,
    Insert,
    Update,
    apply_to_database,
    load_mutation_batches,
    mutation_from_json,
    mutation_to_json,
)
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


class TestApply:
    def test_insert_produces_tuple_and_edge(self, company_db):
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Nora"})],
        )
        assert changeset.tuples_added == (tid("DEPENDENT", "t9"),)
        assert len(changeset.edges_added) == 1
        edge = changeset.edges_added[0]
        assert edge.referencing == tid("DEPENDENT", "t9")
        assert edge.referenced == tid("EMPLOYEE", "e1")

    def test_delete_produces_removed_edge(self, company_db):
        changeset = apply_to_database(
            company_db, [Delete(tid("DEPENDENT", "t1"))]
        )
        assert changeset.tuples_removed == (tid("DEPENDENT", "t1"),)
        assert [e.referenced for e in changeset.edges_removed] == [
            tid("EMPLOYEE", "e3")
        ]

    def test_update_fk_column_swaps_edge(self, company_db):
        changeset = apply_to_database(
            company_db, [Update(tid("DEPENDENT", "t1"), {"ESSN": "e2"})]
        )
        assert changeset.tuples_updated == (tid("DEPENDENT", "t1"),)
        assert [e.referenced for e in changeset.edges_removed] == [
            tid("EMPLOYEE", "e3")
        ]
        assert [e.referenced for e in changeset.edges_added] == [
            tid("EMPLOYEE", "e2")
        ]

    def test_value_update_has_no_edge_delta(self, company_db):
        changeset = apply_to_database(
            company_db,
            [Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "robotics"})],
        )
        assert changeset.edges_added == ()
        assert changeset.edges_removed == ()

    def test_insert_then_delete_nets_to_nothing(self, company_db):
        before = company_db.count()
        changeset = apply_to_database(
            company_db,
            [
                Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                     "DEPENDENT_NAME": "Nora"}),
                Delete(tid("DEPENDENT", "t9")),
            ],
        )
        assert changeset.is_empty()
        assert company_db.count() == before

    def test_delete_then_reinsert_nets_to_update(self, company_db):
        changeset = apply_to_database(
            company_db,
            [
                Delete(tid("DEPENDENT", "t1")),
                Insert("DEPENDENT", {"ID": "t1", "ESSN": "e2",
                                     "DEPENDENT_NAME": "Renamed"}),
            ],
        )
        assert changeset.tuples_added == ()
        assert changeset.tuples_removed == ()
        assert changeset.tuples_updated == ()
        assert changeset.tuples_replaced == (tid("DEPENDENT", "t1"),)
        # The edge moved from e3 to e2.
        assert [e.referenced for e in changeset.edges_removed] == [
            tid("EMPLOYEE", "e3")
        ]
        assert [e.referenced for e in changeset.edges_added] == [
            tid("EMPLOYEE", "e2")
        ]


class TestValidationAndRollback:
    def test_dangling_insert_rejected(self, company_db):
        with pytest.raises(ForeignKeyError):
            apply_to_database(
                company_db,
                [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e99",
                                      "DEPENDENT_NAME": "Nora"})],
            )

    def test_validates_even_when_enforcement_is_off(self, company_db):
        company_db.enforce_foreign_keys = False
        with pytest.raises(ForeignKeyError):
            apply_to_database(
                company_db,
                [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e99",
                                      "DEPENDENT_NAME": "Nora"})],
            )
        assert company_db.enforce_foreign_keys is False

    def test_delete_of_referenced_tuple_rejected(self, company_db):
        with pytest.raises(IntegrityError, match="still referenced"):
            apply_to_database(company_db, [Delete(tid("EMPLOYEE", "e1"))])

    def test_failed_batch_rolls_back_completely(self, company_db):
        before = {record.tid: dict(record.values)
                  for record in company_db.all_tuples()}
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db,
                [
                    Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Nora"}),
                    Update(tid("DEPARTMENT", "d1"),
                           {"D_DESCRIPTION": "changed"}),
                    Delete(tid("DEPENDENT", "t2")),
                    # Fails: duplicate primary key.
                    Insert("DEPENDENT", {"ID": "t1", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Dup"}),
                ],
            )
        after = {record.tid: dict(record.values)
                 for record in company_db.all_tuples()}
        assert after == before

    def test_rollback_restores_updated_values(self, company_db):
        original = dict(company_db.tuple(tid("DEPARTMENT", "d1")).values)
        with pytest.raises(IntegrityError):
            apply_to_database(
                company_db,
                [
                    Update(tid("DEPARTMENT", "d1"),
                           {"D_DESCRIPTION": "changed"}),
                    Delete(tid("EMPLOYEE", "e1")),  # referenced -> fails
                ],
            )
        assert dict(company_db.tuple(tid("DEPARTMENT", "d1")).values) == original

    def test_rollback_restores_store_order(self, company_db):
        before = [record.tid for record in company_db.all_tuples()]
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db,
                [
                    Delete(tid("DEPENDENT", "t1")),  # mid-store delete
                    # Fails: duplicate primary key.
                    Insert("DEPENDENT", {"ID": "t2", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Dup"}),
                ],
            )
        # Not just the same tuple set — the same store *order*: posting
        # order and answer enumeration observe it.
        assert [record.tid for record in company_db.all_tuples()] == before

    @pytest.mark.parametrize(
        "deletes",
        [
            # Head (its walk passes half: the whole order is captured),
            # middle and tail, in either order.
            [("DEPENDENT", "t1"), ("DEPENDENT", "t6"), ("DEPENDENT", "t10")],
            [("DEPENDENT", "t10"), ("DEPENDENT", "t6"), ("DEPENDENT", "t1")],
            # Walks that stay short: only the keys after each are kept.
            [("DEPENDENT", "t7"), ("DEPENDENT", "t9"), ("DEPENDENT", "t8")],
            # Two relations.
            [("DEPENDENT", "t8"), ("WORKS_FOR", "e2", "p3"),
             ("DEPENDENT", "t4"), ("WORKS_FOR", "e1", "p1")],
        ],
    )
    def test_rollback_restores_store_order_of_several_deletes(
        self, company_db, deletes
    ):
        apply_to_database(company_db, [
            Insert("DEPENDENT", {"ID": f"t{n}", "ESSN": "e2",
                                 "DEPENDENT_NAME": f"Kid{n}"})
            for n in range(3, 11)
        ])
        before = [record.tid for record in company_db.all_tuples()]
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db,
                [Delete(tid(*victim)) for victim in deletes]
                + [Insert("DEPENDENT", {"ID": "t2", "ESSN": "e1",
                                        "DEPENDENT_NAME": "Dup"})],
            )
        assert [record.tid for record in company_db.all_tuples()] == before

    def test_rollback_restores_store_order_after_a_reinsert(self, company_db):
        apply_to_database(company_db, [
            Insert("DEPENDENT", {"ID": f"t{n}", "ESSN": "e2",
                                 "DEPENDENT_NAME": f"Kid{n}"})
            for n in range(3, 7)
        ])
        before = [record.tid for record in company_db.all_tuples()]
        kept = company_db.tuple(tid("DEPENDENT", "t5"))
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db,
                [
                    Delete(kept.tid),
                    # The same key again, now at the store tail.
                    Insert("DEPENDENT", dict(kept.values), kept.label),
                    Delete(tid("DEPENDENT", "t4")),
                    Insert("DEPENDENT", {"ID": "t2", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Dup"}),
                ],
            )
        assert [record.tid for record in company_db.all_tuples()] == before

    def test_live_index_still_fresh_after_failed_batch(self, company_db):
        from repro.live.maintain import apply_to_index
        from repro.relational.index import InvertedIndex

        index = InvertedIndex(company_db)
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db,
                [
                    Delete(tid("DEPENDENT", "t1")),
                    Insert("DEPENDENT", {"ID": "t2", "ESSN": "e1",
                                         "DEPENDENT_NAME": "Dup"}),
                ],
            )
        changeset = apply_to_database(
            company_db,
            [Insert("DEPENDENT", {"ID": "t9", "ESSN": "e3",
                                  "DEPENDENT_NAME": "Nora"})],
        )
        apply_to_index(index, company_db, changeset)
        fresh = InvertedIndex(company_db)
        assert index.vocabulary() == fresh.vocabulary()
        for token in fresh.vocabulary():
            assert index.postings(token) == fresh.postings(token), token

    def test_pk_update_rejected(self, company_db):
        with pytest.raises(PrimaryKeyError):
            apply_to_database(
                company_db, [Update(tid("DEPARTMENT", "d1"), {"ID": "d9"})]
            )

    def test_unknown_mutation_type_rejected(self, company_db):
        with pytest.raises(MutationError):
            apply_to_database(company_db, ["not a mutation"])


class TestReplayFormat:
    def test_json_round_trip(self):
        insert = mutation_from_json(
            {"op": "insert", "relation": "DEPENDENT",
             "values": {"ID": "t9"}, "label": "t9"}
        )
        assert insert == Insert("DEPENDENT", {"ID": "t9"}, "t9")
        update = mutation_from_json(
            {"op": "update", "relation": "DEPARTMENT", "key": ["d1"],
             "values": {"D_DESCRIPTION": "x"}}
        )
        assert update == Update(tid("DEPARTMENT", "d1"),
                                {"D_DESCRIPTION": "x"})
        delete = mutation_from_json(
            {"op": "delete", "relation": "DEPENDENT", "key": ["t1"]}
        )
        assert delete == Delete(tid("DEPENDENT", "t1"))

    def test_unknown_op_rejected(self):
        with pytest.raises(MutationError):
            mutation_from_json({"op": "upsert"})

    def test_flat_file_becomes_one_batch(self, tmp_path):
        path = tmp_path / "muts.json"
        path.write_text(
            '[{"op": "delete", "relation": "DEPENDENT", "key": ["t1"]}]'
        )
        batches = load_mutation_batches(str(path))
        assert batches == [[Delete(tid("DEPENDENT", "t1"))]]

    def test_malformed_batch_shape_rejected(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text('[{"op": "delete", "relation": "DEPENDENT", '
                        '"key": ["t1"]}, [1, 2]]')
        with pytest.raises(MutationError, match="batch"):
            load_mutation_batches(str(path))

    def test_missing_fields_rejected_with_context(self):
        with pytest.raises(MutationError, match="malformed"):
            mutation_from_json({"op": "update", "relation": "DEPARTMENT"})
        with pytest.raises(MutationError, match="malformed"):
            mutation_from_json({"op": "delete", "relation": "X", "key": 3})

    def test_rollback_survives_dangling_fk_on_unenforced_database(
        self, db_schema
    ):
        from repro.relational.database import Database

        database = Database(db_schema, enforce_foreign_keys=False)
        # Legal in bulk-load mode: a dependent whose employee FK dangles.
        database.insert("DEPENDENT", {"ID": "dx", "ESSN": "e99",
                                      "DEPENDENT_NAME": "Nora"})
        before = {record.tid: dict(record.values)
                  for record in database.all_tuples()}
        with pytest.raises(IntegrityError):
            apply_to_database(
                database,
                [
                    Delete(tid("DEPENDENT", "dx")),
                    Delete(tid("DEPENDENT", "dx")),  # fails: already gone
                ],
            )
        # The rollback re-insert of dx must not be re-validated (its
        # dangling FK was legal) — the tuple is restored, not lost.
        after = {record.tid: dict(record.values)
                 for record in database.all_tuples()}
        assert after == before
        assert database.enforce_foreign_keys is False


def rows_of(database):
    """Every relation's rows with labels, in store order."""
    return {
        name: [
            (key, dict(database.tuple(TupleId(name, key)).values),
             database.tuple(TupleId(name, key)).label)
            for key in database.relation_key_order(name)
        ]
        for name in sorted(r.name for r in database.schema.relations)
    }


class TestWalRecordCodec:
    """A WAL record is ``{"version", "mutations"}``: the batch in the JSON
    form ``mutation_from_json`` reads, replayed by ``replay_into`` as one
    validated ``apply_to_database``."""

    @staticmethod
    def _replay(records, engine=None):
        """``engine`` (a fresh company engine by default) after replaying
        ``records``, JSON-decoded like a scan of the log."""
        engine = engine or KeywordSearchEngine(build_company_database())
        replay_into(
            engine,
            [(slot, json.loads(record)) for slot, record in enumerate(records)],
            "log",
        )
        return engine

    def _refused(self, records, match):
        """Replaying ``records`` raises ``WalError`` and leaves the
        engine's database and version as they were."""
        engine = KeywordSearchEngine(build_company_database())
        before = rows_of(engine.database)
        with pytest.raises(WalError, match=match) as info:
            self._replay(records, engine)
        assert engine.version == 0
        assert rows_of(engine.database) == before
        return info.value

    def test_round_trip_applies_identically(self, company_db):
        batch = [
            Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                 "DEPENDENT_NAME": "Nora"}, label="nora"),
            Update(tid("DEPARTMENT", "d1"), {"D_DESCRIPTION": "new words"}),
            Delete(tid("DEPENDENT", "t2")),
        ]
        record = json.loads(encode_record(1, batch))
        assert record["version"] == 1
        assert [mutation_from_json(m) for m in record["mutations"]] == batch
        assert "label" not in mutation_to_json(
            Insert("DEPENDENT", {"ID": "t9"})
        )

        apply_to_database(company_db, batch)
        replica = self._replay([encode_record(1, batch)])
        assert replica.version == 1
        assert rows_of(replica.database) == rows_of(company_db)
        assert replica.database.enforce_foreign_keys is True

    def test_replaced_rows_keep_their_tail_position(self, company_db):
        # Delete + re-insert of t1 moves the row to the store tail,
        # behind the genuinely new t9 — in one batch and across two.
        batches = [
            [Delete(tid("DEPENDENT", "t1")),
             Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                  "DEPENDENT_NAME": "Nora"})],
            [Insert("DEPENDENT", {"ID": "t1", "ESSN": "e2",
                                  "DEPENDENT_NAME": "Alice II"})],
        ]
        for batch in batches:
            apply_to_database(company_db, batch)
        replica = self._replay(
            [encode_record(v, batch) for v, batch in enumerate(batches, 1)]
        )
        assert replica.version == 2
        assert rows_of(replica.database) == rows_of(company_db)
        assert company_db.relation_key_order("DEPENDENT")[-2:] == (
            ("t9",), ("t1",)
        )

    def test_unknown_foreign_key_refused(self, company_db):
        """A CRC-valid record whose insert names a key its foreign key
        does not know is refused by the validated replay."""
        good = encode_record(1, [Update(tid("DEPARTMENT", "d1"),
                                        {"D_DESCRIPTION": "words"})])
        hostile = encode_record(2, [Insert(
            "DEPENDENT",
            {"ID": "t9", "ESSN": "e99", "DEPENDENT_NAME": "Nora"},
        )])
        error = self._refused([good, hostile], "do not apply")
        assert "ForeignKeyError" in error.context["problem"]

    def test_malformed_record_refused(self):
        malformed = (
            {"version": 1},
            {"version": 1, "mutations": {"op": "delete"}},
            {"version": 1, "mutations": ["delete"]},
            {"version": 1, "mutations": [{"op": "upsert"}]},
            {"version": 1, "mutations": [
                {"op": "insert", "relation": "DEPENDENT", "values": {},
                 "label": ["not", "text"]}]},
        )
        for record in malformed:
            self._refused([json.dumps(record)], "malformed WAL record")
        self._refused(
            [encode_record(1, []), encode_record(3, [])], "does not follow"
        )
        for record in ([], {"version": True, "mutations": []}):
            self._refused([json.dumps(record)], "does not follow")

    def test_record_refusing_database_raises_wal_error(self, company_db):
        records = [
            encode_record(1, [Delete(tid("DEPENDENT", "t2"))]),
            encode_record(2, [Delete(tid("DEPENDENT", "never-there"))]),
        ]
        self._refused(records, "do not apply")

    def test_unencodable_batch_refused_before_it_applies(self):
        with pytest.raises(MutationFormatError, match="cannot be logged"):
            encode_record(1, [Insert("DEPENDENT", {"ID": "t9"}, label=b"x")])
        with pytest.raises(MutationError, match="unknown mutation type"):
            encode_record(1, ["not a mutation"])


class TestMutationFormatErrorContext:
    def test_bad_json_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('[\n  {"op": "delete",\n')
        with pytest.raises(MutationFormatError) as info:
            load_mutation_batches(str(path))
        context = info.value.context
        assert context["path"] == str(path)
        assert context["line"] == 3
        assert isinstance(context["column"], int)
        assert isinstance(context["offset"], int)
        assert str(path) in str(info.value)

    def test_bad_shape_carries_batch_index(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text('[[{"op": "delete", "relation": "DEPENDENT", '
                        '"key": ["t1"]}], "not-a-batch"]')
        with pytest.raises(MutationFormatError) as info:
            load_mutation_batches(str(path))
        assert info.value.context["batch"] == 1
        assert info.value.context["path"] == str(path)

    def test_bad_record_carries_batch_and_record_indices(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(
            '[[{"op": "delete", "relation": "DEPENDENT", "key": ["t1"]}],'
            ' [{"op": "delete", "relation": "DEPENDENT", "key": ["t2"]},'
            '  {"op": "update", "relation": "DEPARTMENT"}]]'
        )
        with pytest.raises(MutationFormatError) as info:
            load_mutation_batches(str(path))
        context = info.value.context
        assert context["batch"] == 1
        assert context["record"] == 1
        assert context["path"] == str(path)

    def test_pickle_round_trip_preserves_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(MutationFormatError) as info:
            load_mutation_batches(str(path))
        clone = pickle.loads(pickle.dumps(info.value))
        assert type(clone) is MutationFormatError
        assert clone.context == info.value.context
        assert str(clone) == str(info.value)
