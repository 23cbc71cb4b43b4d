"""Property-based tests for the relational substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PrimaryKeyError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.relational.database import Database
from repro.relational.index import InvertedIndex, tokenize
from repro.relational.io import database_from_dict, database_to_dict
from repro.relational.schema import AttributeDef, DatabaseSchema, Relation

identifiers = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
words = st.text(alphabet=string.ascii_letters + string.digits, min_size=1,
                max_size=12)
sentences = st.lists(words, min_size=0, max_size=6).map(" ".join)


def fresh_database():
    schema = DatabaseSchema(
        name="prop",
        relations=[
            Relation(
                "DOC",
                [AttributeDef("ID"), AttributeDef("BODY", data_type="text")],
                primary_key=["ID"],
            )
        ],
    )
    return Database(schema)


class TestTokenizer:
    @given(sentences)
    def test_tokens_are_lowercase(self, text):
        assert all(token == token.lower() for token in tokenize(text))

    @given(sentences)
    def test_tokens_appear_in_text(self, text):
        lowered = text.lower()
        for token in tokenize(text):
            assert token in lowered

    @given(words)
    def test_single_word_tokenises_to_itself(self, word):
        tokens = tokenize(word)
        assert word.lower() in tokens

    @given(sentences)
    def test_tokenisation_is_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestIndexConsistency:
    @given(st.lists(st.tuples(identifiers, sentences), max_size=12,
                    unique_by=lambda pair: pair[0]))
    def test_index_matches_scan(self, rows):
        database = fresh_database()
        for identifier, body in rows:
            database.insert("DOC", {"ID": identifier, "BODY": body})
        index = InvertedIndex(database)
        for identifier, body in rows:
            for token in tokenize(body):
                matched = set(index.matching_tuples(token))
                scanned = {
                    record.tid
                    for record in database.tuples("DOC")
                    if token in tokenize(str(record["BODY"]))
                    or token == str(record["ID"]).lower()
                }
                assert matched == scanned

    @given(st.lists(st.tuples(identifiers, sentences), min_size=1, max_size=8,
                    unique_by=lambda pair: pair[0]))
    def test_remove_then_rebuild_equals_fresh(self, rows):
        database = fresh_database()
        records = [
            database.insert("DOC", {"ID": identifier, "BODY": body})
            for identifier, body in rows
        ]
        index = InvertedIndex(database)
        index.remove_tuple(records[0].tid)
        database.delete(records[0].tid)
        index.build()
        fresh = InvertedIndex(database)
        assert index.vocabulary() == fresh.vocabulary()


#: Values with compounds, punctuation-only text, numbers and gaps.
values = st.one_of(
    st.none(), st.integers(-3, 40), st.text(alphabet="abAB xy-_.?19", max_size=12)
)


def two_relation_database():
    """DOC and TAG, so posting lists hold one block per relation."""
    schema = DatabaseSchema(
        name="prop2",
        relations=[
            Relation(
                "DOC",
                [AttributeDef("ID"), AttributeDef("TITLE"),
                 AttributeDef("BODY", data_type="text")],
                primary_key=["ID"],
            ),
            Relation(
                "TAG",
                [AttributeDef("ID"), AttributeDef("NAME")],
                primary_key=["ID"],
            ),
        ],
    )
    return Database(schema)


def row_values(relation, key, first, second):
    names = ["TITLE", "BODY"] if relation == "DOC" else ["NAME"]
    return {"ID": f"k{key}", **dict(zip(names, (first, second)))}


def assert_same_index(index, reference, database):
    """Every accessor of ``index`` agrees with ``reference``; lengths
    are read first, so a still-raw token is counted before it decodes."""
    vocabulary = reference.vocabulary()
    for token in vocabulary:
        assert index.posting_length(token) == reference.posting_length(token)
    for token in vocabulary:
        assert index.postings(token) == reference.postings(token), token
    assert index.vocabulary() == vocabulary
    for record in database.all_tuples():
        assert index.tokens_of(record.tid) == reference.tokens_of(record.tid)


class TestScannedEqualsGrown:
    """A scanned index (one pass over the store, postings decoded on
    first read) equals tuple-by-tuple ``add_tuple`` growth over the same
    store — built fresh, maintained through random changesets, and
    rebuilt in place after them."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["DOC", "TAG"]), st.integers(0, 9),
                      values, values),
            max_size=14,
            unique_by=lambda row: row[:2],
        ),
        data=st.data(),
    )
    def test_scan_equals_growth(self, rows, data):
        database = two_relation_database()
        grown = InvertedIndex(database)
        for relation, *row in rows:  # relations interleaved
            grown.add_tuple(database.insert(relation, row_values(relation, *row)))
        scanned = InvertedIndex(database)
        assert_same_index(scanned, grown, database)

        scanned = InvertedIndex(database)  # every token raw again
        for __ in range(data.draw(st.integers(1, 4), label="batches")):
            stored = list(database.all_tuples())
            batch = []
            for kind in data.draw(
                st.lists(st.sampled_from(["insert", "update", "delete"]),
                         min_size=1, max_size=4),
                label="kinds",
            ):
                if kind == "insert":
                    relation = data.draw(st.sampled_from(["DOC", "TAG"]))
                    batch.append(Insert(relation, row_values(
                        relation, data.draw(st.integers(10, 99)),
                        data.draw(values), data.draw(values),
                    )))
                elif stored:
                    record = data.draw(st.sampled_from(stored))
                    stored.remove(record)
                    if kind == "delete":
                        batch.append(Delete(record.tid))
                    else:
                        name = "TITLE" if record.relation == "DOC" else "NAME"
                        batch.append(Update(record.tid, {name: data.draw(values)}))
            try:
                changeset = apply_to_database(database, batch)
            except PrimaryKeyError:
                continue  # a duplicate key: the batch rolled back
            apply_changeset(changeset, database, index=scanned)
            apply_changeset(changeset, database, index=grown)
        assert_same_index(scanned, grown, database)
        scanned.build()
        assert_same_index(scanned, grown, database)
        assert_same_index(InvertedIndex(database), grown, database)


class TestSerialisationRoundTrip:
    @given(st.lists(st.tuples(identifiers, sentences), max_size=10,
                    unique_by=lambda pair: pair[0]))
    def test_database_round_trips(self, rows):
        database = fresh_database()
        for identifier, body in rows:
            database.insert("DOC", {"ID": identifier, "BODY": body})
        recovered = database_from_dict(database_to_dict(database))
        assert recovered.count() == database.count()
        for record in database.tuples("DOC"):
            clone = recovered.get("DOC", *record.tid.key)
            assert clone is not None
            assert clone.values == record.values
