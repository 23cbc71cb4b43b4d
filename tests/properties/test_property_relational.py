"""Property-based tests for the relational substrate."""

import os
import string
import tempfile
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.errors import PrimaryKeyError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.live.maintain import apply_changeset
from repro.relational.database import Database
from repro.relational.index import (
    InvertedIndex,
    Posting,
    _value_tokens,
    attribute_table,
    tokenize,
)
from repro.relational.io import database_from_dict, database_to_dict
from repro.relational.schema import AttributeDef, DatabaseSchema, Relation
from repro.scale.snapshot import Snapshot

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
    first read) equals tuple-by-tuple ``append_tuples`` growth over the same
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
            record = database.insert(relation, row_values(relation, *row))
            grown.append_tuples([(record.tid, record.values)])
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


def eager_postings(database):
    """The reference: token -> list of postings, one pass over the store
    in posting order (relations in schema order, tuples in store order,
    attributes in schema order, each token once per attribute)."""
    reference = {}
    for relation in database.schema.relations:
        for record in database.tuples(relation.name):
            for attribute in relation.attribute_names:
                value = record.values.get(attribute)
                if value is None:
                    continue
                text = str(value)
                whole = text.lower()
                tokens = dict.fromkeys(tokenize(text))
                if whole:
                    tokens.setdefault(whole)
                for token in tokens:
                    reference.setdefault(token, []).append(
                        Posting(record.tid, attribute, token == whole)
                    )
    return reference


def assert_serves_reference(index, reference, database):
    """``postings``, ``posting_length`` and ``in`` for every token of a
    rebuild (and a few absent ones), each accessor first in turn.  The
    accessors strip a keyword, so a whole value with outer blanks is
    asked as its stripped form."""
    def entries(token):
        return reference.get(token.strip().lower(), ())

    reads = (
        lambda token: index.postings(token) == tuple(entries(token)),
        lambda token: index.posting_length(token) == len(entries(token)),
        lambda token: (token in index) == bool(entries(token)),
    )
    tokens = InvertedIndex(database).vocabulary() + ("zz", "", "k")
    for at, token in enumerate(tokens):
        for read in reads[at % 3:] + reads[:at % 3]:
            assert read(token), token
    assert index.vocabulary() == tuple(sorted(reference))


def postings_section(path):
    with Snapshot(path) as snapshot:
        return snapshot.read("postings")


class TestPostingColumnsEqualEager:
    """A cold index's posting columns, the same index after a save →
    open round trip, and a dict of posting lists built here agree on
    every token; ``save`` writes the same ``postings`` bytes whether a
    token is still raw or decoded, cold or restored."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["DOC", "TAG"]), st.integers(0, 9),
                      values, values),
            max_size=14,
            unique_by=lambda row: row[:2],
        ),
        data=st.data(),
    )
    def test_cold_and_restored_columns_serve_the_reference(self, rows, data):
        database = two_relation_database()
        for relation, *row in rows:
            database.insert(relation, row_values(relation, *row))
        engine = KeywordSearchEngine(database)
        stored = list(database.all_tuples())
        batch = [
            Delete(record.tid) for record in data.draw(
                st.lists(st.sampled_from(stored), unique=True, max_size=3)
                if stored else st.just([]), label="deleted",
            )
        ] + [
            Insert(relation, row_values(relation, key, first, second))
            for relation, key, first, second in data.draw(st.lists(
                st.tuples(st.sampled_from(["DOC", "TAG"]), st.integers(10, 19),
                          values, values),
                unique_by=lambda row: row[:2], max_size=3,
            ), label="inserted")
        ]
        if batch:
            engine.apply(batch)
        vocabulary = InvertedIndex(database).vocabulary()
        read = data.draw(st.lists(st.sampled_from(vocabulary), max_size=4)
                         if vocabulary else st.just([]), label="read first")
        reference = eager_postings(database)
        with tempfile.TemporaryDirectory() as workdir:
            cold, resaved, decoded = (
                os.path.join(workdir, name) for name in ("a.snap", "b.snap", "c.snap")
            )
            for token in read:  # the rest stay raw through the save
                engine.index.postings(token)
            engine.save(cold)
            assert_serves_reference(engine.index, reference, database)
            engine.save(decoded)
            with KeywordSearchEngine.open(cold) as restored:
                for token in read:
                    restored.index.postings(token)
                restored.save(resaved)
                assert_serves_reference(restored.index, reference, database)
            assert postings_section(cold) == postings_section(resaved)
            assert postings_section(cold) == postings_section(decoded)


#: Values at the edge of the one-plain-word shortcut: alphanumerics
#: outside ASCII (``str.isalnum`` holds, the ``[A-Za-z0-9]+`` word does
#: not), letters whose case mapping leaves ASCII (Kelvin sign, dotted I),
#: digits only, mixed case, the empty string and compound words.
edge_texts = st.one_of(
    st.sampled_from([
        "\u00e91", "\u216b", "\u01c5", "\u00b2", "\u212a1", "\u0130x",
        "0042", "7", "MiXeD", "abc", "ABC1", "", "a-B", "x_y", "x y", "?",
    ]),
    st.text(alphabet="aZ09\u00e9\u216b\u01c5\u00b2\u212a-_ ", max_size=6),
)
#: Non-``str`` values: what int, float and bool columns hold.
edge_scalars = st.one_of(st.integers(), st.floats(), st.booleans())


def tokenized(value):
    """The tokens and lower-cased whole text ``tokenize`` gives one
    value, without the plain-word shortcut."""
    text = str(value)
    whole = text.lower()
    tokens = dict.fromkeys(tokenize(text))
    if whole:
        tokens.setdefault(whole)
    return list(tokens), whole


#: ASCII texts around the scan's multi-word shortcut: words of letters
#: and digits between runs of blanks and tabs (its case), and texts with
#: ``-``, ``_`` or punctuation (``tokenize``'s).
ascii_texts = st.one_of(
    st.lists(st.text(alphabet="aZ09", min_size=1, max_size=4), max_size=4).flatmap(
        lambda words: st.sampled_from([" ", "  ", "\t", " \t "]).map(
            lambda blank: blank.join(words)
        )
    ),
    st.text(alphabet="aZ09 \t-_.", max_size=12),
)


def scanned_columns(columns):
    """A scan's posting columns as bytes, with their array types."""
    return (
        columns.directory(), list(columns.tid_of),
        *((column.typecode, column.tobytes()) for column in
          (columns.offsets, columns.nodes, columns.attributes)),
        bytes(columns.flags),
    )


def reference_columns(database):
    """The posting columns ``eager_postings`` (the ``tokenize`` path)
    gives, in :func:`scanned_columns`' form."""
    reference = eager_postings(database)
    tids = [record.tid for relation in database.schema.relations
            for record in database.tuples(relation.name)]
    node = {tid: at for at, tid in enumerate(tids)}
    attribute_id = {name: at for at, name in enumerate(attribute_table(database.schema))}
    offsets, nodes, attributes, flags = array("i", [0]), array("i"), array("H"), bytearray()
    for token in sorted(reference):
        for at, posting in enumerate(reference[token]):
            nodes.append(node[posting.tid])
            attributes.append(attribute_id[posting.attribute])
            flags.append((0 if at else 0x80) | posting.whole_value)
        offsets.append(len(nodes))
    return (
        sorted(reference), tids,
        *((column.typecode, column.tobytes()) for column in (offsets, nodes, attributes)),
        bytes(flags),
    )


def typed_database():
    """One relation with a column per stored type."""
    schema = DatabaseSchema(
        name="typed",
        relations=[
            Relation(
                "VAL",
                [AttributeDef("ID"), AttributeDef("WORD"),
                 AttributeDef("BODY", data_type="text"),
                 AttributeDef("N", data_type="int"),
                 AttributeDef("X", data_type="float"),
                 AttributeDef("B", data_type="bool")],
                primary_key=["ID"],
            )
        ],
    )
    return Database(schema)


class TestPlainWordShortcutEqualsTokenize:
    """``text.isascii() and text.isalnum()`` — the shortcut
    ``_value_tokens`` and the cold scan take for one plain word — and
    ``_text_tokens``' one for ASCII words between blanks post exactly
    what the ``tokenize`` path posts."""

    @given(st.one_of(edge_texts, edge_scalars))
    def test_value_tokens(self, value):
        tokens, whole = _value_tokens(value)
        assert (list(tokens), whole) == tokenized(value)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(edge_texts, edge_texts, st.none() | st.integers(),
                  st.none() | st.floats(), st.none() | st.booleans()),
        max_size=8,
    ))
    def test_scan(self, rows):
        database = typed_database()
        for number, (word, body, n, x, b) in enumerate(rows):
            database.insert("VAL", {
                "ID": f"k{number}", "WORD": word, "BODY": body,
                "N": n, "X": x, "B": b,
            })
        columns = InvertedIndex(database)._postings._columns
        scanned = {
            token: columns.decode(at)
            for at, token in enumerate(columns.directory())
        }
        assert scanned == eager_postings(database)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(ascii_texts, ascii_texts), max_size=8))
    def test_multi_word_columns(self, rows):
        """ASCII values of several words — runs of blanks and tabs,
        digits, ``-`` and ``_`` compounds — post byte-identical columns
        through the scan's shortcut and through ``tokenize``."""
        database = typed_database()
        for number, (word, body) in enumerate(rows):
            database.insert("VAL", {"ID": f"k{number}", "WORD": word, "BODY": body})
        columns = InvertedIndex(database)._postings._columns
        assert scanned_columns(columns) == reference_columns(database)


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
