"""Unit tests for tokenisation and the inverted index."""

import pytest

from repro.relational.index import InvertedIndex, _value_tokens, tokenize


class TestTokenize:
    def test_simple_words(self):
        assert tokenize("Different data models") == ["different", "data", "models"]

    def test_punctuation_stripped(self):
        assert tokenize("retrieval and XML.") == ["retrieval", "and", "xml"]

    def test_hyphenated_compound_and_parts(self):
        tokens = tokenize("DB-project")
        assert tokens == ["db-project", "db", "project"]

    def test_underscore_compound(self):
        tokens = tokenize("works_for")
        assert "works_for" in tokens
        assert "works" in tokens
        assert "for" in tokens

    def test_numbers(self):
        assert tokenize("room 42") == ["room", "42"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding(self):
        assert tokenize("XML and Xml") == ["xml", "and", "xml"]


class TestValueTokens:
    """The one-plain-word shortcut posts what ``tokenize`` posts: a
    value that only lower-cases to a plain word (the Kelvin sign) takes
    the full walk."""

    @pytest.mark.parametrize("value", [
        "smith", "Smith", "42", 1999, "", "DB-project", "a_b c", "K1",
        "\u212a1", "\u0130x",
    ])
    def test_shortcut_matches_tokenize(self, value):
        text = str(value)
        expected = dict.fromkeys(tokenize(text))
        if text.lower():
            expected.setdefault(text.lower())
        tokens, whole = _value_tokens(value)
        assert list(tokens) == list(expected)
        assert whole == text.lower()


class TestMatching:
    def test_smith_matches_two_employees(self, index, company_db):
        labels = {company_db.tuple(t).label for t in index.matching_tuples("Smith")}
        assert labels == {"e1", "e2"}

    def test_xml_matches_departments_and_projects(self, index, company_db):
        labels = {company_db.tuple(t).label for t in index.matching_tuples("XML")}
        assert labels == {"d1", "d2", "p1", "p2"}

    def test_match_is_case_insensitive(self, index):
        assert index.matching_tuples("xml") == index.matching_tuples("XML")

    def test_word_inside_text_attribute(self, index, company_db):
        labels = {
            company_db.tuple(t).label for t in index.matching_tuples("databases")
        }
        assert labels == {"d1"}

    def test_whole_value_match(self, index, company_db):
        postings = index.postings("Cs")
        assert any(p.whole_value for p in postings)

    def test_word_match_not_whole_value(self, index):
        postings = [p for p in index.postings("xml") if p.attribute == "D_DESCRIPTION"]
        assert postings
        assert all(not p.whole_value for p in postings)

    def test_multiword_value_matches_as_whole(self, index, company_db):
        # P_NAME 'XML and IR' is matchable as one whole value.
        postings = index.postings("xml and ir")
        assert len(postings) == 1
        assert postings[0].whole_value

    def test_no_match(self, index):
        assert index.matching_tuples("quantum") == ()
        assert "quantum" not in index

    def test_contains(self, index):
        assert "xml" in index
        assert "XML " in index  # stripped and lowered

    def test_document_frequency(self, index):
        assert index.document_frequency("xml") == 4
        assert index.document_frequency("smith") == 2
        assert index.document_frequency("nothing") == 0

    def test_matched_attribute_provenance(self, index):
        attributes = {p.attribute for p in index.postings("xml")}
        assert attributes == {"D_DESCRIPTION", "P_NAME", "P_DESCRIPTION"}

    def test_numbers_are_matchable(self, index, company_db):
        labels = {company_db.tuple(t).label for t in index.matching_tuples("40")}
        assert labels == {"w_f1"}


class TestMaintenance:
    def test_append_tuples_after_insert(self, company_db, index):
        record = company_db.insert(
            "EMPLOYEE",
            {"SSN": "e9", "L_NAME": "Zubrowka", "S_NAME": "Ada", "D_ID": "d3"},
        )
        index.append_tuples([(record.tid, record.values)])
        assert index.document_frequency("zubrowka") == 1

    def test_reindex_unchanged_values_is_idempotent(self, company_db, index):
        record = company_db.get("EMPLOYEE", "e1")
        before = {token: index.postings(token) for token in index.vocabulary()}
        index.reindex_tuple(record.tid, record.values, before=record.values)
        assert index.document_frequency("smith") == 2
        assert {token: index.postings(token) for token in index.vocabulary()} \
            == before

    def test_remove_tuple(self, company_db, index):
        record = company_db.get("EMPLOYEE", "e2")
        index.remove_tuple(record.tid)
        assert index.document_frequency("smith") == 1
        assert index.document_frequency("barbara") == 0

    def test_remove_unknown_is_noop(self, company_db, index):
        before = len(index.vocabulary())
        from repro.relational.database import TupleId

        index.remove_tuple(TupleId("EMPLOYEE", ("e99",)))
        assert len(index.vocabulary()) == before

    def test_rebuild_restores_state(self, company_db, index):
        record = company_db.get("EMPLOYEE", "e2")
        index.remove_tuple(record.tid)
        index.build()
        assert index.document_frequency("smith") == 2

    def test_vocabulary_sorted(self, index):
        vocabulary = index.vocabulary()
        assert list(vocabulary) == sorted(vocabulary)

    def test_null_values_not_indexed(self, db_schema):
        from repro.relational.database import Database

        database = Database(db_schema)
        database.insert("DEPARTMENT", {"ID": "dx"})
        index = InvertedIndex(database)
        assert index.document_frequency("dx") == 1  # only the key itself


class TestIncrementalRoundTrip:
    """remove_tuple / append_tuples must leave the index equal to a fresh
    build() — posting order included (the live subsystem relies on it)."""

    def equal_to_fresh(self, index, database):
        fresh = InvertedIndex(database)
        if index.vocabulary() != fresh.vocabulary():
            return False
        return all(
            index.postings(token) == fresh.postings(token)
            for token in fresh.vocabulary()
        )

    # A deleted row re-inserted moves to the tail of its relation's
    # store, and the index must follow it there.  Any row may be picked,
    # so referential checks are off: posting order is the subject here.

    def test_remove_readd_company(self, company_db, index):
        import random

        company_db.enforce_foreign_keys = False
        rng = random.Random(7)
        records = list(company_db.all_tuples())
        for record in rng.sample(records, 8):
            company_db.delete(record.tid)
            index.remove_tuple(record.tid, record.values)
            again = company_db.insert(record.tid.relation, dict(record.values))
            index.append_tuples([(again.tid, again.values)])
            assert self.equal_to_fresh(index, company_db)

    def test_remove_readd_random_synthetic(self):
        import random

        from repro.datasets.synthetic import SyntheticConfig, generate_company_like

        database = generate_company_like(SyntheticConfig(
            departments=3, projects_per_department=2,
            employees_per_department=4, works_on_per_employee=2,
            dependents_per_employee=0.5, seed=42,
        ))
        database.enforce_foreign_keys = False
        rng = random.Random(23)
        index = InvertedIndex(database)
        records = list(database.all_tuples())
        # Remove a random block, then re-add in a shuffled order.
        block = rng.sample(records, 10)
        for record in block:
            database.delete(record.tid)
            index.remove_tuple(record.tid, record.values)
        rng.shuffle(block)
        for record in block:
            again = database.insert(record.tid.relation, dict(record.values))
            index.append_tuples([(again.tid, again.values)])
        assert self.equal_to_fresh(index, database)

    def test_incremental_add_after_database_insert(self, company_db, index):
        record = company_db.insert(
            "DEPENDENT", {"ID": "t9", "ESSN": "e1", "DEPENDENT_NAME": "Smith"}
        )
        index.append_tuples([(record.tid, record.values)])
        assert self.equal_to_fresh(index, company_db)
        assert index.document_frequency("smith") == 3

    def test_incremental_remove_after_database_delete(self, company_db, index):
        from repro.relational.database import TupleId

        tid = TupleId("DEPENDENT", ("t1",))
        company_db.delete(tid)
        index.remove_tuple(tid)
        assert self.equal_to_fresh(index, company_db)


class TestOnePassBuild:
    """``build()`` scans raw entries in visit order, decoded on first
    read; the incremental path insorts postings.  Both must produce the
    same index."""

    ROWS = [
        # multi-attribute tuple, one token repeated inside a value and
        # across attributes
        ("DEPARTMENT", {"ID": "d1", "D_NAME": "data data",
                        "D_DESCRIPTION": "Data models; data, XML"}),
        ("EMPLOYEE", {"SSN": "e1", "L_NAME": "Smith-Jones", "S_NAME": "xml",
                      "D_ID": "d1"}),
        # hyphen/underscore compounds and a punctuation-only value
        ("PROJECT", {"ID": "p1", "D_ID": "d1", "P_NAME": "DB-project",
                     "P_DESCRIPTION": "???"}),
        ("DEPARTMENT", {"ID": "d2", "D_NAME": "--", "D_DESCRIPTION": None}),
        ("EMPLOYEE", {"SSN": "e2", "L_NAME": "smith", "S_NAME": "db_project",
                      "D_ID": "d2"}),
        ("PROJECT", {"ID": "p2", "D_ID": "d2", "P_NAME": "xml xml XML",
                     "P_DESCRIPTION": "smith-jones data"}),
    ]

    def test_build_equals_tuple_by_tuple_growth(self, db_schema):
        from repro.relational.database import Database

        database = Database(db_schema)
        grown = InvertedIndex(database)
        for relation, values in self.ROWS:  # relations interleaved
            record = database.insert(relation, values)
            grown.append_tuples([(record.tid, record.values)])
        built = InvertedIndex(database)
        relations = [relation.name for relation in db_schema.relations]
        assert dict(built._postings) == dict(grown._postings)
        # Order keys derive per relation on first demand, on either index.
        for relation in relations:
            assert built._order[relation] == grown._order[relation]
        assert built._relation_tail == grown._relation_tail
        for record in database.all_tuples():
            assert built.tokens_of(record.tid) == grown.tokens_of(record.tid)
        assert [p.whole_value for p in built.postings("???")] == [True]
        assert "--" in built and "db-project" in built and "jones" in built
        # rebuilding in place lands on the same state again
        grown.build()
        assert dict(grown._postings) == dict(built._postings)
        for relation in relations:
            assert grown._order[relation] == built._order[relation]


class TestColdBuildDecodesOnFirstRead:
    """A built index scans the store into raw entries; a ``Posting`` is
    made only when its token is first read."""

    def test_only_read_tokens_materialise(self, company_db):
        index, read = InvertedIndex(company_db), InvertedIndex(company_db)
        assert dict.__len__(index._postings) == 0
        vocabulary = index.vocabulary()
        assert [index.posting_length(token) for token in vocabulary] == [
            len(read.postings(token)) for token in vocabulary
        ]
        assert dict.__len__(index._postings) == 0
        smiths = index.postings("smith")
        assert set(dict.keys(index._postings)) == {"smith"}
        assert smiths == read.postings("Smith") and len(smiths) == 2


class TestPostingIsSlotted:
    """A cold build holds one :class:`Posting` per keyword occurrence, so
    it carries no per-instance ``__dict__``; it stays frozen, hashable
    and picklable (the pool ships postings inside answers)."""

    def test_slots_frozen_and_round_trips(self):
        import copy
        import dataclasses
        import pickle

        from repro.relational.database import TupleId
        from repro.relational.index import Posting

        posting = Posting(TupleId("EMPLOYEE", ("e1",)), "L_NAME", True)
        assert "__slots__" in vars(Posting)
        assert not hasattr(posting, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            posting.attribute = "S_NAME"
        for clone in (
            pickle.loads(pickle.dumps(posting)),
            copy.copy(posting),
            copy.deepcopy(posting),
        ):
            assert clone == posting
            assert hash(clone) == hash(posting)


class TestColdPostingsFootprint:
    def test_cold_index_holds_columns_not_lists(self):
        """A cold bib ``tiny`` index (seed 7: 2 020 tuples, 1 878 tokens)
        holds its postings as flat columns, keyed by the stored values'
        own strings where a token is a whole lower-case value.
        ``tracemalloc`` counts the bytes a build leaves allocated.
        Per-token lists of ints held 630 106 on Python 3.11.7 (615 058
        on 3.12.1); the columns hold 131 234, 21 % (127 698 on 3.12.1).
        The bound is 45 % of the lists' figure, so a return to per-token
        lists fails."""
        import gc
        import os
        import sys
        import tracemalloc

        sys.path.insert(0, os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
        ))
        try:
            import corpus
        finally:
            del sys.path[0]
        database = corpus.generate("tiny", 7).database()
        InvertedIndex(database)  # warm: imports, interned strings, caches
        gc.collect()
        tracemalloc.start()
        try:
            index = InvertedIndex(database)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(index._postings._raw) == 1878
        assert held <= 0.45 * 630_106, held
