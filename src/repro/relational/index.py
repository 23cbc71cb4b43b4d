"""Inverted index over attribute values for keyword matching.

Keyword search over structural data matches a keyword either against a
whole attribute value (``Smith`` matching ``L_NAME = 'Smith'``) or against a
word inside a text attribute (``XML`` matching a department description).
The paper relies on both modes; :class:`InvertedIndex` supports them through
a single posting structure that records, per keyword, the matching tuples
and the attributes they matched in.

The index is maintained incrementally: :meth:`InvertedIndex.add_tuple` /
:meth:`InvertedIndex.remove_tuple` keep it consistent with a mutating
database, and :meth:`InvertedIndex.build` performs a full (re)build.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.relational.database import Database, Tuple, TupleId

__all__ = ["tokenize", "Posting", "InvertedIndex"]

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+(?:[-_][A-Za-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    """Split a value into lower-cased word tokens.

    Hyphenated compounds stay together *and* contribute their parts, so the
    paper's ``DB-project`` matches the keywords ``db-project``, ``db`` and
    ``project``.

    >>> tokenize("Different data models, such as XML")
    ['different', 'data', 'models', 'such', 'as', 'xml']
    """
    tokens: list[str] = []
    for token in _TOKEN_PATTERN.findall(text):
        token = token.lower()
        tokens.append(token)
        if "-" in token or "_" in token:
            tokens.extend(part for part in re.split(r"[-_]", token) if part)
    return tokens


@dataclass(frozen=True)
class Posting:
    """One keyword occurrence: which tuple, which attribute, how it matched.

    ``whole_value`` is True when the keyword equals the entire attribute
    value (case insensitively), the strongest form of match.
    """

    tid: TupleId
    attribute: str
    whole_value: bool


def _posted(values, attributes: Iterable[str]) -> Iterator[tuple[str, str, bool]]:
    """``(token, attribute, whole value?)`` per posting of one tuple's
    values: attribute by attribute, each token once per attribute."""
    for attribute in attributes:
        value = values.get(attribute)
        if value is None:
            continue
        text = str(value)
        whole = text.lower()
        tokens = dict.fromkeys(tokenize(text))
        if whole:
            # Values that tokenise away entirely (e.g. punctuation-only)
            # are still matchable as whole values.
            tokens.setdefault(whole)
        for token in tokens:
            yield token, attribute, token == whole


class _LazyPostings(dict):
    """Posting lists decoded from their snapshot encoding on first touch.

    Behaves like the ``defaultdict(list)`` a built index uses: a missing
    token decodes its pending raw entries (or starts an empty list) and
    stores the result, after which plain dict semantics apply.  Pending
    and materialised keys are disjoint — decoding *moves* a token out of
    the raw table — so iteration, membership and length see each token
    exactly once.  Most queries touch a handful of tokens, so restoring
    an index never pays for the vocabulary it does not use.
    """

    def __init__(self, load, decode) -> None:
        super().__init__()
        # A zero-argument loader of the raw table: a snapshot defers even
        # parsing it until the first keyword lookup needs it.
        self._raw_loader = load
        self._raw_data = None
        self._decode = decode

    @property
    def _raw(self) -> dict:
        if self._raw_data is None:
            self._raw_data = self._raw_loader()
        return self._raw_data

    def __missing__(self, token: str) -> list:
        entries = self._raw.pop(token, None)
        value = self._decode(entries) if entries is not None else []
        self[token] = value
        return value

    def get(self, token, default=None):
        if dict.__contains__(self, token) or token in self._raw:
            return self[token]
        return default

    def __contains__(self, token) -> bool:
        return dict.__contains__(self, token) or token in self._raw

    def __iter__(self):
        yield from dict.__iter__(self)
        yield from self._raw

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._raw)

    def keys(self):
        return list(self)

    def items(self):
        for token in list(self):
            yield token, self[token]

    def values(self):
        for token in list(self):
            yield self[token]

    def clear(self) -> None:
        dict.clear(self)
        self._raw_loader = None
        self._raw_data = {}

    def decode_all(self) -> None:
        """Decode every pending token now — in bulk, off the write path
        that would otherwise pay per first-touched token."""
        for token in list(self._raw):
            self[token]

    def length_of(self, token: str) -> int:
        """Posting count of a token without decoding it.

        Raw snapshot entries are sized by their posting count, so the
        planner's cost model can size a keyword without materialising
        (and paying to decode) tuples the query may never touch.
        """
        if dict.__contains__(self, token):
            return len(dict.__getitem__(self, token))
        entries = self._raw.get(token)
        return len(entries) if entries is not None else 0


class _Derived(dict):
    """A dict that fills a missing key with ``fill(key)`` on first use."""

    __slots__ = ("_fill",)

    def __init__(self, fill, filled=()) -> None:
        super().__init__(filled)
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class InvertedIndex:
    """Word-level inverted index over a database instance.

    It holds postings and nothing per tuple: a tuple's tokens are
    re-derived from its values (:func:`_posted`, the tokenisation that
    posted them) whenever they are needed — to unpost a tuple from the
    values it was posted under, or to name the tokens a rewritten tuple
    now carries.
    """

    def __init__(self, database: Database) -> None:
        self._init(database, defaultdict(list), {})
        self.build()

    @classmethod
    def from_state(cls, database: Database, postings: dict) -> "InvertedIndex":
        """Rebuild an index from previously exported posting state.

        ``postings`` is any dict-like mapping token -> posting list that
        yields a fresh list for missing tokens (a plain dict of decoded
        lists, or a :class:`_LazyPostings` deferring decoding); posting
        lists must already be in database order — the order a fresh
        :meth:`build` over the same database produces.  Pure lookups
        never need the database order, so each relation's derives on
        first demand: ``insort`` compares store positions only inside
        the mutated posting's own relation block, so a mutation needs
        *that* relation's — not a full-database scan — and re-anchoring
        never changes the relative order of surviving tuples.
        """
        index = cls.__new__(cls)
        index._init(database, postings, _Derived(index._refresh_order))
        return index

    def _init(self, database: Database, postings: dict, order: dict) -> None:
        self._database = database
        self._postings = postings
        #: Database order of every indexed tuple: relation -> {primary
        #: key: position in the relation's store}, the relations ranked
        #: by their schema position.  Posting lists are kept sorted in
        #: this order, which is exactly the order a fresh ``build()``
        #: appends in — so incremental ``add_tuple`` / ``remove_tuple``
        #: leave the index bit-identical (posting order included) to a
        #: from-scratch build over the same database.
        self._order = order
        self._relation_position = {
            relation.name: position
            for position, relation in enumerate(database.schema.relations)
        }
        self._attributes = {
            relation.name: [attribute.name for attribute in relation.attributes]
            for relation in database.schema.relations
        }
        #: Next store position per relation derived in ``_order`` — lets
        #: an appended tuple get its key in O(1); anything else falls
        #: back to a relation scan.
        self._relation_tail: dict[str, int] = {}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Discard and rebuild the whole index from the database."""
        self._postings.clear()
        self._order.clear()
        self._relation_tail.clear()
        # One pass in posting order — relation by relation, store order
        # within — so every posting is a plain append.
        for relation in self._database.schema.relations:
            attributes = self._attributes[relation.name]
            positions = self._order[relation.name] = {}
            for store_position, record in enumerate(
                self._database.tuples(relation.name)
            ):
                positions[record.tid.key] = store_position
                self._post(record, attributes, list.append)
            self._relation_tail[relation.name] = len(positions)

    def _refresh_order(self, relation_name: str) -> dict:
        """Re-derive database order for one relation's tuples.

        Store positions shift when earlier tuples are deleted, but the
        *relative* order of survivors never changes, so posting lists stay
        sorted; refreshing here re-anchors absolute positions before an
        insertion needs to compare against them.
        """
        keys = self._database.relation_key_order(relation_name)
        self._relation_tail[relation_name] = len(keys)
        positions = self._order[relation_name] = dict(zip(keys, range(len(keys))))
        return positions

    def _post(self, record: Tuple, attributes: Iterable[str], place) -> None:
        """Post one tuple under its tokens through ``place(posting list,
        posting)``: ``list.append`` when tuples arrive in posting order
        (a build), :meth:`_insort` otherwise."""
        tid = record.tid
        for token, attribute, whole in _posted(record.values, attributes):
            place(self._postings[token], Posting(tid, attribute, whole))

    def _tokens(self, relation_name: str, values) -> dict[str, None]:
        """The distinct tokens ``values`` post a tuple of a relation under."""
        return dict.fromkeys(
            token
            for token, __, ___ in _posted(values, self._attributes[relation_name])
        )

    def _insort(self, postings: list[Posting], posting: Posting) -> None:
        # A list holds one block per relation, in schema order: store
        # positions are compared only inside the posting's own block, so
        # other relations' order keys (and stores) are never derived.
        rank = self._relation_position
        block = rank[posting.tid.relation]
        lo = bisect_left(postings, block, key=lambda p: rank[p.tid.relation])
        hi = bisect_right(postings, block, lo, key=lambda p: rank[p.tid.relation])
        positions = self._order[posting.tid.relation]
        # insort places equal keys to the right, so the several postings of
        # one tuple keep their attribute order.
        insort(postings, posting, lo, hi, key=lambda p: positions[p.tid.key])

    def _index_record(self, record: Tuple) -> None:
        positions = self._order[record.relation]
        if record.tid.key not in positions:
            # Tuple not (yet) in the database store: place it after every
            # stored tuple of its relation.
            tail = self._relation_tail[record.relation]
            positions[record.tid.key] = tail
            self._relation_tail[record.relation] = tail + 1
        self._post(record, self._attributes[record.relation], self._insort)

    def add_tuple(self, record: Tuple) -> None:
        """Index one tuple (no-op if already indexed).

        Postings land at the tuple's database-order position, so the index
        stays equal to a fresh :meth:`build` over the current database.
        A tuple sitting at the end of its relation's store — the normal
        insert-then-index flow — gets its position in O(1); re-adding a
        tuple from the middle of the store (the remove/re-add round trip)
        re-derives the relation's order with one scan.
        """
        # Whether the tuple's postings are in place shows in the list of
        # its first token.
        first = next(_posted(record.values, self._attributes[record.relation]), None)
        if first is not None and any(
            p.tid == record.tid for p in self._postings.get(first[0], ())
        ):
            return
        positions = self._order.get(record.relation)
        if positions is not None and record.tid.key not in positions:
            # A cached order key (from a refresh, or preserved across a
            # value-update reindex) is still relatively correct — only a
            # keyless mid-store tuple needs the relation rescanned.
            last = self._database.last_tuple(record.relation)
            if last is None or last.tid != record.tid:
                self._refresh_order(record.relation)
            # else: _index_record appends at the relation tail in O(1).
        self._index_record(record)

    def append_tuples(self, records: Iterable[Tuple]) -> None:
        """Index tuples not yet indexed that form, in the given order, the
        tail of their relation's store — what a mutation batch leaves
        behind.

        Each takes the relation's next order position in O(1), however
        many the batch appended; :meth:`add_tuple` on anything but the
        single last tuple would rescan the relation instead.
        """
        for record in records:
            self._index_record(record)

    def reindex_tuple(self, record: Tuple, before=None) -> None:
        """Refresh one tuple's postings after a value update; ``before``
        are the values it was posted under (:meth:`remove_tuple`).

        The tuple's store position is unchanged by an update, so its
        order key stays — no relation scan, and posting order stays
        equal to a fresh build.
        """
        self._unpost(record.tid, before)
        self._index_record(record)

    def remove_tuple(self, tid: TupleId, values=None) -> None:
        """Drop all postings of one tuple.

        ``values`` are the values the tuple was posted under — its
        pre-mutation image — and name the posting lists to edit; without
        them every list is searched.
        """
        self._unpost(tid, values)
        self._order.get(tid.relation, {}).pop(tid.key, None)

    def _unpost(self, tid: TupleId, values) -> None:
        tokens = (
            list(self._postings) if values is None
            else self._tokens(tid.relation, values)
        )
        for token in tokens:
            postings = self._postings.get(token)
            if postings is None:
                continue
            postings[:] = [p for p in postings if p.tid != tid]
            if not postings:
                del self._postings[token]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def tokens_of(self, tid: TupleId) -> tuple[str, ...]:
        """The tokens one tuple's current values post it under (empty
        when the database does not hold it)."""
        record = self._database.get(tid.relation, *tid.key)
        if record is None:
            return ()
        return tuple(self._tokens(tid.relation, record.values))

    def postings(self, keyword: str) -> tuple[Posting, ...]:
        """All postings of a keyword (word-level match), lower-cased."""
        return tuple(self._postings.get(keyword.strip().lower(), ()))

    def posting_length(self, keyword: str) -> int:
        """Posting count of a keyword without materialising postings.

        The planner's cost model calls this per query, so it must
        stay cheap: on a snapshot-restored index it counts the
        still-encoded raw entries instead of decoding them.  Counts
        *postings* (word occurrences), not distinct tuples — an upper
        bound on :meth:`document_frequency`, which is what an ordering
        weight needs.
        """
        token = keyword.strip().lower()
        postings = self._postings
        length_of = getattr(postings, "length_of", None)
        if length_of is not None:
            return length_of(token)
        entries = postings.get(token)
        return len(entries) if entries else 0

    def matching_tuples(self, keyword: str) -> tuple[TupleId, ...]:
        """Distinct tuples containing the keyword, in first-posting order."""
        seen: dict[TupleId, None] = {}
        for posting in self.postings(keyword):
            seen.setdefault(posting.tid, None)
        return tuple(seen)

    def vocabulary(self) -> tuple[str, ...]:
        """Every indexed token, sorted (mainly for tests and diagnostics)."""
        return tuple(sorted(self._postings))

    def document_frequency(self, keyword: str) -> int:
        """Number of distinct tuples matching the keyword."""
        return len(self.matching_tuples(keyword))

    def indexed_count(self) -> int:
        """Number of tuples currently indexed (the IR collection size):
        the index covers the whole database."""
        return self._database.count()

    def __contains__(self, keyword: str) -> bool:
        return keyword.strip().lower() in self._postings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InvertedIndex(tokens={len(self._postings)})"
