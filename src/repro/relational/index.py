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
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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

    def __init__(self, raw, decode) -> None:
        super().__init__()
        # ``raw`` may be the encoded table itself or a zero-argument
        # loader for it (a snapshot defers even parsing the section
        # until the first keyword lookup needs it).
        if callable(raw):
            self._raw_loader = raw
            self._raw_data = None
        else:
            self._raw_loader = None
            self._raw_data = raw
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

        Raw snapshot entries are lists of encoded postings, so their
        length is the posting count — the planner's cost model can size
        a keyword without materialising (and paying to decode) tuples
        the query may never touch.
        """
        if dict.__contains__(self, token):
            return len(dict.__getitem__(self, token))
        entries = self._raw.get(token)
        return len(entries) if entries is not None else 0


class _LazyOrder(dict):
    """Database-order keys that re-derive one relation on first demand.

    A restored index defers its order table entirely: ``insort`` only
    compares postings inside the mutated tokens' lists, so the first
    incremental mutation needs order keys for *those* tuples' relations
    — not a full-database scan.  A missing key triggers one
    ``_refresh_order`` pass over the owning relation; re-anchoring never
    changes the relative order of surviving tuples, so posting lists
    stay sorted no matter when a relation materialises.  A key that is
    still absent after the refresh is a genuine error (a posting for a
    tuple the store does not hold) and raises ``KeyError`` loudly.
    """

    __slots__ = ("_refresh",)

    def __init__(self, refresh) -> None:
        super().__init__()
        self._refresh = refresh

    def __missing__(self, tid):
        self._refresh(tid.relation)
        if tid in self:
            return dict.__getitem__(self, tid)
        raise KeyError(tid)


class InvertedIndex:
    """Word-level inverted index over a database instance."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._postings: dict[str, list[Posting]] = defaultdict(list)
        self._indexed: set[TupleId] = set()
        self._tokens_loader = None
        #: Database order of every indexed tuple: (relation position in the
        #: schema, position in the relation's store).  Posting lists are
        #: kept sorted by this key, which is exactly the order a fresh
        #: ``build()`` appends in — so incremental ``add_tuple`` /
        #: ``remove_tuple`` leave the index bit-identical (posting order
        #: included) to a from-scratch build over the same database.
        self._order: dict[TupleId, tuple[int, int]] = {}
        self._relation_position = {
            relation.name: position
            for position, relation in enumerate(database.schema.relations)
        }
        #: Next order position per relation — lets an appended tuple get
        #: its key in O(1); anything else falls back to a relation scan.
        self._relation_tail: dict[str, int] = {}
        self._tokens_by_tid: dict[TupleId, tuple[str, ...]] = {}
        self.build()

    @classmethod
    def from_state(
        cls,
        database: Database,
        postings: dict,
        tokens_by_tid,
    ) -> "InvertedIndex":
        """Rebuild an index from previously exported posting state.

        ``postings`` is any dict-like mapping token -> posting list that
        yields a fresh list for missing tokens (a plain dict of decoded
        lists, or a :class:`_LazyPostings` deferring decoding); posting
        lists must already be in database order — the order a fresh
        :meth:`build` over the same database produces.
        ``tokens_by_tid`` maps each indexed tuple to its tokens, either
        as a dict or as a zero-argument loader returning one — pure
        lookups never need it, so a snapshot restore defers it together
        with the database-order keys until the first mutation.
        """
        index = cls.__new__(cls)
        index._database = database
        index._postings = postings
        index._order = _LazyOrder(index._refresh_order)
        index._relation_position = {
            relation.name: position
            for position, relation in enumerate(database.schema.relations)
        }
        index._relation_tail = {}
        if callable(tokens_by_tid):
            index._tokens_loader = tokens_by_tid
            index._tokens_by_tid = None
            index._indexed = None
        else:
            index._tokens_loader = None
            index._tokens_by_tid = dict(tokens_by_tid)
            index._indexed = set(tokens_by_tid)
        return index

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _ensure_tokens(self) -> None:
        """Materialise the per-tuple token table on a restored index."""
        if self._tokens_by_tid is None:
            self._tokens_by_tid = dict(self._tokens_loader())
            self._indexed = set(self._tokens_by_tid)
            self._tokens_loader = None

    def build(self) -> None:
        """Discard and rebuild the whole index from the database."""
        self._tokens_loader = None
        self._postings.clear()
        if self._indexed is None:
            self._indexed = set()
            self._tokens_by_tid = {}
        self._indexed.clear()
        self._order.clear()
        self._relation_tail.clear()
        self._tokens_by_tid.clear()
        # One pass in posting order — relation by relation, store order
        # within — so every posting is a plain append.
        for position, relation in enumerate(self._database.schema.relations):
            attributes = [attribute.name for attribute in relation.attributes]
            store_position = -1
            for store_position, record in enumerate(
                self._database.tuples(relation.name)
            ):
                self._order[record.tid] = (position, store_position)
                self._post(record, attributes, list.append)
            self._relation_tail[relation.name] = store_position + 1
        self._indexed.update(self._tokens_by_tid)

    def _refresh_order(self, relation_name: str) -> None:
        """Re-derive database order for one relation's tuples.

        Store positions shift when earlier tuples are deleted, but the
        *relative* order of survivors never changes, so posting lists stay
        sorted; refreshing here re-anchors absolute positions before an
        insertion needs to compare against them.
        """
        position = self._relation_position[relation_name]
        store_position = -1
        for store_position, record in enumerate(
            self._database.tuples(relation_name)
        ):
            self._order[record.tid] = (position, store_position)
        self._relation_tail[relation_name] = store_position + 1

    def _post(self, record: Tuple, attributes: Iterable[str], place) -> None:
        """Post one tuple under its tokens, attribute by attribute and
        each token once per attribute, through ``place(posting list,
        posting)``: ``list.append`` when tuples arrive in posting order
        (a build), :meth:`_insort` otherwise."""
        tid = record.tid
        values = record.values
        posted: dict[str, None] = {}
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
                place(self._postings[token], Posting(tid, attribute, token == whole))
            posted.update(tokens)
        self._tokens_by_tid[tid] = tuple(posted)

    def _insort(self, postings: list[Posting], posting: Posting) -> None:
        # insort places equal keys to the right, so the several postings of
        # one tuple keep their attribute order.
        insort(postings, posting, key=lambda p: self._order[p.tid])

    def _index_record(self, record: Tuple) -> None:
        if record.tid not in self._order:
            # Tuple not (yet) in the database store: place it after every
            # stored tuple of its relation.
            position = self._relation_position[record.relation]
            tail = self._relation_tail.get(
                record.relation, self._database.count(record.relation)
            )
            self._order[record.tid] = (position, tail)
            self._relation_tail[record.relation] = tail + 1
        relation = self._database.schema.relation(record.relation)
        self._post(
            record, [attribute.name for attribute in relation.attributes],
            self._insort,
        )
        self._indexed.add(record.tid)

    def add_tuple(self, record: Tuple) -> None:
        """Index one tuple (no-op if already indexed).

        Postings land at the tuple's database-order position, so the index
        stays equal to a fresh :meth:`build` over the current database.
        A tuple sitting at the end of its relation's store — the normal
        insert-then-index flow — gets its position in O(1); re-adding a
        tuple from the middle of the store (the remove/re-add round trip)
        re-derives the relation's order with one scan.
        """
        self._ensure_tokens()
        if record.tid in self._indexed:
            return
        if record.tid not in self._order:
            # A cached order key (from a refresh, or preserved across a
            # value-update reindex) is still relatively correct — only a
            # keyless mid-store tuple needs the relation rescanned.
            last = self._database.last_tuple(record.relation)
            if last is None or last.tid != record.tid:
                self._refresh_order(record.relation)
            # else: _index_record appends at the relation tail in O(1).
        self._index_record(record)

    def append_tuples(self, records: Iterable[Tuple]) -> None:
        """Index tuples that form, in the given order, the tail of their
        relation's store — what a mutation batch leaves behind.

        Each takes the relation's next order position in O(1), however
        many the batch appended; :meth:`add_tuple` on anything but the
        single last tuple would rescan the relation instead.
        """
        self._ensure_tokens()
        for record in records:
            if record.tid not in self._indexed:
                self._index_record(record)

    def reindex_tuple(self, record: Tuple) -> None:
        """Refresh one tuple's postings after a value update.

        The tuple's store position is unchanged by an update, so its
        order key is preserved across the remove/re-add — no relation
        scan, and posting order stays equal to a fresh build.
        """
        order = self._order.get(record.tid)
        self.remove_tuple(record.tid)
        if order is not None:
            self._order[record.tid] = order
        self.add_tuple(record)

    def remove_tuple(self, tid: TupleId) -> None:
        """Drop all postings of one tuple."""
        self._ensure_tokens()
        if tid not in self._indexed:
            return
        for token in self._tokens_by_tid.pop(tid, ()):
            postings = self._postings.get(token)
            if postings is None:
                continue
            postings[:] = [p for p in postings if p.tid != tid]
            if not postings:
                del self._postings[token]
        self._indexed.discard(tid)
        self._order.pop(tid, None)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def tokens_of(self, tid: TupleId) -> tuple[str, ...]:
        """The tokens one indexed tuple is posted under (empty when the
        tuple is not indexed)."""
        self._ensure_tokens()
        return self._tokens_by_tid.get(tid, ())

    def postings(self, keyword: str) -> tuple[Posting, ...]:
        """All postings of a keyword (word-level match), lower-cased."""
        return tuple(self._postings.get(keyword.strip().lower(), ()))

    def posting_length(self, keyword: str) -> int:
        """Posting count of a keyword without materialising postings.

        The planner's cost model calls this per batch query, so it must
        stay cheap: on a snapshot-restored index it counts the
        still-encoded raw entries instead of decoding them.  Counts
        *postings* (word occurrences), not distinct tuples — an upper
        bound on :meth:`document_frequency`, which is what an ordering
        or routing weight needs.
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
        """Number of tuples currently indexed (the IR collection size)."""
        self._ensure_tokens()
        return len(self._indexed)

    def __contains__(self, keyword: str) -> bool:
        return keyword.strip().lower() in self._postings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InvertedIndex(tokens={len(self._postings)}, tuples={len(self._indexed)})"
