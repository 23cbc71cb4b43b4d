"""Inverted index over attribute values for keyword matching.

Keyword search over structural data matches a keyword either against a
whole attribute value (``Smith`` matching ``L_NAME = 'Smith'``) or against a
word inside a text attribute (``XML`` matching a department description).
The paper relies on both modes; :class:`InvertedIndex` supports them through
a single posting structure that records, per keyword, the matching tuples
and the attributes they matched in.

The index is maintained incrementally: :meth:`InvertedIndex.append_tuples`,
:meth:`InvertedIndex.reindex_tuple` and :meth:`InvertedIndex.remove_tuple`
keep it consistent with a mutating database, and
:meth:`InvertedIndex.build` performs a full (re)build.

Postings have one resident representation, :class:`_PostingColumns`: a
sorted token directory looked up with ``bisect``, an ``offsets`` column
and per-posting node, attribute-id and flag columns.  A cold build fills
the columns from one scan of the store; a restored engine maps them from
its snapshot's ``postings`` section, which has the same layout, so a
full snapshot write copies a still-raw token's slice as it is.
:class:`_LazyPostings` decodes a token's ``Posting`` objects on its first
read and queues writes to tokens not read yet.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

from repro.errors import IntegrityError, SchemaError
from repro.relational.database import Database, TupleId

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
        # A lower-case match is kept as is: one spanning the whole value
        # is the value's own string, so an index keyed by it holds no copy.
        if not token.islower():
            token = token.lower()
        tokens.append(token)
        if "-" in token or "_" in token:
            tokens.extend(part for part in re.split(r"[-_]", token) if part)
    return tokens


@dataclass(frozen=True, slots=True)
class Posting:
    """One keyword occurrence: which tuple, which attribute, how it matched.

    ``whole_value`` is True when the keyword equals the entire attribute
    value (case insensitively), the strongest form of match.
    """

    tid: TupleId
    attribute: str
    whole_value: bool


def _value_tokens(value) -> tuple[dict, str]:
    """The distinct tokens one non-null value posts under, in posting
    order, and its lower-cased whole text."""
    text = str(value)
    whole = text if text.islower() else text.lower()  # shared, as above
    if text.isascii() and text.isalnum():
        # One plain word (most keys and names): what ``tokenize`` gives,
        # as ``[A-Za-z0-9]+`` matches exactly the ASCII alphanumerics.
        return {whole: None}, whole
    return _text_tokens(text, whole), whole


def _text_tokens(text: str, whole: str) -> dict:
    """The distinct tokens of a value's text that is not one plain word,
    in posting order; ``whole`` is the text lower-cased."""
    if text.isascii() and all(map(str.isalnum, words := whole.split())):
        # Plain words between blanks (most titles): what ``tokenize``
        # gives, as ``[A-Za-z0-9]+`` matches exactly the ASCII
        # alphanumerics and stops at any blank.
        tokens = dict.fromkeys(words)
    else:
        tokens = dict.fromkeys(tokenize(text))
    if whole:
        # Values that tokenise away entirely (e.g. punctuation-only)
        # are still matchable as whole values.
        tokens.setdefault(whole)
    return tokens


def _posted(values, attributes: Iterable[str]) -> Iterator[tuple[str, str, bool]]:
    """``(token, attribute, whole value?)`` per posting of one tuple's
    values: attribute by attribute, each token once per attribute."""
    for attribute in attributes:
        value = values.get(attribute)
        if value is None:
            continue
        tokens, whole = _value_tokens(value)
        for token in tokens:
            yield token, attribute, token == whole


#: Posting flag bits: the keyword is the whole attribute value; the
#: posting opens its token's slice.
_WHOLE = 0x01
_FIRST = 0x80


def attribute_table(schema) -> list[str]:
    """Every attribute name once, in schema order: what a posting's
    attribute id indexes (in memory and in a snapshot)."""
    return list(dict.fromkeys(
        attribute.name
        for relation in schema.relations
        for attribute in relation.attributes
    ))


class _PostingColumns:
    """An index's postings as flat columns, one layout for a cold build
    and a restored snapshot: a sorted token directory, ``offsets`` (a
    token's postings are slots ``offsets[t]:offsets[t + 1]``) and, per
    slot, a node, an attribute id (into ``names``) and a flag byte
    (``_WHOLE``; ``_FIRST`` on its token's first slot).  A node indexes
    ``tid_of``: the scanned tuple ids of a cold build, the interning
    table of a restored engine.  :meth:`decode` is the one place a
    ``Posting`` is made from a slice.
    """

    def __init__(self, tokens, offsets, nodes, attributes, flags, tid_of, names) -> None:
        self._tokens = tokens
        self.offsets, self.nodes = offsets, nodes
        self.attributes, self.flags = attributes, flags
        self.tid_of, self.names = tid_of, names

    @classmethod
    def scan(cls, database: Database, relations: dict, names: list[str]):
        """One scan of the store in posting order — relations in schema
        order, rows in store order — grouped per token, the tokens
        sorted and the groups flattened into columns.  The rows are read
        from the database's columns (:meth:`Database.rows`), so no row
        is built, and ``tid_of`` shares the database's tuple ids.

        A token's group lists ``position, attribute id, flag`` per
        posting: one position object per tuple and small ints, so the
        scan allocates no int per posting, and the flattened
        ``array('i')`` splits into its columns by strided slices.
        """
        if len(names) > 1 << 16:
            raise SchemaError(
                "too many attribute names to index", attributes=len(names)
            )
        attribute_id = {name: at for at, name in enumerate(names)}
        tids: list[TupleId] = []
        table: dict[str, list[int]] = {}
        for relation, fields in relations.items():
            ids = [attribute_id[name] for name in fields]
            __, row_tids, columns = database.rows(relation)
            rows = zip(*[columns[name] for name in fields])
            for position, row in enumerate(rows, len(tids)):
                # What ``_posted`` yields, ``_value_tokens`` inlined: no
                # generator step per posting.
                for value, at in zip(row, ids):
                    if value is None:
                        continue
                    text = str(value)
                    whole = text if text.islower() else text.lower()
                    if text.isascii() and text.isalnum():
                        # One plain word: the whole value is its one
                        # token, posted straight.
                        entries = table.get(whole)
                        if entries is None:
                            table[whole] = [position, at, _FIRST | _WHOLE]
                        else:
                            entries += position, at, _WHOLE
                        continue
                    for token in _text_tokens(text, whole):
                        entries = table.get(token)
                        if entries is None:
                            table[token] = [position, at, _FIRST | (token == whole)]
                        else:
                            entries += position, at, token == whole
            tids += row_tids
        tokens = sorted(table)
        offsets = array("i", [0])
        flat = array("i")
        for entries in map(table.pop, tokens):  # each list freed once copied
            flat.fromlist(entries)
            offsets.append(len(flat) // 3)
        return cls(
            tokens,
            offsets,
            flat[0::3],
            array("H", flat[1::3].tolist()),
            bytearray(flat[2::3].tolist()),
            tids,
            names,
        )

    def directory(self) -> list[str]:
        """The tokens, sorted: token ``t`` owns slots ``offsets[t]:offsets[t + 1]``."""
        return self._tokens

    def decode(self, at: int) -> list:
        """The postings of the ``at``-th directory token."""
        start, stop = self.offsets[at], self.offsets[at + 1]
        nodes = self.nodes[start:stop].tolist()
        attributes = self.attributes[start:stop].tolist()
        flags = bytes(self.flags[start:stop])
        self._check(start, stop, nodes, attributes, flags)
        tid_of, names = self.tid_of, self.names
        return [
            Posting(tid_of[node], names[attribute], bool(flag & _WHOLE))
            for node, attribute, flag in zip(nodes, attributes, flags)
        ]

    def _check(self, start: int, stop: int, nodes, attributes, flags) -> None:
        """Refuse a slice that breaks the layout; columns a scan filled
        hold none, so only columns read from outside check."""


class _RawTable:
    """The still-raw tokens of posting columns: every directory token
    not yet taken (decoded), found by bisecting the sorted directory."""

    __slots__ = ("columns", "tokens", "alive")

    def __init__(self, columns: _PostingColumns, alive=None) -> None:
        self.columns = columns
        self.tokens = columns.directory()
        #: One byte per directory token, 1 while it is raw.
        self.alive = (
            bytearray(b"\x01") * len(self.tokens) if alive is None else bytearray(alive)
        )

    def find(self, token: str) -> int:
        """The token's directory position, -1 unless it is raw."""
        tokens = self.tokens
        at = bisect_left(tokens, token)
        if at < len(tokens) and tokens[at] == token and self.alive[at]:
            return at
        return -1

    def __contains__(self, token) -> bool:
        return self.find(token) >= 0

    def take(self, at: int) -> None:
        """Mark the raw token at directory position ``at`` decoded."""
        self.alive[at] = 0

    def length(self, token: str) -> int:
        """The raw token's posting count (0 for any other)."""
        at = self.find(token)
        if at < 0:
            return 0
        return max(0, self.columns.offsets[at + 1] - self.columns.offsets[at])

    def positions(self) -> Iterator[int]:
        """Directory positions of the raw tokens, in token order."""
        return compress(range(len(self.alive)), self.alive)

    def __iter__(self) -> Iterator[str]:
        return compress(self.tokens, self.alive)

    def __len__(self) -> int:
        return self.alive.count(1)


class _LazyPostings(dict):
    """Posting lists decoded from posting columns on first read.

    Every index serves its postings through one of these, over the
    :class:`_PostingColumns` of a cold build's scan or of a restored
    snapshot's ``postings`` section.  Its raw table (:class:`_RawTable`)
    is those columns plus a taken-bitmap.  A missing token decodes its
    slice (or starts an empty list) and stores the result, after which
    plain dict semantics apply.  Raw and materialised keys are disjoint
    — decoding *takes* a token out of the raw table — so iteration,
    membership and length see each token exactly once, and a read looks
    in the materialised dict first.  Most queries touch a handful of
    tokens, so an index never pays for ``Posting`` objects of the
    vocabulary it does not use.

    Writes defer, reads fold.  A posting write to a token that is still
    raw (:meth:`defer`) queues ``("add", posting)`` or ``("del",
    tid)`` in ``_pending`` instead of decoding the list.  Every read of
    the token — ``[]``, ``get``, ``in``, :meth:`length_of`, iteration,
    :meth:`decode_all` — folds it first (:meth:`_fold`): the entries are
    decoded, postings of a deleted tid are dropped (and slots of nodes
    tombstoned since a snapshot was opened, which decode to ``None``),
    then every add no later del cancelled is placed by ``_place`` — the
    owning index's ordered insert — at the current order positions.
    That is the list eager maintenance holds: surviving tuples never
    change relative store order, and the insert keeps one tuple's
    postings in attribute order.  A token the fold leaves empty is gone,
    as an eager removal drops it.
    """

    def __init__(self, columns: _PostingColumns, raw: _RawTable = None) -> None:
        super().__init__()
        self._columns = columns
        if raw is not None:
            self._raw = raw
        #: Raw token -> the writes queued on it, in order.
        self._pending: dict[str, list] = {}
        #: ``place(postings, posting)``, set by the owning index.
        self._place = None

    @cached_property
    def _raw(self) -> _RawTable:
        # A snapshot's directory is parsed when a token is first asked for.
        return _RawTable(self._columns)

    def defer(self, token: str, write: tuple) -> bool:
        """Queue one ``("add", posting)`` / ``("del", tid)`` write on a
        still-raw token; False (nothing queued) for any other."""
        if dict.__contains__(self, token) or self._raw.find(token) < 0:
            return False
        self._pending.setdefault(token, []).append(write)
        return True

    def _fold(self, token: str, at: int) -> list:
        """Decode the raw token at directory position ``at`` with its
        queued writes applied; the list is stored unless it came out
        empty."""
        self._raw.take(at)
        postings = self._columns.decode(at)
        writes = self._pending.pop(token, None)
        if writes:
            gone: set = set()
            added: list = []
            for kind, write in writes:
                if kind == "del":
                    gone.add(write)
                    added = [p for p in added if p.tid != write]
                else:
                    added.append(write)
            postings = [
                p for p in postings if p.tid is not None and p.tid not in gone
            ]
            for posting in added:
                self._place(postings, posting)
        if postings:
            dict.__setitem__(self, token, postings)
        return postings

    def fold_pending(self) -> None:
        """Fold every token with queued writes; the rest stay raw."""
        for token in list(self._pending):
            self._fold(token, self._raw.find(token))

    def __missing__(self, token: str) -> list:
        at = self._raw.find(token)
        value = self._fold(token, at) if at >= 0 else []
        self[token] = value
        return value

    def get(self, token, default=None):
        postings = dict.get(self, token)
        if postings is None:
            at = self._raw.find(token)
            if at >= 0:
                postings = self._fold(token, at) or None
        return default if postings is None else postings

    def __contains__(self, token) -> bool:
        if dict.__contains__(self, token):
            return True
        if token in self._pending:
            self._fold(token, self._raw.find(token))
        return dict.__contains__(self, token) or token in self._raw

    def __iter__(self):
        self.fold_pending()
        yield from dict.__iter__(self)
        yield from self._raw

    def __len__(self) -> int:
        self.fold_pending()
        return dict.__len__(self) + len(self._raw)

    def keys(self):
        return list(self)

    def items(self):
        for token in list(self):
            yield token, self[token]

    def values(self):
        for token in list(self):
            yield self[token]

    def decode_all(self) -> None:
        """Fold every raw token now: an unpost without the tuple's
        values searches every list."""
        raw = self._raw
        for at in list(raw.positions()):
            self._fold(raw.tokens[at], at)

    def length_of(self, token: str) -> int:
        """Posting count of a token without decoding it.

        Raw entries are sized by their offsets, so the planner's
        cost model can size a keyword without materialising (and paying
        to decode) tuples the query may never touch; a token with queued
        writes is folded first, so the count is exact.
        """
        postings = dict.get(self, token)
        if postings is not None:
            return len(postings)
        if token in self._pending:
            return len(self._fold(token, self._raw.find(token)))
        return self._raw.length(token)


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
        self._init(database)
        self.build()

    @classmethod
    def from_state(cls, database: Database, postings: _LazyPostings) -> "InvertedIndex":
        """Rebuild an index from previously exported posting state.

        ``postings`` decodes each token's list on first read (and defers
        the writes to a still-raw token); decoded lists are in database
        order — the order a fresh :meth:`build` over the same database
        produces.
        """
        index = cls.__new__(cls)
        index._init(database)
        index._serve(postings)
        return index

    def _init(self, database: Database) -> None:
        self._database = database
        self._relation_position = {
            relation.name: position
            for position, relation in enumerate(database.schema.relations)
        }
        self._attributes = {
            relation.name: [attribute.name for attribute in relation.attributes]
            for relation in database.schema.relations
        }

    def _serve(self, postings: _LazyPostings) -> None:
        postings._place = self._insort
        self._postings = postings
        #: Database order of every indexed tuple: relation -> {primary
        #: key: position in the relation's store}, the relations ranked
        #: by their schema position.  Posting lists are kept sorted in
        #: the order a fresh ``build()`` scans in, so incremental
        #: maintenance leaves the index bit-identical to a rebuild.  Only
        #: ``insort`` reads it, inside the mutated posting's relation
        #: block, so each relation's derives on first demand.
        self._order = _Derived(self._refresh_order)
        #: Next store position per relation derived in ``_order`` — lets
        #: an appended tuple get its key in O(1); anything else falls
        #: back to a relation scan.
        self._relation_tail: dict[str, int] = {}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Discard and rebuild the whole index from the database: one
        scan in posting order into posting columns; a token's
        ``Posting`` objects are made on its first read."""
        self._serve(_LazyPostings(
            _PostingColumns.scan(
                self._database, self._attributes,
                attribute_table(self._database.schema),
            )
        ))

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

    def _index_record(self, tid: TupleId, values) -> None:
        positions = self._order[tid.relation]
        if tid.key not in positions:
            # Tuple not (yet) in the database store: place it after every
            # stored tuple of its relation.
            tail = self._relation_tail[tid.relation]
            positions[tid.key] = tail
            self._relation_tail[tid.relation] = tail + 1
        # A write to a still-raw token is queued, not decoded
        # (:meth:`_LazyPostings.defer`).
        postings = self._postings
        for token, attribute, whole in _posted(values, self._attributes[tid.relation]):
            posting = Posting(tid, attribute, whole)
            if not postings.defer(token, ("add", posting)):
                self._insort(postings[token], posting)

    def append_tuples(self, rows: Iterable[tuple[TupleId, dict]]) -> None:
        """Index tuples not yet indexed that form, in the given order, the
        tail of their relation's store — what a mutation batch leaves
        behind — given as ``(tuple id, values)`` pairs.

        Each takes the relation's next order position in O(1), however
        many the batch appended.
        """
        for tid, values in rows:
            self._index_record(tid, values)

    def reindex_tuple(self, tid: TupleId, values, before=None) -> None:
        """Refresh one tuple's postings after a value update to
        ``values``; ``before`` are the values it was posted under
        (:meth:`remove_tuple`).

        The tuple's store position is unchanged by an update, so its
        order key stays — no relation scan, and posting order stays
        equal to a fresh build.
        """
        self._unpost(tid, before)
        self._index_record(tid, values)

    def remove_tuple(self, tid: TupleId, values=None) -> None:
        """Drop all postings of one tuple.

        ``values`` are the values the tuple was posted under — its
        pre-mutation image — and name the posting lists to edit; without
        them every list is searched.
        """
        self._unpost(tid, values)
        self._order.get(tid.relation, {}).pop(tid.key, None)

    def _unpost(self, tid: TupleId, values) -> None:
        if values is None:
            # Every list is searched, so every list is decoded.
            self._postings.decode_all()
            tokens = list(self._postings)
        else:
            tokens = self._tokens(tid.relation, values)
        for token in tokens:
            if self._postings.defer(token, ("del", tid)):
                continue
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
        try:
            values = self._database.values(tid)
        except IntegrityError:
            return ()
        return tuple(self._tokens(tid.relation, values))

    def postings(self, keyword: str) -> tuple[Posting, ...]:
        """All postings of a keyword (word-level match), lower-cased."""
        return tuple(self._postings.get(keyword.strip().lower(), ()))

    def posting_length(self, keyword: str) -> int:
        """Posting count of a keyword without materialising postings.

        The planner's cost model calls this per query, so it must
        stay cheap: it counts a still-raw token's entries instead of
        decoding them.  Counts *postings* (word occurrences), not
        distinct tuples — an upper bound on :meth:`document_frequency`,
        which is what an ordering weight needs.
        """
        return self._postings.length_of(keyword.strip().lower())

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
