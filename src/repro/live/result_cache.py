"""Dependency-tracked answer cache: LRU with precise invalidation.

Entries are keyed by the full query identity — query text, semantics,
limits, ``top_k``, pushdown mode and ranker — and record, alongside the
materialised results, what those results depend on:

* **footprint** — every tuple the entry's answers depend on: all tuples
  matched by the query's keywords plus all tuples appearing in answers.
  A changeset that removes, updates or replaces a footprint tuple drops
  the entry.
* **fingerprint** — the per-keyword match tuple lists at store time.  A
  changeset can create a keyword match anywhere (a new matching tuple
  far from every cached answer still changes the answer set), so after
  index maintenance the fingerprints of the entries whose keywords the
  changeset's tuples now carry are re-derived and compared.
* **semantics and limits** — what a *structural* change (an edge or
  tuple added or removed) can reach.  Answers are bounded: a connection
  has at most ``max_rdb_length`` edges, a joining network at most
  ``max_tuples`` tuples.  Walking an answer the change created or
  destroyed from the tuple matching one keyword, the first changed edge
  is reached over unchanged edges — which all exist in the patched
  graph — within ``max_rdb_length - 1`` hops on a path and
  ``max_tuples - 2`` hops inside a network.  So an entry survives
  unless *every* keyword (AND; any two under OR, whose sub-answers
  cover keyword subsets) has a fingerprint tuple inside that ball
  around the change, and a two-keyword entry — whose only structural
  answers are paths — additionally only when the two nearest depths fit
  one path: ``d1 + d2 + 1 <= max_rdb_length``.
  :func:`~repro.live.maintain.affected_tuples` supplies the ball.

Invalidation costs what the changeset touches, not what the cache
holds: reverse maps from footprint tuples and from keyword tokens to
entry keys select the candidates, and only candidates are examined.
The maps are built by the first changeset and maintained from then on,
so a cache that is only ever read and filled never pays for them.

Rankers that score against corpus-wide statistics (``uses_corpus_stats``
— e.g. TF–IDF) never enter the engine's cache at all.  Rankers whose
scores read the instance *around* an answer (``reads_neighbourhood`` —
the fan counts of the instance-ambiguity ranker) are stored *volatile*:
an edge beside an answer changes its score without touching the answer,
so such entries drop on any change.

The cache never changes observable behaviour: a hit replays exactly the
results (and execution counters) the underlying run produced, queries
that raise are never cached, and the differential property tests assert
bit-identity against a rebuilt engine across mutation interleavings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Mapping, Optional

from repro.core.matching import match_keywords, split_role
from repro.core.search import SearchLimits
from repro.live.changes import ChangeSet
from repro.obs import metrics as obs_metrics
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex

__all__ = ["CacheStats", "CacheEntry", "ResultCache"]


@dataclass
class CacheStats:
    """Observability counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    evicted: int = 0

    def describe(self) -> str:
        return (
            f"hits {self.hits} misses {self.misses} stores {self.stores} "
            f"invalidated {self.invalidated} evicted {self.evicted}"
        )


@dataclass(frozen=True)
class CacheEntry:
    """One cached answer list plus its dependency record."""

    results: tuple
    stats: object  # ExecutionStats of the producing run (kept opaque)
    keywords: tuple[str, ...]
    footprint: frozenset[TupleId]
    fingerprint: tuple[tuple[TupleId, ...], ...]
    volatile: bool = False
    semantics: str = "and"
    limits: SearchLimits = SearchLimits()

    @property
    def reach(self) -> int:
        """Hops from a structural change within which a matched tuple
        can still belong to an answer the change altered."""
        limits = self.limits
        return max(limits.max_rdb_length, limits.max_tuples - 1) - 1

    def tokens(self) -> frozenset[str]:
        """The index tokens the keywords look up (role qualifier off)."""
        return frozenset(
            split_role(keyword)[0].lower() for keyword in self.keywords
        )

    def structurally_tainted(self, ball: Mapping[TupleId, int]) -> bool:
        """True when a structural change with this depth-labelled ball
        may have altered the entry's answers (module docstring)."""
        reach = self.reach
        nearest = []
        for tuple_ids in self.fingerprint:
            depth = min(
                map(ball.get, tuple_ids, repeat(reach + 1)), default=reach + 1
            )
            if depth <= reach:
                nearest.append(depth)
        needed = len(self.fingerprint) if self.semantics == "and" else 2
        if len(nearest) < needed:
            return False
        if len(self.fingerprint) == 2:
            return sum(nearest) + 1 <= self.limits.max_rdb_length
        return True


class ResultCache:
    """LRU answer cache with changeset-driven invalidation.

    ``max_entries <= 0`` disables the cache entirely (every lookup
    misses, stores are dropped) — benchmarks use that to measure the
    cold path.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        #: Reverse maps, built by the first changeset that asks and kept
        #: in step with ``_entries`` from then on (``None`` before — an
        #: engine that never applies a batch pays neither their time nor
        #: their memory): footprint tuple -> keys, keyword token ->
        #: keys, the volatile keys, and how many entries have each reach.
        self._by_tuple: Optional[dict[TupleId, set[Hashable]]] = None
        self._by_token: dict[str, set[Hashable]] = {}
        self._volatile: set[Hashable] = set()
        self._reaches: dict[int, int] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def reach(self) -> int:
        """Widest :attr:`CacheEntry.reach` among the live entries — how
        far a structural change must be swept to taint them all."""
        self._ensure_maps()
        return max(self._reaches, default=0)

    def lookup(self, key: Hashable) -> Optional[CacheEntry]:
        """The live entry for a key, refreshed as most recently used."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("result_cache.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.inc("result_cache.hits")
        return entry

    def _ensure_maps(self) -> None:
        if self._by_tuple is None:
            self._by_tuple = {}
            for key, entry in self._entries.items():
                self._index(key, entry)

    def _index(self, key: Hashable, entry: CacheEntry) -> None:
        for tid in entry.footprint:
            self._by_tuple.setdefault(tid, set()).add(key)
        for token in entry.tokens():
            self._by_token.setdefault(token, set()).add(key)
        if entry.volatile:
            self._volatile.add(key)
        self._reaches[entry.reach] = self._reaches.get(entry.reach, 0) + 1

    def _link(self, key: Hashable, entry: CacheEntry) -> None:
        self._entries[key] = entry
        if self._by_tuple is not None:
            self._index(key, entry)

    def _unlink(self, key: Hashable) -> None:
        entry = self._entries.pop(key)
        if self._by_tuple is None:
            return
        for table, members in (
            (self._by_tuple, entry.footprint),
            (self._by_token, entry.tokens()),
        ):
            for member in members:
                keys = table[member]
                keys.discard(key)
                if not keys:
                    del table[member]
        self._volatile.discard(key)
        self._reaches[entry.reach] -= 1
        if not self._reaches[entry.reach]:
            del self._reaches[entry.reach]

    def store(self, key: Hashable, entry: CacheEntry) -> None:
        if self.max_entries <= 0:
            return
        if key in self._entries:
            self._unlink(key)
        self._link(key, entry)
        self.stats.stores += 1
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._unlink(next(iter(self._entries)))
            self.stats.evicted += 1
            evicted += 1
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.inc("result_cache.stores")
            if evicted:
                obs_metrics.REGISTRY.inc("result_cache.evicted", evicted)

    def invalidate(
        self,
        changeset: ChangeSet,
        ball: Mapping[TupleId, int],
        index: InvertedIndex,
    ) -> int:
        """Drop exactly the entries a changeset may have made stale.

        ``ball`` is :func:`~repro.live.maintain.affected_tuples` for the
        changeset, swept at least :meth:`reach` levels; ``index`` must
        already be maintained so keyword fingerprints re-derive against
        the post-change match sets.  Only entries the reverse maps name
        are looked at.  Returns the number of entries dropped.
        """
        if changeset.is_empty():
            return 0
        self._ensure_maps()
        dropped: set[Hashable] = set(self._volatile)
        rewritten = (
            changeset.tuples_updated
            + changeset.tuples_replaced
            + changeset.tuples_added
        )
        # A tuple gone or rewritten takes every answer built on it along.
        for tid in changeset.tuples_removed + rewritten:
            dropped.update(self._by_tuple.get(tid, ()))
        # A rewritten tuple may newly match: recheck the entries asking
        # for any token it now carries.
        suspects: set[Hashable] = set()
        for tid in rewritten:
            for token in index.tokens_of(tid):
                suspects.update(self._by_token.get(token, ()))
        fingerprints: dict[tuple[str, ...], tuple] = {}
        for key in suspects - dropped:
            entry = self._entries[key]
            current = fingerprints.get(entry.keywords)
            if current is None:
                current = fingerprints[entry.keywords] = tuple(
                    match.tuple_ids
                    for match in match_keywords(index, entry.keywords)
                )
            if current != entry.fingerprint:
                dropped.add(key)
        # Structural reach: entries with a footprint tuple in the ball.
        nearby: set[Hashable] = set()
        for tid in ball.keys() & self._by_tuple.keys():
            nearby.update(self._by_tuple[tid])
        for key in nearby - dropped:
            if self._entries[key].structurally_tainted(ball):
                dropped.add(key)
        for key in dropped:
            self._unlink(key)
        self.stats.invalidated += len(dropped)
        if obs_metrics.ENABLED and dropped:
            obs_metrics.REGISTRY.inc("result_cache.invalidated", len(dropped))
        return len(dropped)

    def clear(self) -> None:
        """Drop every entry (rebuild, or an untracked external mutation)."""
        self._entries.clear()
        self._by_tuple = None
        self._by_token.clear()
        self._volatile.clear()
        self._reaches.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(entries={len(self._entries)}, {self.stats.describe()})"
