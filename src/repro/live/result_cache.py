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
  has at most ``L = max_rdb_length`` edges, a joining network at most
  ``max_tuples`` tuples.  Walking an answer the change created or
  destroyed from the tuple matching one keyword, the first changed edge
  is reached over unchanged edges — which all exist in the patched
  graph.  With ``d_k`` the distance from the change to keyword ``k``'s
  nearest fingerprint tuple:

  - a two-keyword entry, whose only structural answers are paths, drops
    iff ``d1 + d2 <= L - 1``, so the nearer keyword lies within
    ``(L - 1) // 2`` hops — the only depth the change is swept to for
    it.  The farther keyword is settled by meeting in the middle: a
    small ball around its fingerprint nodes must meet that sweep;
  - an entry of three or more keywords drops iff every keyword (AND;
    any two under OR, whose sub-answers cover keyword subsets) lies
    within its *reach*, ``max(L, max_tuples - 1) - 1`` hops;
  - a one-keyword entry never drops structurally: its answers are
    single tuples, which depend on match sets only.

  :func:`~repro.live.maintain.affected_tuples` supplies the sweep, as a
  ``{node int: depth}`` ball as deep as the widest live entry needs
  (:meth:`ResultCache.seed_radius`).

Invalidation costs what the changeset touches, not what the cache
holds: reverse maps from footprint tuples, from keyword tokens and from
fingerprint *node ints* to entry keys select the candidates, and only
candidates are examined.  The maps are built by the first changeset and
maintained from then on, so a cache that is only ever read and filled
never pays for them.  Fingerprints are interned to the compiled graph's
node ints on store once a structural change has bound the map to a
graph, and by the next sweep otherwise; a fold renumbers nodes, so the
node map is rebuilt whenever the graph object or its ``compile_stamp``
changes.

Rankers without a value ``repr`` (one that names an object address)
never enter the engine's cache at all.  Rankers whose scores read the
instance *around* an answer (``reads_neighbourhood`` — the fan counts
of the instance-ambiguity ranker) are stored *volatile*: an edge beside
an answer changes its score without touching the answer, so such
entries drop on any change.

The cache never changes observable behaviour: a hit replays exactly the
results (and execution counters) the underlying run produced, queries
that raise are never cached, and the differential property tests assert
bit-identity against a rebuilt engine across mutation interleavings.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Hashable, Optional

from repro.core.matching import match_keywords, split_role
from repro.core.search import SearchLimits
from repro.live.changes import ChangeSet
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex

if TYPE_CHECKING:
    from repro.graph.csr import FrozenGraph

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
    def seed_radius(self) -> Optional[int]:
        """Hops from a structural change the taint sweep must cover to
        decide this entry (module docstring); ``None`` when no
        structural change can taint it — one keyword, or volatile
        (dropped on any change anyway)."""
        keywords = len(self.fingerprint)
        if self.volatile or keywords < 2:
            return None
        limits = self.limits
        if keywords == 2:
            return (limits.max_rdb_length - 1) // 2
        return max(limits.max_rdb_length, limits.max_tuples - 1) - 1

    def tokens(self) -> frozenset[str]:
        """The index tokens the keywords look up (role qualifier off)."""
        return frozenset(
            split_role(keyword)[0].lower() for keyword in self.keywords
        )


class _Taintable:
    """A live entry a structural change can taint, with its fingerprint
    interned to node ints (``None`` until interned).  Hashed by
    identity: the node map adds and probes these, never the long query
    keys."""

    __slots__ = ("key", "entry", "radius", "nodes")

    def __init__(self, key: Hashable, entry: CacheEntry, radius: int) -> None:
        self.key = key
        self.entry = entry
        self.radius = radius
        self.nodes: Optional[tuple[tuple[int, ...], ...]] = None


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
        #: keys, the volatile keys, and how many entries need each
        #: :attr:`CacheEntry.seed_radius`.
        self._by_tuple: Optional[dict[TupleId, set[Hashable]]] = None
        self._by_token: dict[str, set[Hashable]] = {}
        self._volatile: set[Hashable] = set()
        self._radii: dict[int, int] = {}
        #: The entries a structural change can taint, their fingerprints
        #: interned to node ints of the graph (and compile) ``_graph`` /
        #: ``_stamp`` name: key -> record, fingerprint node -> records,
        #: and the records stored while no graph was bound, waiting for
        #: the next sweep to intern them.
        self._taintable: dict[Hashable, _Taintable] = {}
        self._by_node: dict[int, set[_Taintable]] = {}
        self._unbound: dict[_Taintable, None] = {}
        self._graph: Optional[weakref.ref] = None
        self._stamp = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def seed_radius(self) -> Optional[int]:
        """Widest :attr:`CacheEntry.seed_radius` among the live entries —
        how far a structural change must be swept to decide them all;
        ``None`` when no live entry can be tainted structurally."""
        self._ensure_maps()
        return max(self._radii, default=None)

    def lookup(self, key: Hashable) -> Optional[CacheEntry]:
        """The live entry for a key, refreshed as most recently used."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
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
        radius = entry.seed_radius
        if radius is not None:
            self._radii[radius] = self._radii.get(radius, 0) + 1
            record = self._taintable[key] = _Taintable(key, entry, radius)
            # Interned now while the bound graph is current — a store
            # sits on a cache miss, off the write path — else by the
            # next sweep.
            frozen = self._graph() if self._graph is not None else None
            if frozen is not None and frozen.compile_stamp == self._stamp:
                self._intern(record, frozen)
            else:
                self._unbound[record] = None

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
        record = self._taintable.pop(key, None)
        if record is None:
            return
        if record.nodes is None:
            del self._unbound[record]
        else:
            for node in set().union(*record.nodes):
                records = self._by_node[node]
                records.discard(record)
                if not records:
                    del self._by_node[node]
        self._radii[record.radius] -= 1
        if not self._radii[record.radius]:
            del self._radii[record.radius]

    def _bind(self, frozen: FrozenGraph) -> None:
        """Intern the waiting fingerprints to ``frozen``'s node ints —
        every fingerprint when ``frozen`` is not the graph (or compile)
        the map was built against, since a fold renumbers nodes."""
        if (
            self._graph is None
            or self._graph() is not frozen
            or self._stamp != frozen.compile_stamp
        ):
            self._graph = weakref.ref(frozen)
            self._stamp = frozen.compile_stamp
            self._by_node.clear()
            self._unbound = dict.fromkeys(self._taintable.values())
        for record in self._unbound:
            self._intern(record, frozen)
        self._unbound.clear()

    def _intern(self, record: _Taintable, frozen: FrozenGraph) -> None:
        """Give one record its node-int fingerprint and map its nodes."""
        node_of = frozen.node_of
        nodes = []
        for tuple_ids in record.entry.fingerprint:
            group = tuple(map(node_of, tuple_ids))
            if None in group:  # not in the graph: no change reaches it
                group = tuple(node for node in group if node is not None)
            nodes.append(group)
        record.nodes = nodes = tuple(nodes)
        by_node = self._by_node
        for node in set().union(*nodes):
            records = by_node.get(node)
            if records is None:
                by_node[node] = {record}
            else:
                records.add(record)

    def store(self, key: Hashable, entry: CacheEntry) -> None:
        if self.max_entries <= 0:
            return
        if key in self._entries:
            self._unlink(key)
        self._link(key, entry)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._unlink(next(iter(self._entries)))
            self.stats.evicted += 1

    def invalidate(
        self,
        changeset: ChangeSet,
        index: InvertedIndex,
        graph: Callable[[], FrozenGraph],
        sweep: Callable[[int], dict[int, int]],
    ) -> int:
        """Drop exactly the entries a changeset may have made stale.

        ``index`` must already be maintained so keyword fingerprints
        re-derive against the post-change match sets.  ``graph()`` is
        the patched compiled graph and ``sweep(radius)`` the
        :func:`~repro.live.maintain.affected_tuples` ball of the
        changeset, ``radius`` levels deep; neither is called unless the
        changeset is structural and a surviving entry can be tainted by
        it.  Only entries the reverse maps name are looked at.  Returns
        the number of entries dropped.
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
        for key in dropped:
            self._unlink(key)
        # Structural reach, swept only as deep as the survivors need.
        radius = max(self._radii, default=None)
        if radius is not None and changeset.structural_tuples():
            tainted = self._tainted(sweep(radius), radius, graph())
            for key in tainted:
                self._unlink(key)
            dropped.update(tainted)
        self.stats.invalidated += len(dropped)
        return len(dropped)

    def _tainted(
        self, ball: dict[int, int], radius: int, frozen: FrozenGraph
    ) -> set[Hashable]:
        """The entries a structural change with this ``radius``-deep
        ``ball`` may have altered (module docstring): those with a
        fingerprint node in the ball, decided per keyword count."""
        self._bind(frozen)
        by_node = self._by_node
        candidates: set[_Taintable] = set()
        if len(ball) <= len(by_node):
            for node in ball:
                records = by_node.get(node)
                if records is not None:
                    candidates.update(records)
        else:
            for node, records in by_node.items():
                if node in ball:
                    candidates.update(records)
        unreached = radius + 1
        met: dict[tuple[tuple[int, ...], int], bool] = {}
        tainted: set[Hashable] = set()
        for record in candidates:
            nodes = record.nodes
            depths = [
                min(map(ball.get, group, repeat(unreached)), default=unreached)
                for group in nodes
            ]
            if len(nodes) > 2:
                inside = sum(depth <= record.radius for depth in depths)
                needed = len(nodes) if record.entry.semantics == "and" else 2
                if inside >= needed:
                    tainted.add(record.key)
                continue
            # A pair: d_near + d_far <= L - 1, with d_near within the
            # ball (the entry is a candidate).  A d_far beyond it is met
            # in the middle: a shortest path of length d_far crosses
            # the ball's rim, and its rest, at most ``bound - radius``
            # hops, lies in the far keyword's ball (DESIGN.md).
            near, far = (0, 1) if depths[0] <= depths[1] else (1, 0)
            bound = record.entry.limits.max_rdb_length - 1 - depths[near]
            if depths[far] <= radius:
                if depths[far] <= bound:
                    tainted.add(record.key)
                continue
            if bound <= radius:
                continue
            probe = (nodes[far], bound - radius)
            hit = met.get(probe)
            if hit is None:
                hit = met[probe] = frozen.meets(*probe, ball)
            if hit:
                tainted.add(record.key)
        return tainted

    def clear(self) -> None:
        """Drop every entry (rebuild, or an untracked external mutation)."""
        self._entries.clear()
        self._by_tuple = None
        self._by_token.clear()
        self._volatile.clear()
        self._radii.clear()
        self._taintable.clear()
        self._by_node.clear()
        self._unbound.clear()
        self._graph = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(entries={len(self._entries)}, {self.stats.describe()})"
