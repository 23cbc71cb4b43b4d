"""Pruned traversal core: the fast path behind the search engines.

:mod:`repro.graph.traversal` enumerates by brute force — iterative
deepening that expands every branch to the depth budget, plus a fresh
networkx BFS per required tuple per joining-tree call.  Exhaustive and
deterministic, but every query pays the full cost again.

This module keeps the *exact* output contract (same answers, same order,
same :class:`~repro.errors.SearchLimitError` budget behaviour — the
differential tests in ``tests/graph/test_fast_traversal.py`` assert it)
while cutting the work three ways:

* **Bidirectional pruning.**  Path enumeration still runs a forward DFS
  from the source (that is what fixes the output order), but a backward
  BFS from the target bounds it: a branch standing at ``v`` with ``r``
  edges of budget left is cut unless ``dist(v, target) <= r``.  The DFS
  only ever walks the corridor of tuples that lie on some admissible
  path, instead of the whole component.
* **Cached per-tuple adjacency.**  The brute-force DFS re-reads and
  re-sorts ``graph.edges(v)`` at every visit; :class:`TraversalCache`
  materialises each tuple's sorted expansion list once and serves it to
  every later visit, depth pass and query.
* **Cached distance maps.**  Joining-tree growth needs a distance map
  per required tuple; the brute-force version recomputes them for every
  keyword-tuple assignment even though assignments overlap heavily.
  The cache computes each map once per tuple and shares it across
  assignments, queries and batches.

One :class:`TraversalCache` is owned by
:class:`~repro.core.engine.KeywordSearchEngine` and dropped by
``rebuild()``; the cache never observes database mutations on its own.
Callers that mutate tuples either rebuild, or route mutations through
``engine.apply`` — the live-update subsystem (:mod:`repro.live`) then
calls :meth:`TraversalCache.apply_changeset`, which drops only the
dict-backed entries in touched connected components and patches the
compiled CSR graph in place.  :meth:`TraversalCache.invalidate_tuples`
remains the tuple-id-only external API; lacking edge deltas, it drops
the compiled graph instead of patching it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import SearchLimitError
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import TuplePathStep, _sort_key
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.relational.database import TupleId

__all__ = [
    "SharedStream",
    "TraversalCache",
    "fast_enumerate_simple_paths",
    "fast_enumerate_joining_trees",
]

_UNREACHABLE = 1 << 30


class SharedStream:
    """Fan one single-pass enumeration out to many consumers.

    Wraps a generator factory; the generator is started lazily on first
    demand and advanced only as far as the furthest consumer has read.
    Every consumer replays the buffered prefix in order, so interleaved
    readers (several queries of a batch walking the same enumeration
    sub-plan) each see the full stream while the underlying enumeration
    runs **once**.  A consumer that stops early (top-k pushdown) leaves
    the stream partially materialised; a later consumer extends it.

    Budget errors are part of the stream: if the source raises (e.g.
    :class:`~repro.errors.SearchLimitError`), the exception is recorded
    after the items already produced and re-raised at the same position
    for every consumer — sharing never changes what any one consumer
    observes.
    """

    __slots__ = (
        "_factory",
        "_source",
        "_buffer",
        "_error",
        "_exhausted",
        "consumers",
    )

    def __init__(self, factory) -> None:
        self._factory = factory
        self._source = None
        self._buffer: list = []
        self._error: Optional[BaseException] = None
        self._exhausted = False
        #: Consumers served so far (observability for benchmarks).
        self.consumers = 0

    @property
    def produced(self) -> int:
        """Items materialised from the underlying enumeration so far."""
        return len(self._buffer)

    def _advance(self) -> bool:
        """Pull one more item from the source; False when finished."""
        if self._exhausted:
            if self._error is not None:
                raise self._error
            return False
        if self._source is None:
            self._source = self._factory()
        try:
            self._buffer.append(next(self._source))
        except StopIteration:
            self._exhausted = True
            self._source = None
            return False
        except BaseException as error:  # replayed for every consumer
            self._exhausted = True
            self._source = None
            self._error = error
            raise
        return True

    def __iter__(self):
        self.consumers += 1
        position = 0
        while True:
            if position < len(self._buffer):
                yield self._buffer[position]
                position += 1
                continue
            if not self._advance():
                return


class TraversalCache:
    """Per-tuple adjacency and distance maps, shared across queries.

    All structures are derived lazily from one :class:`DataGraph` and
    stay valid exactly as long as that graph does.  ``invalidate()``
    drops everything; the engine calls it (via replacement) on
    ``rebuild()``.  ``hits`` / ``misses`` count distance-map lookups so
    benchmarks and tests can observe reuse.
    """

    #: Most distance maps kept at once; each is O(nodes), so this caps the
    #: cache at O(nodes * max_distance_maps) for a long-lived served engine.
    max_distance_maps = 1024

    def __init__(
        self, data_graph: DataGraph, vector: Optional[bool] = None
    ) -> None:
        self.data_graph = data_graph
        #: Vector-backend override threaded into the compiled CSR graph
        #: (``None`` = import-time default, ``False`` = force stdlib).
        self.vector = vector
        self._expansions: dict[TupleId, tuple] = {}
        self._neighbours: dict[TupleId, tuple[TupleId, ...]] = {}
        self._distances: OrderedDict[TupleId, dict[TupleId, int]] = OrderedDict()
        self._frozen = None
        self.hits = 0
        self.misses = 0
        #: Enumeration counters: paths / joining trees yielded through this
        #: cache.  Benchmarks compare them between pushdown and full runs
        #: to observe how much enumeration early termination skipped.
        self.paths_enumerated = 0
        self.trees_enumerated = 0

    def invalidate(self) -> None:
        """Drop every cached structure (call after graph changes)."""
        self._expansions.clear()
        self._neighbours.clear()
        self._distances.clear()
        self._frozen = None

    def frozen(self):
        """The compiled :class:`~repro.graph.csr.FrozenGraph` of this
        cache's data graph, built lazily on first demand.

        The CSR kernels run on it; it lives here so one compilation is
        shared by every query, batch and stream the engine answers, and
        so the live-update path (:meth:`apply_changeset`) can patch it
        in place instead of recompiling.
        """
        if self._frozen is None:
            from repro.graph.csr import FrozenGraph

            with obs_trace.span("csr.compile") as compile_span:
                self._frozen = FrozenGraph(
                    self.data_graph, counters=self, vector=self.vector
                )
                if compile_span is not None:
                    compile_span.tag(backend=self._frozen.backend_name)
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.compiles")
        return self._frozen

    def compiled(self):
        """The compiled graph when one is held, else ``None`` — for
        callers that use it if present but must not trigger a build."""
        return self._frozen

    def apply_changeset(self, changeset) -> int:
        """Bring the cache up to date with one applied changeset.

        Dict-backed structures are invalidated (adjacency of touched
        tuples, distance maps of touched components — see
        :meth:`invalidate_tuples`); the compiled CSR graph, when built,
        is *patched* in place (tombstone/append + per-row edge deltas)
        so the next CSR query pays no recompilation.  Returns the number
        of dict distance maps dropped.
        """
        dropped = self._invalidate_changed(changeset.structural_tuples())
        if self._frozen is not None:
            self._frozen.apply_changeset(changeset)
        if obs_metrics.ENABLED and dropped:
            obs_metrics.REGISTRY.inc(
                "traversal_cache.distance_maps_dropped", dropped
            )
        return dropped

    def invalidate_tuples(self, changed: Iterable[TupleId]) -> int:
        """Drop only the entries a changeset can have made stale.

        ``changed`` is the set of tuples touched by a mutation batch:
        inserted, deleted and updated tuples plus both endpoints of every
        added or removed edge.  Adjacency is local, so expansion and
        neighbour lists are dropped for the changed tuples only.  A
        distance map is global within its connected component: the map
        keyed by ``t`` is dropped when ``t`` itself changed or when any
        changed tuple appears in the map (i.e. was reachable from ``t`` —
        which covers every tuple of ``t``'s pre-change component, and,
        because edge endpoints are changed tuples, any component newly
        merged into it).  Maps of untouched components survive.  Returns
        the number of distance maps dropped.

        Tuple ids alone carry no edge deltas, so a compiled CSR graph
        cannot be patched from here — it is dropped (and lazily
        recompiled) whenever the call actually invalidated something.
        :meth:`apply_changeset` is the edge-aware entry point that
        patches it in place instead.
        """
        changed = set(changed)
        if changed and self._frozen is not None:
            self._frozen = None
        return self._invalidate_changed(changed)

    def _invalidate_changed(self, changed: Iterable[TupleId]) -> int:
        """Invalidate the dict-backed structures for a changed-tuple set."""
        changed = set(changed)
        if not changed:
            return 0
        for tid in changed:
            self._expansions.pop(tid, None)
            self._neighbours.pop(tid, None)
        stale = [
            tid
            for tid, distances in self._distances.items()
            if tid in changed or not changed.isdisjoint(distances)
        ]
        for tid in stale:
            del self._distances[tid]
        return len(stale)

    def expansions(self, tid: TupleId) -> tuple:
        """``(other, edge_key, edge_data)`` triples incident to ``tid``.

        Reverse-sorted by ``(tuple order, edge key)`` so a DFS stack that
        pushes them in this order pops them forward-sorted — the same
        expansion order the brute-force traversal uses.
        """
        cached = self._expansions.get(tid)
        if cached is None:
            graph = self.data_graph.graph
            cached = tuple(
                sorted(
                    (
                        (other, key, data)
                        for __, other, key, data in graph.edges(
                            tid, keys=True, data=True
                        )
                    ),
                    key=lambda item: (_sort_key(item[0]), item[1]),
                    reverse=True,
                )
            )
            self._expansions[tid] = cached
        return cached

    def neighbours(self, tid: TupleId) -> tuple[TupleId, ...]:
        """Distinct neighbours of ``tid``, forward-sorted."""
        cached = self._neighbours.get(tid)
        if cached is None:
            cached = tuple(
                dict.fromkeys(
                    other for other, __, __ in reversed(self.expansions(tid))
                )
            )
            self._neighbours[tid] = cached
        return cached

    def distances(self, tid: TupleId) -> dict[TupleId, int]:
        """Shortest-path (edge-count) map from ``tid`` to every reachable tuple."""
        cached = self._distances.get(tid)
        if cached is not None:
            self.hits += 1
            self._distances.move_to_end(tid)
            return cached
        self.misses += 1
        distances = {tid: 0}
        frontier = [tid]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for other in self.neighbours(node):
                    if other not in distances:
                        distances[other] = depth
                        next_frontier.append(other)
            frontier = next_frontier
        while len(self._distances) >= self.max_distance_maps:
            self._distances.popitem(last=False)  # least recently used
        self._distances[tid] = distances
        return distances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraversalCache(expansions={len(self._expansions)}, "
            f"distances={len(self._distances)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def fast_enumerate_simple_paths(
    data_graph: DataGraph,
    source: TupleId,
    target: TupleId,
    max_edges: int,
    max_paths: Optional[int] = None,
    cache: Optional[TraversalCache] = None,
) -> Iterator[list[TuplePathStep]]:
    """Drop-in replacement for :func:`~repro.graph.traversal.enumerate_simple_paths`.

    Same paths, same order (shorter first, deterministic within a
    length), same budget semantics — but the forward DFS is bounded by a
    backward BFS from ``target``: a branch is expanded into ``other``
    only when the shortest distance from ``other`` to ``target`` fits in
    the remaining edge budget.  The distance map prunes admissibly
    (ignoring the simple-path constraint it can under- but never
    over-estimate the true remaining length), so no valid path is lost.
    """
    graph = data_graph.graph
    if source not in graph or target not in graph:
        return
    if max_edges < 1:
        return
    if cache is None or cache.data_graph is not data_graph:
        # A cache built on another graph would serve stale adjacency and
        # distances; fall back to a private one rather than answer wrongly.
        cache = TraversalCache(data_graph)

    to_target = cache.distances(target)
    shortest = to_target.get(source, _UNREACHABLE)
    if shortest > max_edges:
        # Disconnected pair (or too far): the brute-force version walks
        # the whole component once per depth to learn this.
        return

    produced = 0
    distance = to_target.get
    for depth in range(max(1, shortest), max_edges + 1):
        # One in-order DFS per depth over a *shared* visited set and
        # path stack with push/undo — no ``visited | {other}`` frozenset
        # or ``path + [...]`` list copy per expansion.  Expansion rows
        # are cached reverse-sorted (their historical stack order), so
        # ``reversed`` yields them forward-sorted.
        path: list[TuplePathStep] = []
        nodes = [source]
        visited = {source}
        iterators = [reversed(cache.expansions(source))]
        while iterators:
            entry = next(iterators[-1], None)
            if entry is None:
                iterators.pop()
                visited.discard(nodes.pop())
                if path:
                    path.pop()
                continue
            other, key, data = entry
            if other in visited:
                continue
            remaining = depth - len(path) - 1
            if remaining:
                if distance(other, _UNREACHABLE) > remaining:
                    continue  # cannot reach the target within this depth
                if other == target:
                    continue  # simple paths stop at the target
                path.append(TuplePathStep(nodes[-1], other, key, data))
                nodes.append(other)
                visited.add(other)
                iterators.append(reversed(cache.expansions(other)))
                continue
            if other != target:
                continue
            produced += 1
            if max_paths is not None and produced > max_paths:
                raise SearchLimitError(
                    "path enumeration exceeded budget",
                    max_paths=max_paths,
                    source=str(source),
                    target=str(target),
                )
            cache.paths_enumerated += 1
            yield path + [TuplePathStep(nodes[-1], other, key, data)]


def fast_enumerate_joining_trees(
    data_graph: DataGraph,
    required: Sequence[TupleId],
    max_tuples: int,
    max_results: Optional[int] = None,
    cache: Optional[TraversalCache] = None,
) -> Iterator[frozenset[TupleId]]:
    """Drop-in replacement for :func:`~repro.graph.traversal.enumerate_joining_trees`.

    Identical growth order and budget behaviour; the per-required-tuple
    distance maps and the per-member neighbour lists come from the cache
    instead of fresh networkx traversals, so the maps are computed once
    per tuple and shared across every keyword-tuple assignment of a
    query (and across queries in a batch).
    """
    required = list(dict.fromkeys(required))
    if not required:
        return
    graph = data_graph.graph
    for tid in required:
        if tid not in graph:
            return
    if cache is None or cache.data_graph is not data_graph:
        cache = TraversalCache(data_graph)

    distance_maps = [cache.distances(tid) for tid in required]
    for tid in required:
        if any(tid not in dmap for dmap in distance_maps):
            return  # some required pair is disconnected: no joining tree

    produced = 0
    seen: set[frozenset[TupleId]] = set()
    start = required[0]
    frontier: list[frozenset[TupleId]] = [frozenset([start])]
    required_set = frozenset(required)

    while frontier:
        next_frontier: set[frozenset[TupleId]] = set()
        for current in sorted(
            frontier, key=lambda s: sorted(_sort_key(t) for t in s)
        ):
            if required_set <= current:
                if current not in seen:
                    seen.add(current)
                    produced += 1
                    if max_results is not None and produced > max_results:
                        raise SearchLimitError(
                            "joining tree enumeration exceeded budget",
                            max_results=max_results,
                        )
                    cache.trees_enumerated += 1
                    yield current
            if len(current) >= max_tuples:
                continue
            missing = required_set - current
            budget = max_tuples - len(current)
            if missing:
                feasible = True
                for index, tid in enumerate(required):
                    if tid not in missing:
                        continue
                    dmap = distance_maps[index]
                    best = min(
                        (dmap.get(member, _UNREACHABLE) for member in current)
                    )
                    if best > budget:
                        feasible = False
                        break
                if not feasible:
                    continue
            neighbours: set[TupleId] = set()
            for member in current:
                for other in cache.neighbours(member):
                    if other not in current:
                        neighbours.add(other)
            for other in sorted(neighbours, key=_sort_key):
                next_frontier.add(current | {other})
        frontier = list(next_frontier)
