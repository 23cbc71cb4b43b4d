"""Plan execution: one streaming path for every query shape.

The executor runs a :class:`~repro.core.plan.QueryPlan` and yields
ranked :class:`SearchResult` objects.  Two modes share all enumeration
machinery:

* **Full mode** reproduces the pre-pipeline engine bit for bit: every
  source is drained in plan order (the exact enumeration order the
  legacy ``search`` / ``_search_or`` code paths had, including where a
  :class:`~repro.errors.SearchLimitError` fires), then answers are
  sorted by ``(score, rendered text)`` and cut.
* **Pushdown mode** (a top-k cut plus a ranker with a registered lower
  bound, see :func:`~repro.core.plan.lower_bound_for`) interleaves the
  sources by their *score lower bounds* and stops enumerating as soon
  as no unseen answer can still enter the result.  The output is
  provably identical to full mode — same answers, same order, same
  scores — because every source yields in non-decreasing bound order:
  pair paths arrive by increasing RDB length (a heap merges the
  per-tuple-pair streams), joining networks by increasing tuple count
  (RDB length is ``|tuples| - 1``), and singles are exact-scored up
  front.  Emission waits until the buffered best *strictly* beats every
  remaining bound, so ties broken by rendered text can never be lost.
  A budget error that full enumeration would hit may simply never be
  reached — that laziness is the point of the pushdown.

OR semantics ride the same machinery: the merge is *coverage-major*, so
scores (and bounds) are prefixed with ``-covered_keywords`` — pair
sources cover exactly their two keywords and networks cover every
populated keyword, which keeps the prefix constant per source and the
bounds monotone.

**Plan sharing.**  All enumeration goes through a
:class:`SharedEnumerations` table of :class:`SharedStream` objects
keyed by the enumeration signature (tuple pair + limits for paths, required tuple
sequence + limits for trees).  Identical sub-plans — across the sources
of one query or across different query texts of a batch — execute once
and fan out; ``KeywordSearchEngine.search_batch`` passes one table for
the whole batch.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence, Union

from repro.core.connections import Connection
from repro.core.matching import KeywordMatch
from repro.core.plan import (
    NetworkGrowth,
    PairPaths,
    QueryPlan,
    SingleScan,
    lower_bound_for,
)
from repro.core.ranking import Ranker
from repro.core.search import (
    JoiningNetwork,
    SearchLimits,
    SingleTupleAnswer,
    _keyword_map,
)
from repro.graph.csr import (
    _UNREACHABLE,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
    resolve_core,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import (
    enumerate_joining_trees,
    enumerate_simple_paths,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.planner.cost import resolve_adaptive
from repro.relational.database import TupleId

__all__ = [
    "SearchResult",
    "ExecutionStats",
    "SharedStream",
    "SharedEnumerations",
    "Executor",
]

AnswerType = Union[Connection, JoiningNetwork, SingleTupleAnswer]


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked answer: the answer object, its score and its rank."""

    answer: AnswerType
    score: tuple[float, ...]
    rank: int

    def render(self) -> str:
        return self.answer.render()


@dataclass(slots=True)
class ExecutionStats:
    """Observability for one plan execution.

    ``candidates`` counts answers constructed and scored — in pushdown
    mode this is how far enumeration actually ran before terminating,
    the number benchmarks compare against a full run to measure skipped
    work.  ``emitted`` counts results yielded; ``pushdown`` records
    whether early termination was active.  ``shard_skips`` counts
    enumeration units (tuple pairs, network assignments) a shard plan
    proved cross-component and never set up — the sharded serving win.
    ``pruned`` counts units the adaptive planner proved empty from
    distance bounds and likewise never set up.
    """

    candidates: int = 0
    emitted: int = 0
    pushdown: bool = False
    shard_skips: int = 0
    pruned: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another run's counters in (batch aggregation).

        Every field folds with a commutative, associative operation
        (sums and a disjunction), so aggregating worker results in
        whatever order a process pool completes them yields one
        deterministic total — the parallel executor relies on this.
        """
        self.candidates += other.candidates
        self.emitted += other.emitted
        self.pushdown = self.pushdown or other.pushdown
        self.shard_skips += other.shard_skips
        self.pruned += other.pruned

    def to_dict(self) -> dict:
        """JSON-safe view (CLI ``--json``, trace summaries)."""
        return {
            "candidates": self.candidates,
            "emitted": self.emitted,
            "pushdown": self.pushdown,
            "shard_skips": self.shard_skips,
            "pruned": self.pruned,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionStats":
        return cls(
            candidates=int(payload.get("candidates", 0)),
            emitted=int(payload.get("emitted", 0)),
            pushdown=bool(payload.get("pushdown", False)),
            shard_skips=int(payload.get("shard_skips", 0)),
            pruned=int(payload.get("pruned", 0)),
        )


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


class SharedEnumerations:
    """Keyed table of shared enumeration streams (plan-level sharing).

    ``hits`` counts sub-plan requests served by an existing stream —
    enumerations that would have run again without sharing; ``misses``
    counts streams actually created.
    """

    def __init__(self) -> None:
        self._streams: dict[tuple, SharedStream] = {}
        self.hits = 0
        self.misses = 0

    def stream(self, key: tuple, factory) -> SharedStream:
        shared = self._streams.get(key)
        if shared is None:
            self.misses += 1
            shared = SharedStream(factory)
            self._streams[key] = shared
        else:
            self.hits += 1
        return shared

    def __len__(self) -> int:
        return len(self._streams)


#: Heap-entry marker for an enumeration unit whose stream has not been
#: built yet (adaptive pushdown): the entry carries an admissible
#: distance bound and the unit signature instead of real items.  Never
#: compared — the unique unit index before it settles every heap order.
_LAZY = object()


def _op_label(op) -> str:
    """Span name of one plan source (explain keys ops by tag, not name)."""
    if isinstance(op, SingleScan):
        return "op.scan"
    if isinstance(op, PairPaths):
        return "op.paths"
    return "op.networks"


def _coverage(answer: AnswerType) -> int:
    """Distinct query keywords an answer covers (OR-semantics major key)."""
    if isinstance(answer, (SingleTupleAnswer, JoiningNetwork)):
        return len(answer.covered_keywords)
    covered: set[str] = set()
    for keywords in answer.keyword_matches.values():
        covered |= keywords
    return len(covered)


class Executor:
    """Runs query plans over one data graph, streaming ranked answers."""

    def __init__(
        self,
        data_graph: DataGraph,
        *,
        core: Optional[str] = None,
        cache: Optional[TraversalCache] = None,
        shared: Optional[SharedEnumerations] = None,
        shard_plan=None,
        adaptive: Optional[bool] = None,
    ) -> None:
        self.data_graph = data_graph
        #: Traversal kernel: ``csr`` (compiled integer kernels, the
        #: default) or ``reference`` (the brute-force networkx oracle).
        self.core = resolve_core(core)
        if cache is None or cache.data_graph is not data_graph:
            cache = TraversalCache(data_graph)
        self.cache = cache
        self.shared = shared if shared is not None else SharedEnumerations()
        #: Optional :class:`~repro.scale.shards.ShardPlan`.  Execution
        #: stays bit-identical with or without one: every answer lives
        #: inside one connected component, so an enumeration unit whose
        #: tuples the plan maps to *different* shards can yield nothing
        #: and is skipped before any stream is set up; same-shard units
        #: additionally run the CSR kernels on the shard's own compiled
        #: graph, whose scratch state is O(shard) instead of O(graph).
        self.shard_plan = shard_plan
        #: Selectivity-ordered pushdown: enumeration units enter the
        #: state heaps on admissible BFS distance bounds (streams built
        #: lazily, provably-empty units skipped) instead of eagerly
        #: pulling every unit's first item.  Answers are bit-identical
        #: either way — the bounds are admissible, so emission only gets
        #: cheaper.  Resolved here so ``REPRO_STATIC_PLAN`` freezes the
        #: whole process; requires the compiled ``csr`` core's cheap
        #: distance rows; the reference core keeps the static order.
        self.adaptive = resolve_adaptive(adaptive)
        self.stats = ExecutionStats()
        #: Live span of the run in flight (``None`` while tracing is
        #: off or between runs); the mode-specific emitters hang their
        #: per-op and rank/cut children off it.
        self._exec_span = None

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------
    def _unit_shard(self, tids) -> object:
        """Classify one enumeration unit against the shard plan.

        Returns a shard id (run on that shard's graph), ``None`` (no
        plan, or a tuple unknown to it — run globally, never skip), or
        the :data:`~repro.scale.shards.CROSS_SHARD` sentinel (provably
        unanswerable — skip the unit entirely).
        """
        if self.shard_plan is None:
            return None
        return self.shard_plan.shard_of_all(tids)

    def _unit_cache(self, shard) -> TraversalCache:
        """The cache a same-shard unit's kernels should run on."""
        if shard is None or self.core != "csr":
            return self.cache
        return self.shard_plan.cache_for(shard)

    def _prefetch_distances(
        self, plan: QueryPlan, limits: SearchLimits
    ) -> None:
        """Warm the compiled graph's distance-row cache for every source
        the plan's enumeration units will prune against, as one block
        per graph and radius instead of one probe at a time.

        Purely a cache effect: blocks are bit-identical to on-demand
        rows, so answers, order and budget points are unchanged.  Rows
        for units the kernels later skip (disconnected or over-budget
        pairs) may be computed ahead of need; the LRU keeps that
        bounded.  Under a shard plan the tuples are grouped per shard
        graph — cross-shard/unknown tuples are left to the global
        on-demand path.
        """
        if self.cache is None:
            return
        blocks: dict = {}  # (shard, radius) -> node ints on that graph
        for tid, radius in plan.distance_sources(limits).items():
            shard = None
            if self.shard_plan is not None:
                shard = self.shard_plan.shard_of(tid)
                if shard is None:
                    continue
            node = self._unit_cache(shard).frozen().node_of(tid)
            if node is not None:
                blocks.setdefault((shard, radius), []).append(node)
        for (shard, radius), nodes in blocks.items():
            if len(nodes) > 1:
                self._unit_cache(shard).frozen().distances_block(nodes, radius)

    # ------------------------------------------------------------------
    # adaptive bounds (selectivity-ordered pushdown, csr core only)
    # ------------------------------------------------------------------
    def _unit_distance(
        self, source, target, shard, rows, limits
    ) -> Optional[int]:
        """Admissible lower bound on the RDB length of any simple path
        between two tuples: their BFS distance in the compiled graph,
        exact up to ``max_rdb_length`` (rows are warmed by
        :meth:`_prefetch_distances` at the radius the path kernel uses
        and memoised in ``rows`` per target).  ``None`` means no bound
        is available (tuple not interned) and the caller must fall back
        to eager static setup; :data:`_UNREACHABLE` proves the pair
        yields nothing within the budget.
        """
        frozen = self._unit_cache(shard).frozen()
        row_key = (shard, target)
        row = rows.get(row_key)
        if row is None:
            node = frozen.node_of(target)
            if node is None:
                return None
            row = frozen.distances(node, radius=limits.max_rdb_length - 1)
            rows[row_key] = row
        source_node = frozen.node_of(source)
        if source_node is None:
            return None
        return frozen.distance_within(row, source_node, limits.max_rdb_length)

    def _network_bound(self, required, shard, rows, limits) -> Optional[int]:
        """Admissible lower bound on the tuple count of any joining tree
        over ``required``: a connected tree must contain a path between
        its two farthest required tuples, so it holds at least
        ``max(len(required), max pairwise BFS distance + 1)`` tuples.
        ``None`` → fall back to eager setup; :data:`_UNREACHABLE` →
        provably no tree fits ``max_tuples`` (rows reach
        ``max_tuples - 1`` levels, the radius the tree kernel uses).
        """
        frozen = self._unit_cache(shard).frozen()
        nodes = []
        for tid in required:
            node = frozen.node_of(tid)
            if node is None:
                return None
            nodes.append((tid, node))
        radius = limits.max_tuples - 1
        bound = len(required)
        for position, (tid, node) in enumerate(nodes[:-1]):
            row_key = (shard, tid)
            row = rows.get(row_key)
            if row is None:
                row = frozen.distances(node, radius=radius)
                rows[row_key] = row
            for __, other in nodes[position + 1:]:
                distance = row[other]
                if distance > radius:
                    return _UNREACHABLE
                if distance + 1 > bound:
                    bound = distance + 1
        return bound

    def _note_adaptive(self, heap, pruned: int) -> None:
        """Planner metrics for one adaptive heap build (metered runs).

        ``planner.reorders`` counts units whose drain rank differs from
        their static plan position — how much the distance bounds
        actually reshuffled enumeration; ``planner.pruned_units`` counts
        units proven empty and never set up.
        """
        if not obs_metrics.ENABLED:
            return
        registry = obs_metrics.REGISTRY
        if pruned:
            registry.inc("planner.pruned_units", pruned)
        if len(heap) > 1:
            drained = [
                entry[1]
                for entry in sorted(
                    heap, key=lambda entry: (entry[0], entry[1])
                )
            ]
            moved = sum(
                1
                for drain, plan_order in zip(drained, sorted(drained))
                if drain != plan_order
            )
            if moved:
                registry.inc("planner.reorders", moved)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(
        self,
        plan: QueryPlan,
        ranker: Ranker,
        limits: Optional[SearchLimits] = None,
        pushdown: Optional[bool] = None,
    ) -> list[SearchResult]:
        """Execute a plan to completion, best answers first."""
        return list(self.stream(plan, ranker, limits, pushdown=pushdown))

    def stream(
        self,
        plan: QueryPlan,
        ranker: Ranker,
        limits: Optional[SearchLimits] = None,
        pushdown: Optional[bool] = None,
    ) -> Iterator[SearchResult]:
        """Execute a plan lazily, yielding ranked answers incrementally.

        ``pushdown=None`` (auto) enables early termination when the plan
        has a top-k cut and the ranker has a lower bound; ``True`` forces
        bound-ordered streaming even without a cut (answers emerge as
        soon as they are provably final); ``False`` forces the legacy
        enumerate-sort-cut path.  Modes are bit-identical in output.
        """
        limits = limits or SearchLimits()
        self.stats = stats = ExecutionStats()
        bounded = lower_bound_for(ranker, 1) is not None
        if pushdown is None:
            use_pushdown = bounded and plan.cut.k is not None
        else:
            use_pushdown = pushdown and bounded
        stats.pushdown = use_pushdown

        # Observability is sampled once per run; with both layers off
        # the whole run pays two module-attribute reads and no more.
        # Spans are accumulated as direct children (never pushed on the
        # trace stack) because this generator can suspend mid-span.
        tracing = obs_trace.ENABLED
        metered = obs_metrics.ENABLED
        exec_span = None
        started = 0.0
        cache_hits = cache_misses = shared_hits = shared_misses = 0
        if tracing or metered:
            cache_hits, cache_misses = self.cache.hits, self.cache.misses
            shared_hits, shared_misses = self.shared.hits, self.shared.misses
        if tracing:
            host = obs_trace.current_trace()
            if host is None:
                host = obs_trace.ambient_trace()
            exec_span = host.current().child(
                "executor.execute",
                mode="pushdown" if use_pushdown else "full",
                core=self.core,
            )
            started = time.perf_counter()
        self._exec_span = exec_span

        if self.core == "csr":
            if exec_span is not None:
                t0 = time.perf_counter()
                self._prefetch_distances(plan, limits)
                exec_span.child("prefetch").add_time(time.perf_counter() - t0)
            else:
                self._prefetch_distances(plan, limits)

        if use_pushdown:
            emitter = self._stream_pushdown(plan, ranker, limits)
        else:
            emitter = self._stream_full(plan, ranker, limits)
        try:
            for position, (answer, score) in enumerate(emitter):
                stats.emitted += 1
                yield SearchResult(answer=answer, score=score, rank=position + 1)
        finally:
            # Runs at exhaustion *and* when a streaming consumer closes
            # the generator early — the span/metric totals always land.
            if exec_span is not None:
                exec_span.add_time(time.perf_counter() - started)
                frozen = self.cache._frozen
                exec_span.tag(
                    backend=(
                        frozen.backend_name
                        if self.core == "csr" and frozen is not None
                        else "-"
                    )
                )
                exec_span.add(
                    candidates=stats.candidates,
                    emitted=stats.emitted,
                    shard_skips=stats.shard_skips,
                    pruned=stats.pruned,
                    cache_hits=self.cache.hits - cache_hits,
                    cache_misses=self.cache.misses - cache_misses,
                )
                self._exec_span = None
            if metered:
                registry = obs_metrics.REGISTRY
                registry.inc("executor.runs")
                registry.inc("executor.candidates", stats.candidates)
                registry.inc("executor.emitted", stats.emitted)
                if stats.shard_skips:
                    registry.inc("executor.shard_skips", stats.shard_skips)
                if use_pushdown:
                    registry.inc("executor.pushdown_runs")
                for name, delta in (
                    ("traversal_cache.hits", self.cache.hits - cache_hits),
                    ("traversal_cache.misses", self.cache.misses - cache_misses),
                    ("shared_enum.hits", self.shared.hits - shared_hits),
                    ("shared_enum.misses", self.shared.misses - shared_misses),
                ):
                    if delta:
                        registry.inc(name, delta)
                registry.observe("executor.candidates_per_run", stats.candidates)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _score(
        self, answer: AnswerType, ranker: Ranker, coverage_major: bool
    ) -> tuple[float, ...]:
        self.stats.candidates += 1
        score = ranker.score(answer)
        if coverage_major:
            score = (-_coverage(answer),) + score
        return score

    # ------------------------------------------------------------------
    # shared enumeration streams
    # ------------------------------------------------------------------
    def _path_stream(
        self,
        source: TupleId,
        target: TupleId,
        limits: SearchLimits,
        cache: Optional[TraversalCache] = None,
    ) -> SharedStream:
        cache = cache if cache is not None else self.cache
        key = (
            "paths",
            source,
            target,
            limits.max_rdb_length,
            limits.max_paths_per_pair,
            self.core,
        )
        if self.core == "csr":
            factory = lambda: csr_enumerate_simple_paths(
                self.data_graph,
                source,
                target,
                limits.max_rdb_length,
                max_paths=limits.max_paths_per_pair,
                cache=cache,
            )
        else:
            factory = lambda: enumerate_simple_paths(
                self.data_graph,
                source,
                target,
                limits.max_rdb_length,
                max_paths=limits.max_paths_per_pair,
            )
        return self.shared.stream(key, factory)

    def _tree_stream(
        self,
        required: tuple[TupleId, ...],
        limits: SearchLimits,
        cache: Optional[TraversalCache] = None,
    ) -> SharedStream:
        cache = cache if cache is not None else self.cache
        key = (
            "trees",
            required,
            limits.max_tuples,
            limits.max_networks,
            self.core,
        )
        if self.core == "csr":
            factory = lambda: csr_enumerate_joining_trees(
                self.data_graph,
                list(required),
                limits.max_tuples,
                max_results=limits.max_networks,
                cache=cache,
            )
        else:
            factory = lambda: enumerate_joining_trees(
                self.data_graph,
                list(required),
                limits.max_tuples,
                max_results=limits.max_networks,
            )
        return self.shared.stream(key, factory)

    # ------------------------------------------------------------------
    # source enumeration (legacy order — full mode)
    # ------------------------------------------------------------------
    def _iter_singles(
        self, matches: Sequence[KeywordMatch], op: SingleScan
    ) -> Iterator[SingleTupleAnswer]:
        covered: dict[TupleId, set[str]] = {}
        for index in op.indices:
            match = matches[index]
            for tid in match.tuple_ids:
                covered.setdefault(tid, set()).add(match.keyword)
        for tid, keywords in covered.items():
            yield SingleTupleAnswer(self.data_graph, tid, frozenset(keywords))

    def _pair_singles(
        self, first: KeywordMatch, second: KeywordMatch
    ) -> list[SingleTupleAnswer]:
        """Tuples matching both keywords of a pair, in first-match order."""
        second_set = set(second.tuple_ids)
        return [
            SingleTupleAnswer(
                self.data_graph,
                tid,
                frozenset((first.keyword, second.keyword)),
            )
            for tid in first.tuple_ids
            if tid in second_set
        ]

    def _iter_pair(
        self, matches: Sequence[KeywordMatch], op: PairPaths, limits: SearchLimits
    ) -> Iterator[Connection | SingleTupleAnswer]:
        first, second = matches[op.first], matches[op.second]
        if op.include_single_tuples:
            yield from self._pair_singles(first, second)
        pair = (first, second)
        from repro.scale.shards import CROSS_SHARD

        for source in first.tuple_ids:
            for target in second.tuple_ids:
                if source == target:
                    continue
                shard = self._unit_shard((source, target))
                if shard is CROSS_SHARD:
                    # Different components: the pair can have no paths
                    # (and therefore no budget error either) — exactly
                    # what an unsharded run would discover the slow way.
                    self.stats.shard_skips += 1
                    continue
                stream = self._path_stream(
                    source, target, limits, cache=self._unit_cache(shard)
                )
                for steps in stream:
                    tids = [steps[0].source] + [s.target for s in steps]
                    yield Connection(
                        self.data_graph, steps, _keyword_map(pair, tids)
                    )

    def _network_assignments(
        self, matches: Sequence[KeywordMatch], op: NetworkGrowth
    ) -> Iterator[tuple[dict[str, TupleId], tuple[TupleId, ...]]]:
        picked = [matches[index] for index in op.indices]
        for assignment in product(*(match.tuple_ids for match in picked)):
            keyword_tuples = {
                match.keyword: tid for match, tid in zip(picked, assignment)
            }
            yield keyword_tuples, tuple(dict.fromkeys(assignment))

    def _iter_networks(
        self,
        matches: Sequence[KeywordMatch],
        op: NetworkGrowth,
        limits: SearchLimits,
    ) -> Iterator[JoiningNetwork]:
        from repro.scale.shards import CROSS_SHARD

        seen: set[tuple] = set()
        for keyword_tuples, required in self._network_assignments(matches, op):
            shard = self._unit_shard(required)
            if shard is CROSS_SHARD:
                # A joining tree is connected; tuples in different
                # components can never share one.
                self.stats.shard_skips += 1
                continue
            stream = self._tree_stream(
                required, limits, cache=self._unit_cache(shard)
            )
            for tuple_set in stream:
                key = (tuple_set, tuple(sorted(keyword_tuples.items())))
                if key in seen:
                    continue
                seen.add(key)
                yield JoiningNetwork(self.data_graph, tuple_set, keyword_tuples)

    def _stream_full(
        self, plan: QueryPlan, ranker: Ranker, limits: SearchLimits
    ) -> Iterator[tuple[AnswerType, tuple[float, ...]]]:
        coverage_major = plan.merge.coverage_major
        exec_span = self._exec_span
        answers: list[AnswerType] = []
        for position, op in enumerate(plan.sources):
            if exec_span is not None:
                op_span = exec_span.child(_op_label(op), op=position)
                produced0 = len(answers)
                skips0 = self.stats.shard_skips
                t0 = time.perf_counter()
            if isinstance(op, SingleScan):
                answers.extend(self._iter_singles(plan.matches, op))
            elif isinstance(op, PairPaths):
                answers.extend(self._iter_pair(plan.matches, op, limits))
            else:
                answers.extend(self._iter_networks(plan.matches, op, limits))
            if exec_span is not None:
                op_span.add_time(time.perf_counter() - t0)
                op_span.add(
                    produced=len(answers) - produced0,
                    shard_skips=self.stats.shard_skips - skips0,
                )
        if exec_span is not None:
            t0 = time.perf_counter()
        scored = [
            (answer, self._score(answer, ranker, coverage_major))
            for answer in answers
        ]
        scored.sort(key=lambda pair: (pair[1], pair[0].render()))
        if plan.cut.k is not None:
            scored = scored[: plan.cut.k]
        if exec_span is not None:
            exec_span.child("rank_cut").add_time(time.perf_counter() - t0)
        yield from scored

    # ------------------------------------------------------------------
    # pushdown mode: bound-ordered streaming with early termination
    # ------------------------------------------------------------------
    def _scored_singles(self, answers, ranker, coverage_major):
        scored = [
            (self._score(answer, ranker, coverage_major), answer.render(), answer)
            for answer in answers
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return scored

    def _make_state(self, plan, op, ranker, limits):
        coverage_major = plan.merge.coverage_major
        if isinstance(op, SingleScan):
            return _SinglesState(
                self._scored_singles(
                    self._iter_singles(plan.matches, op), ranker, coverage_major
                )
            )
        if isinstance(op, PairPaths):
            return _PairState(self, plan, op, ranker, limits)
        return _NetworkState(self, plan, op, ranker, limits)

    def _stream_pushdown(
        self, plan: QueryPlan, ranker: Ranker, limits: SearchLimits
    ) -> Iterator[tuple[AnswerType, tuple[float, ...]]]:
        k = plan.cut.k
        if k is not None and k <= 0:
            return
        # Per-op attribution works by stats-counter deltas around each
        # bound()/pull() call (which is where lazy heap setup, shard
        # skips and candidate scoring actually happen), so the state
        # classes stay untouched; disabled mode pays one local-bool
        # branch per call.
        exec_span = self._exec_span
        tracing = exec_span is not None
        stats = self.stats
        states = []
        op_spans = []
        if tracing:
            for position, op in enumerate(plan.sources):
                op_span = exec_span.child(_op_label(op), op=position)
                skips0 = stats.shard_skips
                t0 = time.perf_counter()
                states.append(self._make_state(plan, op, ranker, limits))
                op_span.add_time(time.perf_counter() - t0)
                delta = stats.shard_skips - skips0
                if delta:
                    op_span.add(shard_skips=delta)
                op_spans.append(op_span)
        else:
            states = [
                self._make_state(plan, op, ranker, limits)
                for op in plan.sources
            ]
        buffer: list[tuple] = []  # (score, render, sequence, answer)
        sequence = 0
        emitted = 0
        while True:
            best = None
            best_index = -1
            best_bound = None
            for index, state in enumerate(states):
                if tracing:
                    skips0 = stats.shard_skips
                    t0 = time.perf_counter()
                    bound = state.bound()
                    op_span = op_spans[index]
                    op_span.add_time(time.perf_counter() - t0)
                    delta = stats.shard_skips - skips0
                    if delta:
                        op_span.add(shard_skips=delta)
                else:
                    bound = state.bound()
                if bound is None:
                    continue
                if best_bound is None or bound < best_bound:
                    best_bound = bound
                    best = state
                    best_index = index
            # Everything buffered that strictly beats every remaining
            # bound is final — equal bounds must wait, because an unseen
            # answer could tie the score and win the render tie-break.
            while buffer and (best_bound is None or buffer[0][0] < best_bound):
                score, __, __, answer = heapq.heappop(buffer)
                yield answer, score
                emitted += 1
                if k is not None and emitted >= k:
                    return
            if best is None:
                return
            if tracing:
                candidates0 = stats.candidates
                t0 = time.perf_counter()
                pulled = best.pull()
                op_span = op_spans[best_index]
                op_span.add_time(time.perf_counter() - t0)
                op_span.add(pulls=1)
                delta = stats.candidates - candidates0
                if delta:
                    op_span.add(produced=delta)
            else:
                pulled = best.pull()
            if pulled is not None:
                answer, score = pulled
                heapq.heappush(buffer, (score, answer.render(), sequence, answer))
                sequence += 1


class _SinglesState:
    """Exhaustively pre-scored single-tuple answers (cheap, no traversal)."""

    def __init__(self, scored: list) -> None:
        self._scored = scored
        self._position = 0

    def bound(self) -> Optional[tuple]:
        if self._position >= len(self._scored):
            return None
        return self._scored[self._position][0]

    def pull(self) -> Optional[tuple]:
        score, __, answer = self._scored[self._position]
        self._position += 1
        return answer, score


class _PairState:
    """Pair-path source yielding connections by non-decreasing RDB length.

    Single-tuple answers (AND two-keyword plans) are exact-scored up
    front; they always bound below any path of length >= 1, so the path
    heap — one entry per (source, target) tuple pair, merged by next
    path length — is only initialised once the singles are drained.

    After an entry is consumed its stream re-enters the heap as a
    *placeholder* carrying the consumed length (per-pair streams are
    non-decreasing, so that length stays an admissible bound) and is
    only re-peeked when it reaches the top again — enumeration never
    runs one item past what the emitted results needed, so a budget
    error beyond the top-k is never touched.

    Under the adaptive planner (csr core) the heap is built without
    pulling anything: each pair enters as a :data:`_LAZY` entry on its
    BFS distance — an admissible lower bound on its first path length —
    and its stream is only created when the entry reaches the top.
    Pairs whose distance exceeds ``max_rdb_length`` (incl. disconnected
    pairs) are provably empty and skipped outright.  Because every
    bound is admissible and placeholder re-entry is unchanged, the
    emitted answers, order and scores are bit-identical to the static
    build — cheap pairs just reach the top (and the score lower bound)
    without the expensive pairs ever running their first DFS.
    """

    def __init__(self, executor: Executor, plan, op, ranker, limits) -> None:
        self._executor = executor
        self._ranker = ranker
        self._limits = limits
        self._coverage_major = plan.merge.coverage_major
        first, second = plan.matches[op.first], plan.matches[op.second]
        self._matches = (first, second)
        self._prefix = (-2,) if self._coverage_major else ()
        singles = []
        if op.include_single_tuples:
            singles = executor._pair_singles(first, second)
        self._singles = executor._scored_singles(
            singles, ranker, self._coverage_major
        )
        self._singles_position = 0
        self._heap: Optional[list] = None

    def _ensure_heap(self) -> list:
        if self._heap is None:
            from repro.scale.shards import CROSS_SHARD

            executor = self._executor
            adaptive = executor.adaptive and executor.core == "csr"
            limits = self._limits
            rows: dict = {}
            pruned = 0
            heap = []
            first, second = self._matches
            index = 0
            for source in first.tuple_ids:
                for target in second.tuple_ids:
                    if source == target:
                        continue
                    # Cross-shard pairs would enter the serial heap as
                    # immediately-empty streams; skipping them (while
                    # keeping the global pair index) changes nothing in
                    # the heap's contents or tie-breaking.
                    shard = executor._unit_shard((source, target))
                    if shard is CROSS_SHARD:
                        executor.stats.shard_skips += 1
                        index += 1
                        continue
                    if adaptive:
                        bound = executor._unit_distance(
                            source, target, shard, rows, limits
                        )
                        if bound is not None:
                            if bound > limits.max_rdb_length:
                                # No path fits the length budget: eager
                                # setup would build a stream that yields
                                # nothing (and can raise nothing).
                                executor.stats.pruned += 1
                                pruned += 1
                                index += 1
                                continue
                            heap.append(
                                (bound, index, _LAZY, (source, target, shard))
                            )
                            index += 1
                            continue
                    stream = iter(
                        executor._path_stream(
                            source,
                            target,
                            limits,
                            cache=executor._unit_cache(shard),
                        )
                    )
                    steps = next(stream, None)
                    if steps is not None:
                        heap.append((len(steps), index, steps, stream))
                    index += 1
            heapq.heapify(heap)
            self._heap = heap
            if adaptive:
                executor._note_adaptive(heap, pruned)
        return self._heap

    def bound(self) -> Optional[tuple]:
        if self._singles_position < len(self._singles):
            return self._singles[self._singles_position][0]
        heap = self._ensure_heap()
        if not heap:
            return None
        return self._prefix + lower_bound_for(self._ranker, heap[0][0])

    def pull(self) -> Optional[tuple]:
        if self._singles_position < len(self._singles):
            score, __, answer = self._singles[self._singles_position]
            self._singles_position += 1
            return answer, score
        heap = self._ensure_heap()
        length, index, steps, stream = heapq.heappop(heap)
        if steps is _LAZY:  # adaptive: build the stream at first top
            source, target, shard = stream
            executor = self._executor
            stream = iter(
                executor._path_stream(
                    source,
                    target,
                    self._limits,
                    cache=executor._unit_cache(shard),
                )
            )
            steps = next(stream, None)
            if steps is None:
                return None
            if len(steps) > length:
                heapq.heappush(heap, (len(steps), index, steps, stream))
                return None
        elif steps is None:  # placeholder: re-peek the stream now
            steps = next(stream, None)
            if steps is None:
                return None
            if len(steps) > length:
                heapq.heappush(heap, (len(steps), index, steps, stream))
                return None
        heapq.heappush(heap, (len(steps), index, None, stream))
        tids = [steps[0].source] + [s.target for s in steps]
        answer = Connection(
            self._executor.data_graph, steps, _keyword_map(self._matches, tids)
        )
        return answer, self._executor._score(
            answer, self._ranker, self._coverage_major
        )


class _NetworkState:
    """Network source yielding by non-decreasing tuple count.

    One stream per keyword-tuple assignment (shared by required-tuple
    signature), heap-merged on the size of each stream's next tuple set;
    a network over ``s`` tuples has RDB length ``s - 1``, which drives
    the bound.  Consumed streams re-enter as placeholders (see
    :class:`_PairState`) so growth beyond the emitted top-k never runs.

    Under the adaptive planner (csr core) assignments enter the heap
    lazily on an admissible size bound — ``max(len(required), max
    pairwise BFS distance + 1)`` — and grow their first tree only when
    they reach the top; assignments whose bound exceeds ``max_tuples``
    (incl. tuples in different components) are provably empty and
    skipped.  Bit-identical to the static build for the same reason as
    pair paths.
    """

    def __init__(self, executor: Executor, plan, op, ranker, limits) -> None:
        self._executor = executor
        self._ranker = ranker
        self._limits = limits
        self._coverage_major = plan.merge.coverage_major
        self._prefix = (-len(op.indices),) if self._coverage_major else ()
        from repro.scale.shards import CROSS_SHARD

        adaptive = executor.adaptive and executor.core == "csr"
        rows: dict = {}
        pruned = 0
        self._seen: set[tuple] = set()
        heap = []
        for index, (keyword_tuples, required) in enumerate(
            executor._network_assignments(plan.matches, op)
        ):
            shard = executor._unit_shard(required)
            if shard is CROSS_SHARD:  # index keeps counting: tie-breaks stay global
                executor.stats.shard_skips += 1
                continue
            if adaptive:
                bound = executor._network_bound(
                    required, shard, rows, limits
                )
                if bound is not None:
                    if bound > limits.max_tuples:
                        # Every joining tree over this assignment needs
                        # more tuples than the budget allows (or spans
                        # components): growth would yield nothing.
                        executor.stats.pruned += 1
                        pruned += 1
                        continue
                    heap.append(
                        (bound, index, _LAZY, (required, shard), keyword_tuples)
                    )
                    continue
            stream = iter(
                executor._tree_stream(
                    required, limits, cache=executor._unit_cache(shard)
                )
            )
            tuple_set = next(stream, None)
            if tuple_set is not None:
                heap.append((len(tuple_set), index, tuple_set, stream, keyword_tuples))
        heapq.heapify(heap)
        self._heap = heap
        if adaptive:
            executor._note_adaptive(heap, pruned)

    def bound(self) -> Optional[tuple]:
        if not self._heap:
            return None
        return self._prefix + lower_bound_for(self._ranker, self._heap[0][0] - 1)

    def pull(self) -> Optional[tuple]:
        size, index, tuple_set, stream, keyword_tuples = heapq.heappop(self._heap)
        if tuple_set is _LAZY:  # adaptive: build the stream at first top
            required, shard = stream
            executor = self._executor
            stream = iter(
                executor._tree_stream(
                    required, self._limits, cache=executor._unit_cache(shard)
                )
            )
            tuple_set = next(stream, None)
            if tuple_set is None:
                return None
            if len(tuple_set) > size:
                heapq.heappush(
                    self._heap,
                    (len(tuple_set), index, tuple_set, stream, keyword_tuples),
                )
                return None
        elif tuple_set is None:  # placeholder: re-peek the stream now
            tuple_set = next(stream, None)
            if tuple_set is None:
                return None
            if len(tuple_set) > size:
                heapq.heappush(
                    self._heap,
                    (len(tuple_set), index, tuple_set, stream, keyword_tuples),
                )
                return None
        heapq.heappush(
            self._heap,
            (len(tuple_set), index, None, stream, keyword_tuples),
        )
        key = (tuple_set, tuple(sorted(keyword_tuples.items())))
        if key in self._seen:
            return None
        self._seen.add(key)
        answer = JoiningNetwork(
            self._executor.data_graph, tuple_set, keyword_tuples
        )
        return answer, self._executor._score(
            answer, self._ranker, self._coverage_major
        )
