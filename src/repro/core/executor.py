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
from repro.core.ranking import Ranker, ShapeMemo
from repro.core.search import (
    JoiningNetwork,
    SearchLimits,
    SingleTupleAnswer,
    _keyword_map,
)
from repro.graph.csr import (
    _UNREACHABLE,
    QueryRows,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.fast_traversal import TraversalCache
from repro.obs import trace as obs_trace
from repro.relational.database import TupleId

__all__ = [
    "SearchResult",
    "ExecutionStats",
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
    whether early termination was active.  ``pruned`` counts
    enumeration units (tuple pairs, network assignments) the adaptive
    planner proved empty from distance bounds and never set up.
    """

    candidates: int = 0
    emitted: int = 0
    pushdown: bool = False
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
        self.pruned += other.pruned

    def copy(self) -> "ExecutionStats":
        """A detached copy — the answer-cache hit path makes one per hit,
        several times faster than ``dataclasses.replace``."""
        return ExecutionStats(
            self.candidates, self.emitted, self.pushdown, self.pruned
        )

    def to_dict(self) -> dict:
        """JSON-safe view (CLI ``--json``, trace summaries)."""
        return {
            "candidates": self.candidates,
            "emitted": self.emitted,
            "pushdown": self.pushdown,
            "pruned": self.pruned,
        }


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
    """Runs query plans over one traversal cache, streaming ranked answers."""

    def __init__(
        self,
        cache: TraversalCache,
        *,
        adaptive: bool = True,
        shapes: Optional[ShapeMemo] = None,
    ) -> None:
        #: The compiled graph the csr kernels run on; its data graph
        #: renders answers.
        self.cache = cache
        self.data_graph = cache.data_graph
        #: The engine's shape memo: a schema-level ranker scores each
        #: answer from its shape's facts (:meth:`_scorer`).  ``None``
        #: scores every answer with ``ranker.score``.
        self.shapes = shapes
        #: The run's answer -> score function (:meth:`_scorer`).
        self._score_answer = None
        #: Selectivity-ordered pushdown: enumeration units enter the
        #: state heaps on admissible BFS distance bounds (streams built
        #: lazily, provably-empty units skipped) instead of eagerly
        #: pulling every unit's first item.  Answers are bit-identical
        #: either way — the bounds are admissible, so emission only gets
        #: cheaper.
        self.adaptive = adaptive
        self.stats = ExecutionStats()
        #: The run's distance rows, balls and pair distances.
        self.rows = QueryRows(cache)
        #: Live span of the run in flight (``None`` while tracing is
        #: off or between runs); the mode-specific emitters hang their
        #: per-op and rank/cut children off it.
        self._exec_span = None

    # ------------------------------------------------------------------
    # distance prefetch
    # ------------------------------------------------------------------
    def _prefetch_distances(
        self, plan: QueryPlan, limits: SearchLimits
    ) -> None:
        """Fetch into the run's view (:attr:`rows`) the distance row of
        every source the plan's enumeration units will prune against, as
        one block per radius instead of one probe at a time.

        Blocks are bit-identical to on-demand rows, so answers, order and
        budget points are unchanged.  Rows for units the kernels later
        skip (disconnected or over-budget pairs) may be computed ahead
        of need.
        """
        frozen = self.cache.frozen()
        blocks: dict = {}  # radius -> node ints
        for tid, radius in plan.distance_sources(limits).items():
            node = frozen.node_of(tid)
            if node is not None:
                blocks.setdefault(radius, []).append(node)
        for radius, nodes in blocks.items():
            self.rows.prefetch(nodes, radius)

    # ------------------------------------------------------------------
    # adaptive bounds (selectivity-ordered pushdown)
    # ------------------------------------------------------------------
    def _pair_bounds(self, first, second, limits) -> Iterator[tuple]:
        """``(source, target, bound)`` for every tuple pair of one pair op
        in enumeration order, each list interned once per op.  ``bound``
        is an admissible lower bound on the RDB length of any simple path
        between the two: their BFS distance, exact up to
        ``max_rdb_length`` (:meth:`~repro.graph.csr.QueryRows.distance`,
        memoised for the path kernel's start depth).  ``None`` means no
        bound is available (static planning, or a tuple not interned)
        and the caller must fall back to eager static setup;
        :data:`_UNREACHABLE` proves the pair yields nothing within the
        budget.
        """
        node_of = self.cache.frozen().node_of
        targets = [(target, node_of(target)) for target in second]
        for source in first:
            src = node_of(source)
            for target, dst in targets:
                if source == target:
                    continue
                if not self.adaptive or src is None or dst is None:
                    yield source, target, None
                else:
                    yield source, target, self.rows.distance(
                        src, dst, limits.max_rdb_length
                    )

    def _network_bound(self, nodes, limits) -> Optional[int]:
        """Admissible lower bound on the tuple count of any joining tree
        over the required tuples' interned ``nodes``: a connected tree
        must contain a path between its two farthest required tuples, so
        it holds at least ``max(len(nodes), max pairwise BFS distance +
        1)`` tuples.  ``None`` → fall back to eager setup;
        :data:`_UNREACHABLE` → provably no tree fits ``max_tuples`` (rows
        reach ``max_tuples - 1`` levels, the radius the tree kernel uses).
        """
        if None in nodes:
            return None
        radius = limits.max_tuples - 1
        bound = len(nodes)
        for position, node in enumerate(nodes[:-1]):
            row = self.rows.row(node, radius)
            for other in nodes[position + 1:]:
                distance = row[other]
                if distance > radius:
                    return _UNREACHABLE
                if distance + 1 > bound:
                    bound = distance + 1
        return bound

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
        self.rows = QueryRows(self.cache)
        self._score_answer = self._scorer(ranker)
        bounded = lower_bound_for(ranker, 1) is not None
        if pushdown is None:
            use_pushdown = bounded and plan.cut.k is not None
        else:
            use_pushdown = pushdown and bounded
        stats.pushdown = use_pushdown

        # Tracing is sampled once per run; off, the whole run pays one
        # module-attribute read.  Spans are accumulated as direct
        # children (never pushed on the trace stack) because this
        # generator can suspend mid-span.
        exec_span = None
        started = 0.0
        cache_hits = cache_misses = 0
        if obs_trace.ENABLED:
            cache_hits, cache_misses = self.cache.hits, self.cache.misses
            host = obs_trace.current_trace()
            if host is None:
                host = obs_trace.ambient_trace()
            exec_span = host.current().child(
                "executor.execute",
                mode="pushdown" if use_pushdown else "full",
            )
            started = time.perf_counter()
        self._exec_span = exec_span

        t0 = time.perf_counter()
        self._prefetch_distances(plan, limits)
        if exec_span is not None:
            exec_span.child("prefetch").add_time(time.perf_counter() - t0)

        if use_pushdown:
            emitter = self._stream_pushdown(plan, ranker, limits)
        else:
            emitter = self._stream_full(plan, limits)
        try:
            for position, (answer, score) in enumerate(emitter):
                stats.emitted += 1
                yield SearchResult(answer=answer, score=score, rank=position + 1)
        finally:
            # Runs at exhaustion *and* when a streaming consumer closes
            # the generator early — the span totals always land.
            if exec_span is not None:
                exec_span.add_time(time.perf_counter() - started)
                exec_span.add(
                    candidates=stats.candidates,
                    emitted=stats.emitted,
                    pruned=stats.pruned,
                    cache_hits=self.cache.hits - cache_hits,
                    cache_misses=self.cache.misses - cache_misses,
                )
                self._exec_span = None

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _scorer(self, ranker: Ranker):
        """``ranker.score``, or — for a schema-level ranker on an executor
        holding a memo — its ``score_shape`` of the answer's memoised
        :class:`~repro.core.ranking.ShapeFacts`: equal values, each
        shape's facts computed once."""
        if self.shapes is None or not getattr(ranker, "schema_level", False):
            return ranker.score
        facts = self.shapes.facts
        score_shape = ranker.score_shape
        return lambda answer: score_shape(facts(answer))

    def _score(
        self, answer: AnswerType, coverage_major: bool
    ) -> tuple[float, ...]:
        self.stats.candidates += 1
        score = self._score_answer(answer)
        if coverage_major:
            score = (-_coverage(answer),) + score
        return score

    # ------------------------------------------------------------------
    # enumeration streams
    # ------------------------------------------------------------------
    def _path_stream(
        self, source: TupleId, target: TupleId, limits: SearchLimits
    ) -> Iterator:
        return csr_enumerate_simple_paths(
            self.cache, source, target, limits.max_rdb_length,
            max_paths=limits.max_paths_per_pair, rows=self.rows,
        )

    def _tree_stream(
        self, required: tuple[TupleId, ...], limits: SearchLimits
    ) -> Iterator:
        return csr_enumerate_joining_trees(
            self.cache, list(required), limits.max_tuples,
            max_results=limits.max_networks, rows=self.rows,
        )

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
        for source in first.tuple_ids:
            for target in second.tuple_ids:
                if source == target:
                    continue
                for steps in self._path_stream(source, target, limits):
                    tids = [steps[0].source] + [s.target for s in steps]
                    yield Connection(
                        self.cache, steps, _keyword_map(pair, tids)
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
        seen: set[tuple] = set()
        for keyword_tuples, required in self._network_assignments(matches, op):
            for tuple_set in self._tree_stream(required, limits):
                key = (tuple_set, tuple(sorted(keyword_tuples.items())))
                if key in seen:
                    continue
                seen.add(key)
                yield JoiningNetwork(self.cache, tuple_set, keyword_tuples)

    def _stream_full(
        self, plan: QueryPlan, limits: SearchLimits
    ) -> Iterator[tuple[AnswerType, tuple[float, ...]]]:
        coverage_major = plan.merge.coverage_major
        exec_span = self._exec_span
        answers: list[AnswerType] = []
        for position, op in enumerate(plan.sources):
            if exec_span is not None:
                op_span = exec_span.child(_op_label(op), op=position)
                produced0 = len(answers)
                t0 = time.perf_counter()
            if isinstance(op, SingleScan):
                answers.extend(self._iter_singles(plan.matches, op))
            elif isinstance(op, PairPaths):
                answers.extend(self._iter_pair(plan.matches, op, limits))
            else:
                answers.extend(self._iter_networks(plan.matches, op, limits))
            if exec_span is not None:
                op_span.add_time(time.perf_counter() - t0)
                op_span.add(produced=len(answers) - produced0)
        if exec_span is not None:
            t0 = time.perf_counter()
        scored = [
            (answer, self._score(answer, coverage_major)) for answer in answers
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
    def _scored_singles(self, answers, coverage_major):
        scored = [
            (self._score(answer, coverage_major), answer.render(), answer)
            for answer in answers
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return scored

    def _make_state(self, plan, op, ranker, limits):
        coverage_major = plan.merge.coverage_major
        if isinstance(op, SingleScan):
            return _SinglesState(
                self._scored_singles(
                    self._iter_singles(plan.matches, op), coverage_major
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
        # Per-op attribution works by timing each bound()/pull() call
        # and taking candidate-counter deltas around pull() (which is
        # where lazy heap setup and candidate scoring actually happen),
        # so the state classes stay untouched; disabled mode pays one
        # local-bool branch per call.
        exec_span = self._exec_span
        tracing = exec_span is not None
        stats = self.stats
        states = []
        op_spans = []
        if tracing:
            for position, op in enumerate(plan.sources):
                op_span = exec_span.child(_op_label(op), op=position)
                t0 = time.perf_counter()
                states.append(self._make_state(plan, op, ranker, limits))
                op_span.add_time(time.perf_counter() - t0)
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
                    t0 = time.perf_counter()
                    bound = state.bound()
                    op_spans[index].add_time(time.perf_counter() - t0)
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

    Under the adaptive planner the heap is built without
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
        self._singles = executor._scored_singles(singles, self._coverage_major)
        self._singles_position = 0
        self._heap: Optional[list] = None

    def _ensure_heap(self) -> list:
        if self._heap is None:
            executor = self._executor
            limits = self._limits
            heap = []
            first, second = self._matches
            for index, (source, target, bound) in enumerate(
                executor._pair_bounds(first.tuple_ids, second.tuple_ids, limits)
            ):
                if bound is not None:
                    if bound > limits.max_rdb_length:
                        # No path fits the length budget: eager setup
                        # would build a stream that yields nothing (and
                        # can raise nothing).
                        executor.stats.pruned += 1
                        continue
                    heap.append((bound, index, _LAZY, (source, target)))
                    continue
                stream = executor._path_stream(source, target, limits)
                steps = next(stream, None)
                if steps is not None:
                    heap.append((len(steps), index, steps, stream))
            heapq.heapify(heap)
            self._heap = heap
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
            stream = self._executor._path_stream(*stream, self._limits)
            steps = None
        if steps is None:  # first top, or a placeholder: peek the stream now
            steps = next(stream, None)
            if steps is None:
                return None
            if len(steps) > length:
                heapq.heappush(heap, (len(steps), index, steps, stream))
                return None
        heapq.heappush(heap, (len(steps), index, None, stream))
        tids = [steps[0].source] + [s.target for s in steps]
        answer = Connection(
            self._executor.cache, steps, _keyword_map(self._matches, tids)
        )
        return answer, self._executor._score(answer, self._coverage_major)


class _NetworkState:
    """Network source yielding by non-decreasing tuple count.

    One stream per keyword-tuple assignment, heap-merged on the size of
    each stream's next tuple set; a network over ``s`` tuples has RDB
    length ``s - 1``, which drives the bound.  Consumed streams re-enter
    as placeholders (see :class:`_PairState`) so growth beyond the
    emitted top-k never runs.

    Under the adaptive planner assignments enter the heap
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
        adaptive = executor.adaptive
        self._seen: set[tuple] = set()
        heap = []
        node_of = executor.cache.frozen().node_of
        nodes = {tid: node_of(tid) for index in op.indices
                 for tid in plan.matches[index].tuple_ids}
        for index, (keyword_tuples, required) in enumerate(
            executor._network_assignments(plan.matches, op)
        ):
            if adaptive:
                bound = executor._network_bound(
                    [nodes[tid] for tid in required], limits
                )
                if bound is not None:
                    if bound > limits.max_tuples:
                        # Every joining tree over this assignment needs
                        # more tuples than the budget allows (or spans
                        # components): growth would yield nothing.
                        executor.stats.pruned += 1
                        continue
                    heap.append(
                        (bound, index, _LAZY, required, keyword_tuples)
                    )
                    continue
            stream = executor._tree_stream(required, limits)
            tuple_set = next(stream, None)
            if tuple_set is not None:
                heap.append((len(tuple_set), index, tuple_set, stream, keyword_tuples))
        heapq.heapify(heap)
        self._heap = heap

    def bound(self) -> Optional[tuple]:
        if not self._heap:
            return None
        return self._prefix + lower_bound_for(self._ranker, self._heap[0][0] - 1)

    def pull(self) -> Optional[tuple]:
        size, index, tuple_set, stream, keyword_tuples = heapq.heappop(self._heap)
        if tuple_set is _LAZY:  # adaptive: build the stream at first top
            stream = self._executor._tree_stream(stream, self._limits)
            tuple_set = None
        if tuple_set is None:  # first top, or a placeholder: peek the stream now
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
        answer = JoiningNetwork(self._executor.cache, tuple_set, keyword_tuples)
        return answer, self._executor._score(answer, self._coverage_major)
