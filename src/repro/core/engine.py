"""The :class:`KeywordSearchEngine` facade — the library's main entry point.

The engine owns the derived structures (data graph, inverted index) of one
database instance and answers keyword queries ranked by a configurable
strategy:

>>> from repro.datasets.company import build_company_database   # doctest: +SKIP
>>> engine = KeywordSearchEngine(build_company_database())      # doctest: +SKIP
>>> results = engine.search("Smith XML")                        # doctest: +SKIP
>>> results[0].answer.render()                                  # doctest: +SKIP
'd1(xml) – e1(smith)'

Queries with two keywords produce path answers (the paper's connections);
queries with one keyword produce the matching tuples; queries with three or
more keywords produce joining networks.  All enumeration bounds live in
:class:`~repro.core.search.SearchLimits`.

Every query — AND or OR, any keyword count, with or without ``top_k`` —
runs through one pipeline: :func:`~repro.core.plan.plan_query` compiles
the resolved matches into a :class:`~repro.core.plan.QueryPlan` and a
:class:`~repro.core.executor.Executor` streams its ranked answers.
``search`` materialises the stream, :meth:`search_stream` exposes it
incrementally, and ``search_batch`` answers a repeated text once.

The engine is live-updatable: :meth:`apply` routes a validated mutation
batch through :mod:`repro.live`, patching the index, graph and caches
in place and invalidating exactly the affected entries of the
dependency-tracked answer cache (:attr:`result_cache`); results stay
bit-identical to a freshly rebuilt engine, and :meth:`rebuild` remains
the escape hatch.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

from repro.core.ambiguity import is_instance_close
from repro.core.connections import Connection
from repro.core.executor import ExecutionStats, Executor, SearchResult
from repro.core.matching import KeywordMatch, match_keywords, parse_query
from repro.core.plan import QueryPlan, plan_query
from repro.core.ranking import ClosenessRanker, Ranker
from repro.core.search import JoiningNetwork, SearchLimits, SingleTupleAnswer
from repro.durable import fault
from repro.errors import MutationError, QueryError, WalError
from repro.graph.csr import resolve_core
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.live.changes import (
    ChangeSet,
    Mutation,
    apply_to_database,
    changeset_to_record,
)
from repro.live.maintain import affected_tuples, apply_changeset
from repro.live.result_cache import CacheEntry, ResultCache
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.planner.cost import CostModel
from repro.relational.database import Database
from repro.relational.index import InvertedIndex

__all__ = ["SearchResult", "KeywordSearchEngine"]

AnswerType = Union[Connection, JoiningNetwork, SingleTupleAnswer]


class KeywordSearchEngine:
    """Keyword search over one database with close/loose-aware ranking."""

    def __init__(
        self,
        database: Database,
        ranker: Optional[Ranker] = None,
        limits: SearchLimits = SearchLimits(),
        result_cache_entries: int = 256,
        core: Optional[str] = None,
        adaptive: bool = True,
    ) -> None:
        self._wire(
            database=database,
            data_graph=DataGraph(database),
            index=InvertedIndex(database),
            traversal_cache=None,
            ranker=ranker,
            limits=limits,
            result_cache_entries=result_cache_entries,
            core=core,
            adaptive=adaptive,
            version=0,
        )

    def _wire(
        self,
        *,
        database: Database,
        data_graph: DataGraph,
        index: InvertedIndex,
        traversal_cache: Optional[TraversalCache],
        ranker: Optional[Ranker],
        limits: SearchLimits,
        result_cache_entries: int,
        core: Optional[str],
        version: int,
        adaptive: bool = True,
    ) -> None:
        """Shared field wiring of cold construction and snapshot restore."""
        self.database = database
        self.data_graph = data_graph
        self.index = index
        self.ranker = ranker or ClosenessRanker()
        self.limits = limits
        #: Traversal kernel every query runs on: ``csr`` (compiled
        #: integer kernels, the default) or ``reference`` (the
        #: brute-force networkx oracle) — answers are bit-identical.
        self.core = resolve_core(core)
        self.traversal_cache = (
            traversal_cache
            if traversal_cache is not None
            else TraversalCache(self.data_graph)
        )
        #: Cost-based adaptive planning (see :mod:`repro.planner`):
        #: pushdown enumeration drains units by admissible distance
        #: bounds and plans carry cost estimates.  Answers are
        #: bit-identical either way; ``adaptive=False`` restores the
        #: static order as the differential oracle.
        self.adaptive = adaptive
        self._cost_model = None
        #: Counters of the most recent search/stream/batch call (the
        #: CLI's ``--top`` report and the end-to-end benchmark read them).
        self.last_stats = ExecutionStats()
        #: :class:`~repro.obs.trace.QueryTrace` of the most recent
        #: search/stream/batch/explain call while tracing is enabled
        #: (``repro.obs.set_enabled``); ``None`` otherwise.
        self.last_trace = None
        #: Monotonically increasing engine state version; every
        #: :meth:`apply` batch and every :meth:`rebuild` bumps it.
        self.version = version
        #: Dependency-tracked answer cache consulted by ``search``,
        #: ``search_batch`` and ``search_stream``; ``apply`` invalidates
        #: exactly the entries a changeset can affect.  Pass
        #: ``result_cache_entries=0`` to disable.
        self.result_cache = ResultCache(result_cache_entries)
        # Corpus statistics (see the `statistics` property): restored
        # lazily from a snapshot; dropped by apply()/rebuild() because
        # instance statistics move with the data.
        self._statistics = None
        self._statistics_loader = None
        #: Snapshot bookkeeping: the path this engine was opened from or
        #: last saved to, and the engine version / content generation it
        #: held at that moment.
        self.snapshot_path: Optional[str] = None
        self._snapshot_version: Optional[int] = None
        self._snapshot_generation: Optional[str] = None
        self._snapshot = None
        #: Attached :class:`~repro.durable.wal.WriteAheadLog`, or
        #: ``None``.  While attached, every :meth:`apply` batch is made
        #: durable before any in-memory structure is patched.  The WAL
        #: stays paired with the snapshot it was attached against
        #: (:attr:`_wal_snapshot_path`), which internal autosaves never
        #: touch.
        self.wal = None
        self._wal_snapshot_path: Optional[str] = None
        self._searcher = None
        self._searcher_key = None
        self._autosave_dir = None

    @classmethod
    def _from_parts(
        cls,
        *,
        database: Database,
        data_graph: DataGraph,
        index: InvertedIndex,
        traversal_cache: TraversalCache,
        ranker: Optional[Ranker] = None,
        limits: SearchLimits = SearchLimits(),
        result_cache_entries: int = 256,
        core: Optional[str] = None,
        version: int = 0,
        adaptive: bool = True,
    ) -> "KeywordSearchEngine":
        """Assemble an engine from restored structures (snapshot path)."""
        engine = cls.__new__(cls)
        engine._wire(
            database=database,
            data_graph=data_graph,
            index=index,
            traversal_cache=traversal_cache,
            ranker=ranker,
            limits=limits,
            result_cache_entries=result_cache_entries,
            core=core,
            version=version,
            adaptive=adaptive,
        )
        return engine

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def match(self, query: str) -> tuple[KeywordMatch, ...]:
        """Resolve a query's keywords without searching for connections."""
        return match_keywords(self.index, parse_query(query))

    def plan(
        self,
        query: str,
        top_k: Optional[int] = None,
        semantics: str = "and",
    ) -> QueryPlan:
        """Compile a query into its :class:`~repro.core.plan.QueryPlan`."""
        plan, __ = self._plan(query, top_k, semantics)
        return plan

    def _plan(
        self, query: str, top_k: Optional[int], semantics: str
    ) -> tuple[QueryPlan, tuple[KeywordMatch, ...]]:
        if semantics not in ("and", "or"):
            raise QueryError("semantics must be 'and' or 'or'", got=semantics)
        matches = self.match(query)
        plan = plan_query(matches, semantics=semantics, top_k=top_k)
        if self.adaptive and plan.sources:
            # Advisory annotation only: estimates order/report,
            # never filter — plan shape and answers are untouched.
            plan = self._ensure_cost_model().annotate(plan)
        return plan, matches

    def _ensure_cost_model(self) -> CostModel:
        """The engine's cost model, built on first use."""
        if self._cost_model is None:
            self._cost_model = CostModel(
                index=self.index, statistics=lambda: self.statistics
            )
        return self._cost_model

    def query_cost(self, query: str, semantics: str = "and") -> float:
        """Predicted execution cost of one query.

        Computed from posting lengths and fan-outs alone — no matching,
        no enumeration — so a caller can weigh a query before any work
        runs.
        """
        try:
            keywords = parse_query(query)
        except QueryError:
            return 1.0
        return self._ensure_cost_model().query_cost(keywords, semantics)

    @property
    def statistics(self):
        """Corpus statistics of this engine's instance, or ``None``.

        Restored (lazily) when the engine was opened from a snapshot;
        :meth:`apply` and :meth:`rebuild` drop them because instance
        statistics move with the data.  Assign a fresh
        :class:`~repro.relational.statistics.DatabaseStatistics` to
        attach recomputed values.
        """
        if self._statistics is None and self._statistics_loader is not None:
            self._statistics = self._statistics_loader()
        return self._statistics

    @statistics.setter
    def statistics(self, value) -> None:
        self._statistics = value
        if value is None:
            self._statistics_loader = None

    def _executor(self) -> Executor:
        return Executor(
            self.traversal_cache, core=self.core, adaptive=self.adaptive
        )

    # ------------------------------------------------------------------
    # answer cache plumbing
    # ------------------------------------------------------------------
    def _cache_key(
        self,
        query: str,
        ranker: Ranker,
        limits: SearchLimits,
        top_k: Optional[int],
        semantics: str,
        pushdown: Optional[bool],
    ) -> Optional[Hashable]:
        # SearchLimits is a frozen dataclass, so the whole value is the
        # key component — a future budget field can never be silently
        # missing.  The built-in rankers are value-repr'd dataclasses,
        # so equal configurations share entries while differently-
        # parameterised ones never collide; a ranker whose repr leaks an
        # object address (default object repr — e.g. a held TfIdfScorer)
        # has no stable value identity, and an id-based key could collide
        # with a later object at a recycled address, so such queries stay
        # uncached (None key).
        if self.result_cache.max_entries <= 0:
            return None
        if getattr(ranker, "uses_corpus_stats", False):
            # Scores move with corpus-wide statistics; any changeset would
            # drop the entry anyway, so skip caching (and skip the repr,
            # which for such rankers can serialize held match sets).
            return None
        identity = repr(ranker)
        if " at 0x" in identity:
            return None
        return (
            query,
            semantics,
            top_k,
            pushdown,
            limits,
            getattr(ranker, "name", type(ranker).__name__),
            identity,
        )

    def _cache_store(
        self,
        key: Hashable,
        ranker: Ranker,
        matches: Sequence[KeywordMatch],
        results: Sequence[SearchResult],
        stats: ExecutionStats,
    ) -> None:
        # The key (see _cache_key) already names what bounds the
        # entry's structural dependencies.
        __, semantics, __, __, limits, __, __ = key
        footprint: set = set()
        for match in matches:
            footprint.update(match.tuple_ids)
        for result in results:
            footprint.update(result.answer.tuple_ids())
        # Corpus-stats rankers never reach here — _cache_key already
        # declared them uncacheable.  A ranker that scores from the
        # instance around an answer is cached volatile: bounded taint
        # only covers what the answers themselves are built from.
        self.result_cache.store(
            key,
            CacheEntry(
                results=tuple(results),
                stats=replace(stats),
                keywords=tuple(match.keyword for match in matches),
                footprint=frozenset(footprint),
                fingerprint=tuple(match.tuple_ids for match in matches),
                volatile=getattr(ranker, "reads_neighbourhood", False),
                semantics=semantics,
                limits=limits,
            ),
        )

    def search(
        self,
        query: str,
        ranker: Optional[Ranker] = None,
        limits: Optional[SearchLimits] = None,
        top_k: Optional[int] = None,
        semantics: str = "and",
        pushdown: Optional[bool] = None,
    ) -> list[SearchResult]:
        """Answer a keyword query, best answers first.

        AND semantics (default): every keyword must be covered by every
        answer; a keyword with no matches yields an empty result list.

        OR semantics (``semantics="or"``): answers may cover any non-empty
        keyword subset — single matching tuples always qualify, connections
        and networks add multi-keyword coverage.  Results are ordered by
        keyword coverage first (more covered keywords rank higher), the
        ranker's score second.

        With ``top_k`` and a ranker that has a score lower bound, the
        executor pushes the cut into enumeration and stops early — the
        results stay bit-identical to enumerate-sort-cut, but a budget
        that full enumeration would exceed may never be reached.  Pass
        ``pushdown=False`` to force full enumeration (exact legacy
        budget-error behaviour), ``True`` to force bound-ordered
        streaming.

        Results are served from :attr:`result_cache` when a live entry
        exists for the exact query identity; ``apply`` keeps the cache
        consistent, so a hit is always bit-identical to a fresh run.
        """
        ranker = ranker or self.ranker
        limits = limits or self.limits
        qtrace = None
        if obs_trace.ENABLED:
            qtrace = obs_trace.begin_trace(
                "query", query=query, semantics=semantics
            )
            self.last_trace = qtrace
        try:
            key = self._cache_key(
                query, ranker, limits, top_k, semantics, pushdown
            )
            with obs_trace.span("result_cache.lookup") as lookup_span:
                entry = (
                    self.result_cache.lookup(key) if key is not None else None
                )
                if lookup_span is not None:
                    lookup_span.tag(hit=entry is not None)
            if entry is not None:
                self.last_stats = replace(entry.stats)
                return list(entry.results)
            with obs_trace.span("plan.compile"):
                plan, matches = self._plan(query, top_k, semantics)
            version = self.version
            executor = self._executor()
            results = executor.run(plan, ranker, limits, pushdown=pushdown)
            self.last_stats = executor.stats
            if key is not None and self.version == version:
                self._cache_store(key, ranker, matches, results, executor.stats)
            return results
        finally:
            if qtrace is not None:
                obs_trace.end_trace(qtrace)

    def search_stream(
        self,
        query: str,
        ranker: Optional[Ranker] = None,
        limits: Optional[SearchLimits] = None,
        top_k: Optional[int] = None,
        semantics: str = "and",
        pushdown: Optional[bool] = None,
    ) -> Iterator[SearchResult]:
        """Answer a query incrementally, yielding ranked answers as the
        executor proves them final.

        Identical results in identical order to :meth:`search`; with a
        bounded ranker the first answers arrive before enumeration
        finishes, and a ``top_k`` cut stops enumeration early.  Rankers
        without a lower bound degrade to materialise-then-yield.
        ``last_stats`` is final once the iterator is exhausted.

        A live answer-cache entry replays instantly; a fully consumed
        stream populates the cache (an abandoned one does not — its
        enumeration may be incomplete).
        """
        ranker = ranker or self.ranker
        limits = limits or self.limits
        qtrace = None
        if obs_trace.ENABLED:
            qtrace = obs_trace.begin_trace(
                "query.stream", query=query, semantics=semantics
            )
            self.last_trace = qtrace
        try:
            key = self._cache_key(
                query, ranker, limits, top_k, semantics, pushdown
            )
            version = self.version
            with obs_trace.span("result_cache.lookup") as lookup_span:
                entry = (
                    self.result_cache.lookup(key) if key is not None else None
                )
                if lookup_span is not None:
                    lookup_span.tag(hit=entry is not None)
            if entry is not None:
                self.last_stats = replace(entry.stats)
                for result in entry.results:
                    self._check_stream_version(version)
                    yield result
                return
            with obs_trace.span("plan.compile"):
                plan, matches = self._plan(query, top_k, semantics)
            executor = self._executor()
            # Buffered only while a cache store is still possible — an
            # uncacheable query keeps the O(1) streaming memory profile.
            collected: Optional[list[SearchResult]] = (
                [] if key is not None else None
            )
            stream = executor.stream(plan, ranker, limits, pushdown=pushdown)
            try:
                while True:
                    # Checked on every resume, before the executor touches
                    # state an interleaved apply() may have mutated.
                    self._check_stream_version(version)
                    try:
                        result = next(stream)
                    except StopIteration:
                        break
                    self.last_stats = executor.stats
                    if collected is not None:
                        collected.append(result)
                    yield result
            finally:
                # Capture the run's counters even when the stream yields
                # nothing or the consumer stops early (stream() replaces
                # executor.stats once it starts running).  Close the
                # executor's generator inside the trace window so its
                # span totals land on this query's trace, not ambient.
                stream.close()
                self.last_stats = executor.stats
            if collected is not None and self.version == version:
                self._cache_store(key, ranker, matches, collected, executor.stats)
        finally:
            if qtrace is not None:
                obs_trace.end_trace(qtrace)

    def _check_stream_version(self, version: int) -> None:
        """Refuse to keep streaming across an interleaved mutation.

        A live ``search_stream`` iterator enumerates against the engine
        state it started from; once ``apply`` (or ``rebuild``) has run,
        continuing could yield answers referencing deleted tuples — the
        opposite of the bit-identical-to-rebuilt contract.  Restart the
        stream after mutating.
        """
        if self.version != version:
            raise MutationError(
                "engine mutated while a search stream was being consumed; "
                "restart the stream",
                started_at_version=version,
                engine_version=self.version,
            )

    def search_batch(
        self,
        queries: Sequence[str],
        ranker: Optional[Ranker] = None,
        limits: Optional[SearchLimits] = None,
        top_k: Optional[int] = None,
        semantics: str = "and",
        pushdown: Optional[bool] = None,
        jobs: Optional[int] = None,
    ) -> list[list[SearchResult]]:
        """Answer many queries, one result list per query (input order).

        Each query is answered exactly as :meth:`search` would — the win
        is amortisation, not approximation, on two levels: all queries
        share the engine's
        :class:`~repro.graph.fast_traversal.TraversalCache` (the compiled
        graph and its distance rows survive across queries), and a query
        text appearing several times is searched once with its result
        list reused.

        ``jobs`` > 1 changes only who answers the answer-cache misses:
        a process pool (:mod:`repro.scale.parallel`) whose workers each
        open the engine's snapshot once (auto-saved to a temporary file
        when the engine was never saved, refreshed after mutations) and
        answer whole queries with the same core configuration.  Lookups,
        stores, results, order and the first raised error are those of
        the serial path; ``last_stats`` merges the workers' counters.
        """
        ranker = ranker or self.ranker
        limits = limits or self.limits
        pooled = jobs is not None and jobs > 1
        stats = ExecutionStats()
        resolved: dict[str, list[SearchResult]] = {}
        misses: list[tuple[str, Hashable]] = []
        qtrace = None
        if obs_trace.ENABLED:
            tags = {"jobs": jobs} if pooled else {}
            qtrace = obs_trace.begin_trace(
                "query.batch", queries=len(queries), semantics=semantics, **tags
            )
            self.last_trace = qtrace
        try:
            for query in dict.fromkeys(queries):
                key = self._cache_key(
                    query, ranker, limits, top_k, semantics, pushdown
                )
                with obs_trace.span(
                    "result_cache.lookup", query=query
                ) as lookup_span:
                    entry = (
                        self.result_cache.lookup(key)
                        if key is not None
                        else None
                    )
                    if lookup_span is not None:
                        lookup_span.tag(hit=entry is not None)
                if entry is not None:
                    resolved[query] = list(entry.results)
                    stats.merge(entry.stats)
                elif pooled:
                    misses.append((query, key))
                else:
                    with obs_trace.span("plan.compile", query=query):
                        plan, matches = self._plan(query, top_k, semantics)
                    version = self.version
                    executor = self._executor()
                    resolved[query] = executor.run(
                        plan, ranker, limits, pushdown=pushdown
                    )
                    stats.merge(executor.stats)
                    if key is not None and self.version == version:
                        self._cache_store(
                            key, ranker, matches,
                            resolved[query], executor.stats,
                        )
            if misses:
                self._answer_on_pool(
                    misses, jobs, stats, resolved,
                    {
                        "ranker": ranker,
                        "limits": limits,
                        "top_k": top_k,
                        "semantics": semantics,
                        "pushdown": pushdown,
                    },
                )
        finally:
            if qtrace is not None:
                obs_trace.end_trace(qtrace)
        self.last_stats = stats
        return [resolved[query] for query in queries]

    def _answer_on_pool(self, misses, jobs, stats, resolved, options) -> None:
        """Answer ``search_batch``'s cache misses on the worker pool.

        Successes are revived and cached exactly as the serial loop
        would have cached them; the first failing query (in input
        order) re-raises its worker error after the queries before it
        committed.
        """
        from repro.scale.parallel import revive_result

        searcher = self._ensure_searcher(jobs)
        outcomes = searcher.run([query for query, __ in misses], options)
        for query, key in misses:
            status, payload, worker_stats = outcomes[query]
            if status == "error":
                self.last_stats = stats
                raise payload
            resolved[query] = [
                revive_result(self.traversal_cache, portable, score, rank + 1)
                for rank, (portable, score) in enumerate(payload)
            ]
            stats.merge(worker_stats)
            if key is not None:
                self._cache_store(
                    key, options["ranker"], self.match(query),
                    resolved[query], worker_stats,
                )

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply(self, mutations: Iterable[Mutation]) -> ChangeSet:
        """Apply one mutation batch and keep every derived structure live.

        The batch (``Insert`` / ``Update`` / ``Delete`` from
        :mod:`repro.live.changes`) is validated against key and
        foreign-key constraints and applied atomically — on failure the
        database rolls back and nothing else changes.  On success the
        net :class:`~repro.live.changes.ChangeSet` is applied in place
        to the inverted index, the data graph and the traversal cache
        (fine-grained: compiled rows patch from the edge deltas, only
        distance rows the change falls inside drop), the answer cache
        drops only entries whose matched tuples lie within answer reach
        of the change, and the engine
        :attr:`version` is bumped and stamped onto the returned
        changeset.  Results after ``apply`` are bit-identical to a
        freshly rebuilt engine; ``rebuild()`` stays available as the
        escape hatch.

        With a WAL attached (:meth:`attach_wal`) the batch is appended
        to the log — and fsynced — *before* any in-memory structure is
        patched, so a crash at any instant after the append can replay
        it; a crash during the append loses at most this batch, never
        an earlier one.
        """
        changeset = apply_to_database(self.database, mutations)
        if self.wal is not None:
            # Every batch gets a record — empty ones too — so the
            # replayed version counter matches the live engine exactly.
            self.wal.append(
                changeset_to_record(changeset, self.database, self.version + 1)
            )
            fault.maybe("wal.append")
        if not changeset.is_empty():
            with obs_trace.span("live.apply"):
                apply_changeset(
                    changeset,
                    self.database,
                    index=self.index,
                    data_graph=self.data_graph,
                    traversal_cache=self.traversal_cache,
                )
            if len(self.result_cache):
                # Tainting costs a bounded BFS; with no live entries
                # there is nothing it could invalidate.
                with obs_trace.span("result_cache.invalidate") as inv_span:
                    dropped = self.result_cache.invalidate(
                        changeset,
                        affected_tuples(
                            self.traversal_cache,
                            changeset,
                            self.result_cache.reach(),
                        ),
                        self.index,
                    )
                    if inv_span is not None:
                        inv_span.add(dropped=dropped)
            # Instance statistics move with the data; recomputed lazily.
            self.statistics = None
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("engine.changesets_applied")
        self.version += 1
        changeset.version = self.version
        return changeset

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def explain_analyze(
        self,
        query: str,
        ranker: Optional[Ranker] = None,
        limits: Optional[SearchLimits] = None,
        top_k: Optional[int] = None,
        semantics: str = "and",
        pushdown: Optional[bool] = None,
        jobs: Optional[int] = None,
    ):
        """Run a query with tracing forced on and fuse its plan with the
        collected trace into a per-node report.

        Returns an :class:`~repro.obs.explain.ExplainReport` — call
        ``.render()`` for the table, ``.results`` for the (bit-identical)
        answers, ``.trace`` for the raw spans.  ``jobs > 1`` additionally
        routes one pass through the worker pool so the report carries the
        pooled trace (one adopted root per worker chunk).
        """
        from repro.obs.explain import analyze

        return analyze(
            self,
            query,
            ranker=ranker,
            limits=limits,
            top_k=top_k,
            semantics=semantics,
            pushdown=pushdown,
            jobs=jobs,
        )

    def metrics_snapshot(self) -> dict:
        """Plain-dict view of the process metrics registry (counters,
        gauges, histogram buckets) — empty unless metrics are enabled
        via ``repro.obs.set_enabled``."""
        return obs_metrics.REGISTRY.snapshot()

    def save_trace(self, path) -> bool:
        """Write :attr:`last_trace` as JSONL; False when no trace exists."""
        if self.last_trace is None:
            return False
        self.last_trace.save_jsonl(path)
        return True

    def explain(self, result: SearchResult) -> str:
        """A human-readable explanation of one ranked answer."""
        answer = result.answer
        lines = [f"#{result.rank}  {answer.render()}  score={result.score}"]
        if isinstance(answer, Connection):
            verdict = answer.verdict()
            lines.append(f"  cardinalities: {answer.render_with_cardinalities()}")
            lines.append(f"  conceptual:    {answer.render_conceptual()}")
            lines.append(
                f"  rdb length {answer.rdb_length}, er length {answer.er_length}"
            )
            lines.append(f"  verdict: {verdict.describe()}")
            if verdict.is_loose:
                level = "close" if is_instance_close(answer) else "loose"
                lines.append(f"  instance level: {level}")
        elif isinstance(answer, JoiningNetwork):
            lines.append(
                f"  tuples {len(answer.tuples)}, rdb length {answer.rdb_length}, "
                f"er length {answer.er_length}, "
                f"loose joints {answer.loose_joint_count()}"
            )
        return "\n".join(lines)

    def rebuild(self) -> None:
        """Refresh derived structures after direct database mutations.

        The traversal cache is bound to the discarded data graph, so a
        fresh one replaces it.  All pipeline state is reset too: the
        answer cache (its entries reference the old graph) and the
        last-run diagnostics (``last_stats``) — nothing stale survives a
        rebuild.  :meth:`apply` is the incremental
        alternative; ``rebuild()`` is the escape hatch and the
        differential oracle the live subsystem is tested against.

        Refused while a WAL is attached: a rebuild absorbs direct
        database mutations that never produced WAL records, so the log
        could no longer replay to this state.  Detach (or compact and
        detach) first.
        """
        if self.wal is not None:
            raise WalError(
                "rebuild() would desynchronise the attached WAL; call "
                "detach_wal() first",
                wal=self.wal.path,
            )
        self.data_graph = DataGraph(self.database)
        self.index.build()
        self.traversal_cache = TraversalCache(self.data_graph)
        self.result_cache.clear()
        self.last_stats = ExecutionStats()
        self.statistics = None
        self.close_pool()
        self.version += 1

    # ------------------------------------------------------------------
    # snapshots & parallel serving
    # ------------------------------------------------------------------
    def save(self, path) -> dict:
        """Write the engine's full state as a binary snapshot.

        The snapshot (see :mod:`repro.scale.snapshot`) captures the
        database, the compiled CSR graph, the inverted index and corpus
        statistics at the engine's current :attr:`version`;
        :meth:`open` restores a bit-identical engine an order of
        magnitude faster than a cold build.  Returns the snapshot's meta
        dict.
        """
        from repro.scale.snapshot import write_snapshot

        meta = write_snapshot(self, path)
        self.snapshot_path = str(path)
        self._snapshot_version = self.version
        self._snapshot_generation = meta.get("generation")
        return meta

    @classmethod
    def open(
        cls, path, wal=None, wal_sync: bool = True, **options
    ) -> "KeywordSearchEngine":
        """Open a snapshot written by :meth:`save` into a ready engine.

        ``core=`` defaults to the writer's configuration;
        every other construction option (``ranker``, ``limits``,
        ``result_cache_entries``, ...) passes through.  The CSR array
        sections stay ``mmap``-backed, so concurrently opened processes
        share their pages.

        ``wal=True`` attaches (and replays) the snapshot's conventional
        write-ahead log — ``<path>.wal`` — creating it when absent; a
        string/path names the log file explicitly.  See
        :meth:`attach_wal`.
        """
        from repro.scale.snapshot import load_engine

        engine = load_engine(path, **options)
        if wal:
            engine.attach_wal(
                None if wal is True else wal, sync=wal_sync
            )
        return engine

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    def attach_wal(self, path=None, *, sync: bool = True) -> int:
        """Pair this snapshot-backed engine with a write-ahead log.

        Creates ``path`` (default: ``<snapshot>.wal``) when absent;
        otherwise validates the generation handshake and replays the
        log's records through the incremental maintenance path,
        returning how many were replayed.  A torn tail record —
        the only damage a crashed append can cause — is tolerated and
        truncated by the next append; any other mismatch refuses:

        * generation match → replay (engine ends bit-identical to one
          that executed the batches live);
        * generation mismatch, every record already folded into this
          snapshot (all versions ≤ the snapshot's) → the log is a
          leftover of an interrupted compaction: reset it, replay
          nothing;
        * generation mismatch with newer records → ``WalError`` — the
          log belongs to a different snapshot and silently dropping or
          replaying it would corrupt state.
        """
        from repro.durable.wal import (
            WriteAheadLog,
            default_wal_path,
            replay_into,
        )

        if self.wal is not None:
            raise WalError("a WAL is already attached", path=self.wal.path)
        if self.snapshot_path is None or self._snapshot_generation is None:
            raise WalError(
                "attach_wal needs a snapshot-backed engine; save() or "
                "open() first"
            )
        if self._snapshot_version != self.version:
            raise WalError(
                "engine has moved past its snapshot; save() before "
                "attaching a WAL",
                engine_version=self.version,
                snapshot_version=self._snapshot_version,
            )
        wal_path = (
            str(path) if path is not None
            else default_wal_path(self.snapshot_path)
        )
        replayed = 0
        import os

        exists = os.path.exists(wal_path) and os.path.getsize(wal_path) > 0
        if exists:
            wal = WriteAheadLog(wal_path, sync=sync)
            if wal.generation == self._snapshot_generation:
                replayed = replay_into(self, wal.scan(), wal.path)
            else:
                records = wal.scan()
                if records and records[-1][1].get("version", 0) > self.version:
                    wal.close()
                    raise WalError(
                        "WAL belongs to a different snapshot generation",
                        wal=wal_path,
                        wal_generation=wal.generation,
                        snapshot_generation=self._snapshot_generation,
                    )
                # Interrupted compaction: the snapshot already contains
                # every record. Start the log over for this generation.
                wal.reset(
                    generation=self._snapshot_generation,
                    base_version=self.version,
                )
        else:
            wal = WriteAheadLog(
                wal_path,
                generation=self._snapshot_generation,
                base_version=self.version,
                sync=sync,
            )
        self.wal = wal
        self._wal_snapshot_path = self.snapshot_path
        return replayed

    def detach_wal(self) -> None:
        """Close and detach the WAL (no-op when none is attached).

        The log file stays on disk, fully replayable against its
        snapshot; only this engine stops appending to it.
        """
        if self.wal is not None:
            self.wal.close()
            self.wal = None
            self._wal_snapshot_path = None

    def compact_wal(self, out=None):
        """Fold the attached WAL into a fresh snapshot and swap it in.

        Delegates to :func:`repro.durable.compact.hot_compact`: the
        paired snapshot is atomically replaced with the engine's
        current state, the WAL resets to empty, and a running worker
        pool reopens onto the new snapshot one worker at a time.
        Returns the :class:`~repro.durable.compact.CompactionReport`.
        """
        from repro.durable.compact import hot_compact

        return hot_compact(self, out=out)

    def _ensure_snapshot(self) -> str:
        """A snapshot path matching the engine's current version.

        Reuses the last saved/opened snapshot while the version still
        matches; otherwise (never saved, or mutated since) writes to a
        private temporary file that is overwritten on every refresh.
        """
        if (
            self.snapshot_path is not None
            and self._snapshot_version == self.version
        ):
            return self.snapshot_path
        import os
        import tempfile

        if self._autosave_dir is None:
            self._autosave_dir = tempfile.TemporaryDirectory(prefix="repro-snap-")
        path = os.path.join(self._autosave_dir.name, "engine.snap")
        self.save(path)
        return path

    def _ensure_searcher(self, jobs: int):
        """The engine's parallel searcher, rebuilt when state moved on."""
        key = (self.version, jobs)
        if self._searcher is not None and self._searcher_key == key:
            return self._searcher
        self.close_pool()
        from repro.scale.parallel import ParallelSearcher

        self._searcher = ParallelSearcher(
            self._ensure_snapshot(),
            jobs,
            core=self.core,
            result_cache_entries=self.result_cache.max_entries,
            adaptive=self.adaptive,
        )
        self._searcher_key = key
        return self._searcher

    def close_pool(self) -> None:
        """Shut down the parallel worker pool (no-op when none is open)."""
        if self._searcher is not None:
            self._searcher.close()
            self._searcher = None
            self._searcher_key = None

    def close(self) -> None:
        """Release serving resources: the worker pool and, for
        snapshot-opened engines, the snapshot's mmap-backed views.

        A closed snapshot engine must not answer further queries — its
        compiled state references the released pages and fails loudly.
        Idempotent; engines built directly from a database only shut
        their pool down.
        """
        self.detach_wal()
        self.close_pool()
        if self._snapshot is not None:
            self._snapshot.close()

    def __enter__(self) -> "KeywordSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeywordSearchEngine(db={self.database.schema.name!r}, "
            f"ranker={self.ranker.name!r})"
        )
