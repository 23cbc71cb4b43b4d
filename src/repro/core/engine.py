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
batch through :mod:`repro.live`, patching the index, compiled graph and
caches in place and invalidating exactly the affected entries of the
dependency-tracked answer cache (:attr:`result_cache`); results stay
bit-identical to a freshly rebuilt engine, and :meth:`rebuild` remains
the escape hatch.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.core.ambiguity import is_instance_close
from repro.core.connections import Connection
from repro.core.executor import ExecutionStats, Executor, SearchResult
from repro.core.matching import KeywordMatch, match_keywords, parse_query
from repro.core.plan import QueryPlan, plan_query
from repro.core.ranking import ClosenessRanker, Ranker, ShapeMemo
from repro.core.search import JoiningNetwork, SearchLimits
from repro.durable import fault
from repro.errors import MutationError, QueryError, SnapshotError, WalError
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.durable.wal import encode_record
from repro.live.changes import ChangeSet, Mutation, apply_to_database
from repro.live.maintain import affected_tuples, apply_changeset
from repro.live.result_cache import CacheEntry, ResultCache
from repro.obs import trace as obs_trace
from repro.planner.cost import CostModel
from repro.relational.database import Database
from repro.relational.index import InvertedIndex

__all__ = ["SearchResult", "KeywordSearchEngine"]


def _can_fork() -> bool:
    """Whether pool workers can be forked here; where they cannot,
    ``search_batch(jobs=N)`` answers through its serial loop."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


class _Closed:
    """Stands in for what a closed engine held: any read raises
    :class:`~repro.errors.SnapshotError`."""

    __slots__ = ("_path",)

    def __init__(self, path) -> None:
        self._path = path

    def __getattr__(self, name):
        raise SnapshotError("engine is closed", path=self._path, read=name)


class KeywordSearchEngine:
    """Keyword search over one database with close/loose-aware ranking."""

    def __init__(
        self,
        database: Database,
        ranker: Optional[Ranker] = None,
        limits: SearchLimits = SearchLimits(),
        result_cache_entries: int = 256,
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
            adaptive=adaptive,
        )

    def _wire(
        self,
        *,
        database: Database,
        data_graph: DataGraph,
        index: InvertedIndex,
        traversal_cache: Optional[TraversalCache],
        ranker: Optional[Ranker] = None,
        limits: SearchLimits = SearchLimits(),
        result_cache_entries: int = 256,
        version: int = 0,
        adaptive: bool = True,
    ) -> None:
        """Shared field wiring of cold construction and snapshot restore."""
        self.database = database
        self.data_graph = data_graph
        self.index = index
        self.ranker = ranker or ClosenessRanker()
        self.limits = limits
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
        #: (:attr:`_wal_snapshot_path`), whatever later :meth:`save`
        #: calls write elsewhere.
        self.wal = None
        self._wal_snapshot_path: Optional[str] = None
        self._searcher = None
        self._searcher_key = None
        #: Batches whose derived structures were rebuilt because
        #: patching them raised after the commit (:meth:`apply`).
        self.maintain_rebuilds = 0
        #: Schema-level facts per answer shape, for every query this
        #: engine answers: the schema never changes under :meth:`apply`
        #: or :meth:`rebuild`, so neither drops it.
        self.shapes = ShapeMemo()

    @classmethod
    def _from_parts(cls, **parts) -> "KeywordSearchEngine":
        """Assemble an engine from restored structures (snapshot path);
        ``parts`` are :meth:`_wire`'s keywords."""
        engine = cls.__new__(cls)
        engine._wire(**parts)
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
        """Compile a query into its :class:`~repro.core.plan.QueryPlan`,
        costed when adaptive (advisory estimates a search skips)."""
        return self._plan(query, top_k, semantics, annotate=True)

    def _plan(
        self, query: str, top_k, semantics: str, annotate=False, tags=None
    ) -> QueryPlan:
        """Match and plan under the ``plan.compile`` span; ``annotate``
        costs the plan when adaptive."""
        with obs_trace.span("plan.compile", **(tags or {})):
            plan = plan_query(self.match(query), semantics=semantics, top_k=top_k)
            if annotate and self.adaptive:
                plan = self._ensure_cost_model().annotate(plan)
        return plan

    def _ensure_cost_model(self) -> CostModel:
        """The engine's cost model, built on first use."""
        if self._cost_model is None:
            self._cost_model = CostModel(self.index)
        return self._cost_model

    def query_cost(self, query: str, semantics: str = "and") -> float:
        """Predicted execution cost of one query.

        Computed from posting lengths alone — no matching, no
        enumeration — so a caller can weigh a query before any work
        runs.
        """
        try:
            keywords = parse_query(query)
        except QueryError:
            return 1.0
        return self._ensure_cost_model().query_cost(keywords, semantics)

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
        # object address (default object repr — e.g. a user-defined
        # class that is not a dataclass) has no stable value identity,
        # and an id-based key could collide with a later object at a
        # recycled address, so such queries stay uncached (None key).
        if self.result_cache.max_entries <= 0:
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
        # A ranker that scores from the instance around an answer is
        # cached volatile: bounded taint only covers what the answers
        # themselves are built from.
        self.result_cache.store(
            key,
            CacheEntry(
                results=tuple(results),
                stats=stats.copy(),
                keywords=tuple(match.keyword for match in matches),
                footprint=frozenset(footprint),
                fingerprint=tuple(match.tuple_ids for match in matches),
                volatile=getattr(ranker, "reads_neighbourhood", False),
                semantics=semantics,
                limits=limits,
            ),
        )

    def _lookup(self, key: Optional[Hashable], tags=None) -> Optional[CacheEntry]:
        """The live answer-cache entry under ``key`` (``None`` for a miss
        or an uncacheable query), looked up under the
        ``result_cache.lookup`` span; a hit sets :attr:`last_stats`."""
        with obs_trace.span("result_cache.lookup", **(tags or {})) as lookup_span:
            entry = self.result_cache.lookup(key) if key is not None else None
            if lookup_span is not None:
                lookup_span.tag(hit=entry is not None)
        if entry is not None:
            self.last_stats = entry.stats.copy()
        return entry

    def _execute(
        self, query: str, options: tuple, annotate=False, tags=None
    ) -> tuple[list[SearchResult], QueryPlan, ExecutionStats]:
        """Plan the query and run the plan: ``(results, plan, stats)``.
        :attr:`last_stats` holds the run's stats on every exit, a raised
        error included."""
        ranker, limits, top_k, semantics, pushdown = options
        self.last_stats = ExecutionStats()
        plan = self._plan(query, top_k, semantics, annotate, tags)
        executor = Executor(
            self.traversal_cache, adaptive=self.adaptive, shapes=self.shapes
        )
        try:
            results = executor.run(plan, ranker, limits, pushdown=pushdown)
        finally:
            self.last_stats = executor.stats
        return results, plan, executor.stats

    def _answer(
        self, query: str, options: tuple, *, lookup=True, annotate=False,
        outcome=None, tags=None,
    ) -> tuple[list[SearchResult], Optional[QueryPlan], ExecutionStats]:
        """The query pipeline behind every entry point: answer-cache
        lookup, plan, :meth:`Executor.run`, store — the store only when
        :attr:`version` did not move meanwhile.  Returns the results, the
        plan run here (else ``None``) and the stats, which
        :attr:`last_stats` holds on every exit, a raised error included.

        ``options`` is ``(ranker, limits, top_k, semantics, pushdown)``.
        ``lookup=False`` always executes; ``annotate`` costs the plan.
        ``outcome`` — ``(results, matches, stats)`` of a run made
        elsewhere, by a pool worker or a fully consumed stream — leaves
        only the store.  ``tags`` label the lookup and plan spans.
        """
        key = self._cache_key(query, *options)
        version = self.version
        if outcome is not None:
            plan = None
            results, matches, self.last_stats = outcome
        elif lookup and (entry := self._lookup(key, tags)) is not None:
            return list(entry.results), None, self.last_stats
        else:
            results, plan, __ = self._execute(query, options, annotate, tags)
            matches = plan.matches
        if key is not None and self.version == version:
            self._cache_store(key, options[0], matches, results, self.last_stats)
        return results, plan, self.last_stats

    def _options(self, ranker, limits, top_k, semantics, pushdown) -> tuple:
        """One query's options, the engine's ranker and limits filling in
        for ``None``."""
        return ranker or self.ranker, limits or self.limits, top_k, semantics, pushdown

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
        options = self._options(ranker, limits, top_k, semantics, pushdown)
        if not obs_trace.ENABLED:  # the answer-cache hit path stays lean
            return self._answer(query, options)[0]
        with obs_trace.traced("query", self, query=query, semantics=semantics):
            return self._answer(query, options)[0]

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

        Identical results in identical order to :meth:`search`.  Answers
        arrive before enumeration finishes only in pushdown mode: with
        ``top_k`` and a bounded ranker, where the cut also stops
        enumeration early, or with ``pushdown=True``.  Otherwise every
        candidate is enumerated and scored before the first answer.
        ``last_stats`` is final once the iterator is exhausted.

        A live answer-cache entry replays instantly; a fully consumed
        stream populates the cache (an abandoned one does not — its
        enumeration may be incomplete).
        """
        options = self._options(ranker, limits, top_k, semantics, pushdown)
        ranker, limits = options[:2]
        with obs_trace.traced(
            "query.stream", self, query=query, semantics=semantics
        ):
            version = self.version
            key = self._cache_key(query, *options)
            entry = self._lookup(key)
            if entry is not None:
                for result in entry.results:
                    self._check_stream_version(version)
                    yield result
                return
            self.last_stats = ExecutionStats()
            plan = self._plan(query, top_k, semantics)
            executor = Executor(
                self.traversal_cache, adaptive=self.adaptive, shapes=self.shapes
            )
            # Buffered only while a cache store is still possible — an
            # uncacheable query keeps the O(1) streaming memory profile.
            collected: Optional[list[SearchResult]] = (
                [] if key is not None else None
            )
            stream = executor.stream(plan, ranker, limits, pushdown=pushdown)
            try:
                # Checked before every resume of the executor, which
                # would touch state an interleaved apply() has mutated.
                self._check_stream_version(version)
                for result in stream:
                    self.last_stats = executor.stats
                    if collected is not None:
                        collected.append(result)
                    yield result
                    self._check_stream_version(version)
            finally:
                # Capture the run's counters even when the stream yields
                # nothing or the consumer stops early (stream() replaces
                # executor.stats once it starts running).  Close the
                # executor's generator inside the trace window so its
                # span totals land on this query's trace, not ambient.
                stream.close()
                self.last_stats = executor.stats
            if collected is not None:
                self._answer(
                    query,
                    options,
                    outcome=(collected, plan.matches, executor.stats),
                )

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
        this process answers the first ⌊n/jobs⌋ of them itself while
        ``jobs - 1`` forks of this process (:mod:`repro.scale.parallel`)
        answer the rest on the engine they inherit.  Nothing is saved
        or reopened for them — a never-saved or mutated engine pools as
        it stands — and a pool serves one :attr:`version`, so the first
        pooled batch after :meth:`apply` forks afresh.  Where ``fork``
        does not exist, ``jobs`` answers through the serial loop.
        Lookups, stores, results, order and the first raised error are
        those of the serial path; ``last_stats`` merges the counters of
        the queries answered, up to a raised error.
        """
        options = self._options(ranker, limits, top_k, semantics, pushdown)
        pooled = jobs is not None and jobs > 1 and _can_fork()
        stats = ExecutionStats()
        resolved: dict[str, list[SearchResult]] = {}
        misses: list[str] = []

        def answer(query):  # the coordinator's share of a pooled batch
            results, plan, run_stats = self._execute(
                query, options, tags={"query": query}
            )
            return results, plan.matches, run_stats

        with obs_trace.traced(
            "query.batch",
            self,
            queries=len(queries),
            semantics=semantics,
            **({"jobs": jobs} if pooled else {}),
        ):
            try:
                for query in dict.fromkeys(queries):
                    tags = {"query": query}
                    if not pooled:
                        resolved[query], __, run_stats = self._answer(
                            query, options, tags=tags
                        )
                        stats.merge(run_stats)
                        continue
                    entry = self._lookup(self._cache_key(query, *options), tags)
                    if entry is None:
                        misses.append(query)
                    else:
                        resolved[query] = list(entry.results)
                        stats.merge(entry.stats)
                if misses:
                    outcomes = self._ensure_searcher(jobs).run(
                        misses, options, answer
                    )
                    for query in misses:
                        status, payload, run_stats = outcomes[query]
                        if status == "error":
                            raise payload
                        if status == "ok":  # a worker's portable answers
                            payload = self._revive(payload), self.match(query)
                        resolved[query] = self._answer(
                            query, options, outcome=(*payload, run_stats)
                        )[0]
                        stats.merge(run_stats)
            finally:
                self.last_stats = stats
        return [resolved[query] for query in queries]

    def _revive(self, portables) -> list[SearchResult]:
        """A worker's portable answers, rebuilt on this engine's graph."""
        from repro.scale.parallel import revive_result

        return [
            revive_result(self.traversal_cache, portable, score, rank + 1)
            for rank, (portable, score) in enumerate(portables)
        ]

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
        of the change — a two-keyword entry only when its two keywords'
        distances from the change fit one connection, decided from a
        sweep ``(max_rdb_length - 1) // 2`` hops deep — and the engine
        :attr:`version` is bumped and stamped onto the returned
        changeset.  Results after ``apply`` are bit-identical to a
        freshly rebuilt engine; ``rebuild()`` stays available as the
        escape hatch.

        With a WAL attached (:meth:`attach_wal`) the batch is encoded as
        its log record before the database changes — a batch the log
        cannot carry raises :class:`~repro.errors.MutationFormatError`
        with nothing changed — and appended, and fsynced, as the batch's
        commit once it has validated and *before* any derived structure
        is patched, so a crash at any instant after the append can
        replay it.  An append that raises rolls the database back and
        leaves the log as it was, so the engine is untouched and the
        batch can be retried.

        Once the commit has run the batch is the database's state.  If
        patching the derived structures then raises, the engine rebuilds
        them from the database (:meth:`rebuild`'s path, counted as
        ``engine.maintain_rebuilds``), holds the post-batch
        :attr:`version` and re-raises; if that rebuild raises too, the
        engine closes itself, so later calls raise
        :class:`~repro.errors.SnapshotError` instead of serving stale
        answers.
        """
        record = None
        if self.wal is not None:
            mutations = list(mutations)
            # Every batch gets a record — empty ones too — so the
            # replayed version counter matches the live engine exactly.
            record = encode_record(self.version + 1, mutations)
        changeset = apply_to_database(
            self.database, mutations, commit=partial(self._commit, record)
        )
        try:
            if record is not None:
                fault.maybe("wal.append")
            if not changeset.is_empty():
                self._maintain(changeset)
        except BaseException:
            self._recover()
            raise
        self.version += 1
        changeset.version = self.version
        return changeset

    def _commit(self, record: Optional[bytes]) -> None:
        """A batch's commit, run after its last mutation: the WAL append
        of its ``record`` when a log is attached."""
        fault.maybe("apply.commit")
        if record is not None:
            self.wal.append(record)

    def _recover(self) -> None:
        """Bring the derived structures to a committed batch that
        ``_maintain`` failed to patch in: rebuild them from the database
        (the batch's version bump), or close the engine if that fails."""
        self.maintain_rebuilds += 1
        try:
            self._rebuild()
        except BaseException:
            self.close()
            raise

    def _maintain(self, changeset: ChangeSet) -> None:
        """Bring every derived structure in step with a non-empty
        changeset the database already holds — the one maintenance
        sequence of a live ``apply`` and of WAL replay: patch the index
        and traversal cache in place, drop any multigraph the data graph
        built (an oracle-side read rebuilds it), drop the answer-cache
        entries the changeset may have made stale."""
        with obs_trace.span("live.apply"):
            apply_changeset(
                changeset,
                self.database,
                index=self.index,
                traversal_cache=self.traversal_cache,
            )
            self.data_graph.invalidate()
        if len(self.result_cache):
            # With no live entries there is nothing to invalidate.  The
            # taint sweep runs only if a surviving entry needs it, and
            # only as deep (ResultCache.seed_radius).
            with obs_trace.span("result_cache.invalidate") as inv_span:
                dropped = self.result_cache.invalidate(
                    changeset,
                    self.index,
                    self.traversal_cache.frozen,
                    lambda radius: affected_tuples(
                        self.traversal_cache, changeset, radius
                    ),
                )
                if inv_span is not None:
                    inv_span.add(dropped=dropped)

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
    ):
        """Run a query with tracing forced on and fuse its plan with the
        collected trace into a per-node report.

        The run skips the answer-cache lookup, so the executor always
        runs, and stores its answers like :meth:`search`.  Returns an
        :class:`~repro.obs.explain.ExplainReport` — call ``.render()``
        for the table, ``.results`` for the (bit-identical) answers,
        ``.trace`` for the raw spans (also :attr:`last_trace`).
        """
        from repro.obs.explain import analyze

        options = self._options(ranker, limits, top_k, semantics, pushdown)
        report = analyze(partial(self._answer, query, options), query, semantics)
        self.last_trace = report.trace
        return report

    def metrics_snapshot(self) -> dict:
        """``{name: count}``, sorted by name, of the counters this
        engine's parts already keep: the answer cache, the traversal
        cache, the compiled graph once built, the worker pool once
        started, the shape memo (``ranking.shapes`` held,
        ``ranking.scored`` schema-level scorings) and the engine's own
        maintenance rebuilds.  Always on
        and per engine; the difference of two snapshots is what the
        calls between them did."""
        counters = {}
        for prefix, source, names in (
            ("result_cache", self.result_cache.stats,
             ("hits", "misses", "stores", "evicted", "invalidated")),
            ("traversal_cache", self.traversal_cache,
             ("hits", "misses", "dense_builds", "paths_enumerated",
              "trees_enumerated")),
            ("csr", self.traversal_cache._frozen, ("compactions",)),
            ("pool", self._searcher,
             ("pipe_batches", "respawns", "inline_chunks")),
            ("ranking", self.shapes, ("shapes", "scored")),
            ("engine", self, ("maintain_rebuilds",)),
        ):
            if source is not None:
                for name in names:
                    counters[f"{prefix}.{name}"] = getattr(source, name)
        return dict(sorted(counters.items()))

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
        fresh one replaces it; its counters carry over, so
        :meth:`metrics_snapshot` never runs backwards.  All pipeline
        state is reset too: the answer cache (its entries reference the
        old graph) and the last-run diagnostics (``last_stats``) —
        nothing stale survives a rebuild.  :meth:`apply` is the incremental
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
        self._rebuild()

    def _rebuild(self) -> None:
        self.data_graph = DataGraph(self.database)
        self.index.build()
        self.traversal_cache = self.traversal_cache.successor(self.data_graph)
        self.result_cache.clear()
        self.last_stats = ExecutionStats()
        self.close_pool()
        self.version += 1

    # ------------------------------------------------------------------
    # snapshots & parallel serving
    # ------------------------------------------------------------------
    def save(self, path) -> dict:
        """Write the engine's full state as a binary snapshot.

        The snapshot (see :mod:`repro.scale.snapshot`) captures the
        database, the compiled CSR graph and the inverted index at the
        engine's current :attr:`version`;
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

        Construction options (``ranker``, ``limits``,
        ``result_cache_entries``, ...) pass through.  The CSR array
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
            try:
                engine.attach_wal(None if wal is True else wal, sync=wal_sync)
            except BaseException:
                engine.close()
                raise
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
        current state and the WAL resets to empty.  A running worker
        pool keeps serving untouched: its workers are forks of this
        engine at the same :attr:`version`, and never read the file.
        Returns the :class:`~repro.durable.compact.CompactionReport`.
        """
        from repro.durable.compact import hot_compact

        return hot_compact(self, out=out)

    def _ensure_searcher(self, jobs: int):
        """The engine's parallel searcher, rebuilt when state moved on."""
        if self.index.__class__ is _Closed:
            raise SnapshotError("engine is closed", path=self.snapshot_path)
        key = (self.version, jobs)
        if self._searcher is not None and self._searcher_key == key:
            return self._searcher
        self.close_pool()
        from repro.scale.parallel import ParallelSearcher

        self._searcher = ParallelSearcher(self, jobs)
        self._searcher_key = key
        return self._searcher

    def close_pool(self) -> None:
        """Shut down the parallel worker pool (no-op when none is open)."""
        if self._searcher is not None:
            self._searcher.close()
            self._searcher = None
            self._searcher_key = None

    def close(self) -> None:
        """Release serving resources: the worker pool, the snapshot of a
        snapshot-opened engine, and everything the engine built or
        restored.

        A closed engine — cold-built or snapshot-opened — holds no
        database, index, compiled graph or cached answer, so it costs no
        memory however long it stays referenced; any later query or
        write raises :class:`~repro.errors.SnapshotError`.  The database
        a cold engine was built over is its caller's and stays as it
        was.  Idempotent.
        """
        self.detach_wal()
        self.close_pool()
        if self._snapshot is not None:
            self._snapshot.close()
        closed = _Closed(self.snapshot_path)
        self.database = self.data_graph = self.index = closed
        self.traversal_cache = closed
        self.result_cache.clear()
        self._cost_model = None

    def __enter__(self) -> "KeywordSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeywordSearchEngine(db={self.database.schema.name!r}, "
            f"ranker={self.ranker.name!r})"
        )
