"""Process-pool batch execution over snapshot-opened engines.

``KeywordSearchEngine.search_batch(jobs=N)`` routes here: the batch is
deduplicated, answered query-by-query on a pool of worker processes and
reassembled in input order.  Each worker opens the coordinator's
snapshot **once** (in the pool initializer) into its own engine with the
same core configuration — the snapshot's array sections are
``mmap``-backed, so the workers share page-cache pages instead of
copying the compiled graph N times.

Bit-identity with the serial path is structural, not hoped-for:

* a worker answers a query with exactly the code ``engine.search`` runs
  serially, so per-query results, order and any
  :class:`~repro.errors.SearchLimitError` are the serial ones;
* the coordinator raises the error of the *earliest* failing query in
  input order — the one serial ``search_batch`` would have hit first —
  after committing the results of the queries before it;
* worker counters fold through the commutative
  :meth:`~repro.core.executor.ExecutionStats.merge`, so out-of-order
  pool completion cannot change the aggregated stats.

Results cross the process boundary in a *portable* form (tuple ids,
path steps, keyword bindings, scores) and are revived against the
coordinator's data graph; revival is allocation-cheap because
connection metrics and network spanning trees are computed lazily.

Transport is a ``multiprocessing.shared_memory`` arena when available:
the coordinator creates one arena with a fixed-size region per worker,
workers serialise their chunk outcomes as length-prefixed records
(``<u32 length><pickle bytes>`` each) straight into their own region
and send only ``("shm", (record_count, total_bytes))`` over the pipe —
the pipe never carries answer payloads.  Regions are disjoint and each
worker has at most one outstanding chunk, so the pipe message *is* the
write barrier.  A chunk that outgrows its region (or an arena that
could not be created) falls back to the classic pickled-pipe message
``("ok", outcomes)`` — byte-identical outcomes either way, so the
fallback is invisible above this module.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.executor import ExecutionStats, SearchResult
from repro.core.search import JoiningNetwork, SingleTupleAnswer
from repro.core.connections import Connection
from repro.durable import fault
from repro.errors import ReproError
from repro.graph.traversal import TuplePathStep
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ParallelSearcher", "run_batch"]

#: The worker process's engine, opened once per pool worker.
_WORKER_ENGINE = None


def _pool_context():
    """Prefer fork (cheap, snapshot pages shared immediately); fall back
    to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _init_worker(
    snapshot_path: str,
    core: Optional[str],
    result_cache_entries: int,
    adaptive: bool = True,
):
    global _WORKER_ENGINE
    from repro.core.engine import KeywordSearchEngine

    _WORKER_ENGINE = KeywordSearchEngine.open(
        snapshot_path,
        core=core,
        result_cache_entries=result_cache_entries,
        adaptive=adaptive,
    )


def _portable_answer(answer):
    """Encode one answer for the trip back to the coordinator."""
    if isinstance(answer, SingleTupleAnswer):
        return ("single", answer.tid, answer.covered_keywords)
    if isinstance(answer, Connection):
        steps = tuple(
            (step.source, step.target, step.edge_key, step.edge_data)
            for step in answer.steps
        )
        return ("connection", steps, dict(answer.keyword_matches))
    if isinstance(answer, JoiningNetwork):
        return ("network", answer.tuples, dict(answer.keyword_tuples))
    raise TypeError(f"unportable answer type: {type(answer).__name__}")


def revive_result(cache, portable, score, rank) -> SearchResult:
    """Rebuild one :class:`SearchResult` against the coordinator's
    traversal cache and its data graph.

    Edge payload dicts travel by value; they compare equal to the
    coordinator's own (payloads are ``{foreign_key, referencing}``
    dataclass/tuple-id values), which is the contract everything
    downstream relies on.  Network spanning trees and connection
    conceptual views stay lazy, so revival is allocation only.
    """
    kind = portable[0]
    if kind == "single":
        answer = SingleTupleAnswer(cache.data_graph, portable[1], portable[2])
    elif kind == "connection":
        steps = [TuplePathStep(*step) for step in portable[1]]
        answer = Connection(cache.data_graph, steps, portable[2])
    else:
        answer = JoiningNetwork(cache, portable[1], portable[2])
    return SearchResult(answer=answer, score=score, rank=rank)


def _run_chunk(chunk, engine=None):
    """Answer one contiguous slice of the batch inside a worker.

    A failing query aborts the rest of its chunk (the coordinator never
    uses outcomes past the first batch error anyway) but keeps the
    chunk's earlier successes, mirroring the serial loop.

    Observability rides the same outcome stream: the coordinator's
    enablement travels in ``options["observe"]`` (explicit so spawned
    workers match forked ones), the worker's per-query trace roots and
    its metrics *delta* for the chunk come back as one trailing
    ``(None, "obs", (trace_root, metrics_delta), None)`` pseudo-record
    — identical bytes through the shm and pipe transports, because both
    pickle the same records.

    ``engine`` defaults to the worker's pool engine; the coordinator's
    degraded in-process fallback passes its own.
    """
    fault.maybe("pool.chunk")
    positions, queries, options = chunk
    if engine is None:
        engine = _WORKER_ENGINE
    trace_on, metrics_on = options.get("observe", (False, False))
    # The coordinator's setting is authoritative each chunk — a forked
    # worker may have inherited flags the coordinator has since flipped.
    obs_trace.set_enabled(trace_on)
    obs_metrics.set_enabled(metrics_on)
    metrics_before = obs_metrics.REGISTRY.snapshot() if metrics_on else None
    chunk_trace = (
        obs_trace.begin_trace("worker.batch", queries=len(queries))
        if trace_on
        else None
    )
    outcomes = []
    for position, query in zip(positions, queries):
        try:
            results = engine.search(
                query,
                ranker=options.get("ranker"),
                limits=options.get("limits"),
                top_k=options.get("top_k"),
                semantics=options.get("semantics", "and"),
                pushdown=options.get("pushdown"),
            )
        except ReproError as error:
            outcomes.append((position, "error", error, None))
            break
        finally:
            if chunk_trace is not None and engine.last_trace is not None:
                # engine.search ran its own query trace; re-root it
                # under the chunk so one span tree ships back.
                root = engine.last_trace.root
                root.tag(position=position)
                chunk_trace.adopt(root)
                engine.last_trace = None
        portable = [
            (_portable_answer(result.answer), result.score) for result in results
        ]
        outcomes.append((position, "ok", portable, replace(engine.last_stats)))
    if trace_on or metrics_on:
        delta = (
            obs_metrics.diff_snapshots(
                metrics_before, obs_metrics.REGISTRY.snapshot()
            )
            if metrics_on
            else None
        )
        root = None
        if chunk_trace is not None:
            obs_trace.end_trace(chunk_trace)
            root = chunk_trace.root
        outcomes.append((None, "obs", (root, delta), None))
    return outcomes


def _encode_outcomes(outcomes) -> tuple[list[bytes], int]:
    """Length-prefixed records for one chunk's outcomes.

    Returns ``(parts, total_bytes)``; each outcome contributes a 4-byte
    little-endian length followed by its pickle — the same pickle the
    pipe transport would have sent, so both transports carry identical
    bytes per outcome.
    """
    parts: list[bytes] = []
    total = 0
    for outcome in outcomes:
        blob = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
        total += 4 + len(blob)
    return parts, total


def _attach_arena(arena_name: Optional[str]):
    """Map the coordinator's answer arena inside a worker, or ``None``.

    The attach re-registers the segment with the resource tracker
    (bpo-38119), but workers inherit the *coordinator's* tracker — the
    registry is one shared set, so the duplicate registration is a
    no-op and the coordinator's ``unlink()`` remains the single cleanup
    point.  (Unregistering here would delete the coordinator's entry.)
    """
    if arena_name is None:
        return None
    try:
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(name=arena_name)
    except (ImportError, OSError, ValueError):  # pragma: no cover - no shm
        return None


def _worker_loop(
    connection,
    snapshot_path: str,
    core: Optional[str],
    result_cache_entries: int,
    arena_name: Optional[str] = None,
    region_start: int = 0,
    region_size: int = 0,
    adaptive: bool = True,
) -> None:
    """One dedicated worker: open the snapshot once, serve chunks forever.

    Besides batch chunks the pipe carries one control message:
    ``("__reopen__", path)`` — part of the zero-downtime snapshot swap.
    The worker finishes whatever chunk preceded the message (pipe
    ordering), opens the new snapshot, closes the old engine and acks;
    if the reopen fails it keeps serving its previous (state-identical)
    engine and reports ``reopen-failed`` so the coordinator can respawn
    it instead.
    """
    try:
        _init_worker(snapshot_path, core, result_cache_entries, adaptive)
    except BaseException as error:  # surface startup failures, don't hang
        connection.send(("crashed", repr(error)))
        return
    arena = _attach_arena(arena_name)
    connection.send(("ready", None))
    try:
        while True:
            try:
                chunk = connection.recv()
            except EOFError:
                return
            if chunk is None:
                return
            if (
                isinstance(chunk, tuple)
                and len(chunk) == 2
                and chunk[0] == "__reopen__"
            ):
                global _WORKER_ENGINE
                old_engine = _WORKER_ENGINE
                try:
                    _init_worker(
                        chunk[1], core, result_cache_entries, adaptive
                    )
                except BaseException as error:
                    connection.send(("reopen-failed", repr(error)))
                else:
                    if old_engine is not None:
                        old_engine.close()
                    connection.send(("reopened", None))
                continue
            try:
                outcomes = _run_chunk(chunk)
                if arena is not None:
                    parts, total = _encode_outcomes(outcomes)
                    if total <= region_size:
                        offset = region_start
                        for part in parts:
                            arena.buf[offset : offset + len(part)] = part
                            offset += len(part)
                        connection.send(("shm", (len(outcomes), total)))
                        continue
                connection.send(("ok", outcomes))
            except BaseException as error:  # pragma: no cover - worker bug guard
                connection.send(("crashed", repr(error)))
                return
    finally:
        if arena is not None:
            arena.close()


class ParallelSearcher:
    """A pool of dedicated snapshot workers, one pipe per worker.

    Unlike a task-stealing pool, chunk *i* of every batch goes to worker
    *i*: repeated batches of a serving loop land on the worker whose
    traversal/answer caches already hold their state, so steady-state
    latency is the warm cost.  Workers are daemonic and die with the
    coordinator; :meth:`close` shuts them down explicitly.

    Answers travel through a shared-memory arena (one
    :attr:`region_bytes` region per worker) when the platform provides
    one; the pipe then carries only ``(record_count, total_bytes)``.
    Oversized chunks and arena-less platforms fall back to pipe
    pickling per chunk — :attr:`shm_batches` / :attr:`pipe_batches`
    count which transport served each chunk.
    """

    #: Shared-memory bytes reserved per worker for one chunk's answers.
    region_bytes = 1 << 20

    def __init__(
        self,
        snapshot_path: str,
        jobs: int,
        *,
        core: Optional[str] = None,
        result_cache_entries: int = 256,
        adaptive: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        self.snapshot_path = str(snapshot_path)
        self.jobs = jobs
        self.core = core
        self.result_cache_entries = result_cache_entries
        #: Adaptive-planner flag every worker engine opens with, so a
        #: coordinator running static never pairs with adaptive workers.
        self.adaptive = adaptive
        self._workers: Optional[list] = None
        self._arena = None
        self.shm_batches = 0
        self.pipe_batches = 0
        #: Self-healing counters: workers respawned after dying
        #: mid-batch, and chunks degraded to in-process execution after
        #: a respawn (or its retry) failed too.
        self.respawns = 0
        self.inline_chunks = 0
        self._inline_engine = None
        #: Per-chunk observability payloads from the most recent
        #: :meth:`run` — ``(worker_index, transport, (trace_root,
        #: metrics_delta))`` tuples, coordinator-ordered.
        self.last_obs: list = []
        #: Per-worker position lists of the most recent :meth:`run` —
        #: how the batch was actually cut (cost-routed or contiguous).
        self.last_assignment: list = []

    def _ensure_arena(self):
        if self._arena is None:
            try:
                from multiprocessing import shared_memory

                self._arena = shared_memory.SharedMemory(
                    create=True, size=self.jobs * self.region_bytes
                )
            except (ImportError, OSError, ValueError):  # pragma: no cover
                return None  # no shm on this platform: pipe transport only
        return self._arena

    def _spawn_worker(self, index: int, arena) -> tuple:
        """Start worker ``index`` against the current snapshot path."""
        context = _pool_context()
        parent_end, worker_end = context.Pipe()
        process = context.Process(
            target=_worker_loop,
            args=(
                worker_end,
                self.snapshot_path,
                self.core,
                self.result_cache_entries,
                arena.name if arena is not None else None,
                index * self.region_bytes,
                self.region_bytes,
                self.adaptive,
            ),
            daemon=True,
        )
        process.start()
        worker_end.close()
        return (process, parent_end)

    def _ensure_workers(self) -> list:
        if self._workers is None:
            arena = self._ensure_arena()
            workers = [
                self._spawn_worker(index, arena)
                for index in range(self.jobs)
            ]
            for process, connection in workers:
                status, detail = connection.recv()
                if status != "ready":
                    self._shutdown(workers)
                    raise RuntimeError(f"snapshot worker failed to start: {detail}")
            self._workers = workers
        return self._workers

    def _retire_worker(self, index: int) -> None:
        """Reap a dead (or dying) worker's process and pipe end."""
        process, connection = self._workers[index]
        try:
            connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        process.join(timeout=2)
        if process.is_alive():  # pragma: no cover - stuck worker guard
            process.terminate()
            process.join(timeout=2)

    def _respawn(self, index: int) -> bool:
        """Replace a dead worker with a fresh one on the current snapshot."""
        self.respawns += 1
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.inc("pool.respawns")
        self._retire_worker(index)
        try:
            worker = self._spawn_worker(index, self._arena)
            status, detail = worker[1].recv()
        except (OSError, EOFError):  # pragma: no cover - spawn failed
            return False
        if status != "ready":
            try:
                worker[1].close()
            except OSError:  # pragma: no cover
                pass
            worker[0].join(timeout=2)
            return False
        self._workers[index] = worker
        return True

    def run(
        self,
        queries: Sequence[str],
        options: dict,
        costs: Optional[Sequence[float]] = None,
    ) -> dict:
        """Answer distinct queries on the pool; returns per-query outcomes.

        The batch is cut into one chunk per worker — a single IPC round
        trip each.  Without ``costs`` the cut is contiguous round-robin;
        with ``costs`` (one predicted cost per query, see
        ``KeywordSearchEngine.query_cost``) queries are assigned by
        deterministic LPT scheduling so every worker carries a similar
        predicted load (:func:`repro.planner.dispatch.route_by_cost`).
        Either way each chunk's positions stay ascending.  Each outcome
        is ``("ok", portable_results, stats)`` or ``("error", error,
        None)``; a chunk stops at its first error, which is safe because
        the coordinator never consumes outcomes past the batch's first
        failure — every position before the first failing one lives in
        some chunk whose own error cutoff (input order within the chunk)
        cannot precede it.

        The pool self-heals: a worker that died mid-chunk (EOF or broken
        pipe on the coordinator side) is respawned against the current
        snapshot and its lost chunk retried exactly once; if the respawn
        or the retry fails too, the chunk degrades to in-process
        execution on a coordinator-side engine — the batch completes
        either way, with bit-identical results.
        """
        self.last_obs = []
        self.last_assignment = []
        if not queries:
            return {}
        workers = self._ensure_workers()
        if costs is not None and len(costs) == len(queries):
            from repro.planner.dispatch import route_by_cost

            assignment = route_by_cost(costs, self.jobs)
        else:
            chunk_count = min(self.jobs, len(queries))
            size = (len(queries) + chunk_count - 1) // chunk_count
            assignment = [
                list(range(start, min(start + size, len(queries))))
                for start in range(0, len(queries), size)
            ]
        self.last_assignment = assignment
        busy = []
        for index, positions in enumerate(assignment):
            if not positions:  # pragma: no cover - router never emits empties
                continue
            chunk = (positions, [queries[p] for p in positions], options)
            __, connection = workers[index]
            try:
                connection.send(chunk)
            except (BrokenPipeError, OSError):
                pass  # dead already; the receive loop heals it
            busy.append((index, chunk))
        outcomes: dict[str, tuple] = {}
        for index, chunk in busy:
            status, chunk_payload = self._receive(index, chunk)
            if status == "shm":
                # The recv() *is* the barrier: the worker wrote its
                # region before sending, and no other worker shares it.
                count, total = chunk_payload
                chunk_outcomes = self._read_region(index, count, total)
                self.shm_batches += 1
            elif status in ("ok", "inline"):
                chunk_outcomes = chunk_payload
                if status == "ok":
                    self.pipe_batches += 1
            else:
                self.close()
                raise RuntimeError(f"snapshot worker crashed: {chunk_payload}")
            transport = "shm" if status == "shm" else "pipe"
            if status != "inline" and obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc(f"pool.{transport}_batches")
            for position, result_status, payload, stats in chunk_outcomes:
                if result_status == "obs":
                    # Trailing worker-observability record, not a query.
                    self.last_obs.append((index, transport, payload))
                    continue
                outcomes[queries[position]] = (result_status, payload, stats)
        return outcomes

    def _receive(self, index: int, chunk) -> tuple:
        """One chunk's reply, healing a dead worker along the way."""
        __, connection = self._workers[index]
        try:
            return connection.recv()
        except (EOFError, OSError):
            pass
        # The worker died before replying. Respawn it on the current
        # snapshot and retry the lost chunk exactly once.
        if self._respawn(index):
            __, connection = self._workers[index]
            try:
                connection.send(chunk)
                return connection.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass  # died again: fall through to in-process execution
        self.inline_chunks += 1
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.inc("pool.inline_chunks")
        return ("inline", self._run_inline(chunk))

    def _ensure_inline_engine(self):
        if self._inline_engine is None:
            from repro.core.engine import KeywordSearchEngine

            self._inline_engine = KeywordSearchEngine.open(
                self.snapshot_path,
                core=self.core,
                result_cache_entries=self.result_cache_entries,
                adaptive=self.adaptive,
            )
        return self._inline_engine

    def _run_inline(self, chunk):
        """Degraded mode: answer a chunk in the coordinator process.

        Runs the exact worker code over a lazily opened coordinator-side
        snapshot engine, so results stay bit-identical.  Observability
        is disabled for the chunk — its increments would land directly
        in the coordinator registry and then be double-counted by the
        delta merge — and the process-global flags are restored
        afterwards (``_run_chunk`` flips them to the chunk's setting).
        """
        positions, queries, options = chunk
        quiet = dict(options)
        quiet["observe"] = (False, False)
        saved_trace, saved_metrics = obs_trace.ENABLED, obs_metrics.ENABLED
        try:
            return _run_chunk(
                (positions, queries, quiet),
                engine=self._ensure_inline_engine(),
            )
        finally:
            obs_trace.set_enabled(saved_trace)
            obs_metrics.set_enabled(saved_metrics)

    def reopen(self, snapshot_path) -> int:
        """Hot-swap the pool onto a new snapshot, one worker at a time.

        Sends each worker a ``__reopen__`` control message in turn: the
        message queues behind the worker's in-flight chunk, so nothing
        is drained and the other workers keep serving while each one
        reopens.  A worker whose reopen fails (or that died) is
        respawned against the new snapshot instead.  Returns the number
        of workers now serving the new snapshot.
        """
        self.snapshot_path = str(snapshot_path)
        if self._inline_engine is not None:
            self._inline_engine.close()
            self._inline_engine = None
        if self._workers is None:
            return 0
        swapped = 0
        for index in range(len(self._workers)):
            __, connection = self._workers[index]
            reopened = False
            try:
                connection.send(("__reopen__", self.snapshot_path))
                status, __detail = connection.recv()
                reopened = status == "reopened"
            except (BrokenPipeError, EOFError, OSError):
                reopened = False
            if not reopened:
                reopened = self._respawn(index)
            if reopened:
                swapped += 1
        return swapped

    def _read_region(self, index: int, count: int, total: int) -> list:
        """Decode one worker's length-prefixed records from its region."""
        start = index * self.region_bytes
        view = bytes(self._arena.buf[start : start + total])
        outcomes = []
        offset = 0
        for __ in range(count):
            (length,) = struct.unpack_from("<I", view, offset)
            offset += 4
            outcomes.append(pickle.loads(view[offset : offset + length]))
            offset += length
        return outcomes

    def _shutdown(self, workers) -> None:
        for process, connection in workers:
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process, __ in workers:
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - stuck worker guard
                process.terminate()
                process.join(timeout=2)

    def close(self) -> None:
        if self._workers is not None:
            self._shutdown(self._workers)
            self._workers = None
        if self._inline_engine is not None:
            self._inline_engine.close()
            self._inline_engine = None
        if self._arena is not None:
            self._arena.close()
            try:
                self._arena.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._arena = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._workers is not None else "idle"
        return (
            f"ParallelSearcher({self.snapshot_path!r}, jobs={self.jobs}, {state})"
        )


def run_batch(
    engine,
    queries: Sequence[str],
    *,
    jobs: int,
    ranker,
    limits,
    top_k: Optional[int],
    semantics: str,
    pushdown: Optional[bool],
) -> list:
    """Parallel twin of the serial ``search_batch`` body.

    Coordinator-side answer-cache hits never leave the process; the
    remaining distinct queries fan out to the pool.  Successes are
    revived and cached exactly as a serial run would have cached them;
    the first failing query (in input order) re-raises its worker error
    after the queries before it committed.
    """
    tracing = obs_trace.ENABLED
    metered = obs_metrics.ENABLED
    qtrace = None
    if tracing:
        qtrace = obs_trace.begin_trace(
            "query.batch", queries=len(queries), jobs=jobs, parallel=True
        )
        engine.last_trace = qtrace
    try:
        return _run_batch_traced(
            engine,
            queries,
            jobs=jobs,
            ranker=ranker,
            limits=limits,
            top_k=top_k,
            semantics=semantics,
            pushdown=pushdown,
            qtrace=qtrace,
            tracing=tracing,
            metered=metered,
        )
    finally:
        if qtrace is not None:
            obs_trace.end_trace(qtrace)


def _run_batch_traced(
    engine,
    queries: Sequence[str],
    *,
    jobs: int,
    ranker,
    limits,
    top_k: Optional[int],
    semantics: str,
    pushdown: Optional[bool],
    qtrace,
    tracing: bool,
    metered: bool,
) -> list:
    searcher = engine._ensure_searcher(jobs)
    stats = ExecutionStats()
    resolved: dict[str, list] = {}
    keys: dict[str, object] = {}
    pending: list[str] = []
    for query in dict.fromkeys(queries):
        key = engine._cache_key(query, ranker, limits, top_k, semantics, pushdown)
        keys[query] = key
        entry = engine.result_cache.lookup(key) if key is not None else None
        if entry is not None:
            resolved[query] = list(entry.results)
            stats.merge(entry.stats)
        else:
            pending.append(query)

    options = {
        "ranker": ranker,
        "limits": limits,
        "top_k": top_k,
        "semantics": semantics,
        "pushdown": pushdown,
        "observe": (tracing, metered),
    }
    costs = None
    if engine.adaptive and len(pending) > 1 and jobs > 1:
        # Cost-routed dispatch: one cheap posting-length estimate per
        # pending query balances the workers' predicted load.  Purely a
        # scheduling hint — outcomes are keyed by query, so results and
        # error order are identical to contiguous chunking.
        costs = [
            engine.query_cost(query, semantics=semantics)
            for query in pending
        ]
    outcomes = searcher.run(pending, options, costs=costs)
    if tracing or metered:
        # Worker-index order, not arrival order, so the merged trace and
        # registry are identical however the OS scheduled the chunks —
        # and the metric merge itself is commutative (sums and maxima).
        for worker, transport, (root, delta) in sorted(
            searcher.last_obs, key=lambda record: record[0]
        ):
            if qtrace is not None and root is not None:
                root.tag(worker=worker, transport=transport)
                qtrace.adopt(root)
            if metered and delta:
                obs_metrics.REGISTRY.merge_snapshot(delta)

    for query in pending:
        status, payload, worker_stats = outcomes[query]
        if status == "error":
            # The serial loop would have raised here, with every earlier
            # query already answered (and cached) — which just happened.
            engine.last_stats = stats
            raise payload
        results = [
            revive_result(engine.traversal_cache, portable, score, rank + 1)
            for rank, (portable, score) in enumerate(payload)
        ]
        resolved[query] = results
        stats.merge(worker_stats)
        key = keys[query]
        if key is not None:
            __, matches = engine._plan(query, top_k, semantics)
            engine._cache_store(key, ranker, matches, results, worker_stats)

    engine.last_stats = stats
    return [resolved[query] for query in queries]
