"""Process-pool batch execution over snapshot-opened engines.

``KeywordSearchEngine.search_batch(jobs=N)`` hands the batch's
answer-cache misses to :meth:`ParallelSearcher.run`: they are cut into
one contiguous chunk per worker, answered query-by-query on a pool of
worker processes and returned keyed by query.  Each worker opens the
coordinator's snapshot **once** (in the pool initializer) into its own
engine with the same configuration — the snapshot's array sections
are ``mmap``-backed, so the workers share page-cache pages instead of
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
path steps, keyword bindings, scores), pickled over each worker's pipe
as one ``("ok", outcomes)`` message per chunk, and are revived against
the coordinator's data graph; revival is allocation-cheap because
connection metrics and network spanning trees are computed lazily.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.executor import SearchResult
from repro.core.search import JoiningNetwork, SingleTupleAnswer
from repro.core.connections import Connection
from repro.durable import fault
from repro.errors import ReproError
from repro.graph.traversal import TuplePathStep
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ParallelSearcher", "revive_result"]

#: The worker process's engine, opened once per pool worker.
_WORKER_ENGINE = None


def _pool_context():
    """Prefer fork (cheap, snapshot pages shared immediately); fall back
    to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _init_worker(
    snapshot_path: str,
    result_cache_entries: int,
    adaptive: bool = True,
):
    global _WORKER_ENGINE
    from repro.core.engine import KeywordSearchEngine

    _WORKER_ENGINE = KeywordSearchEngine.open(
        snapshot_path,
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
        answer = Connection(cache, steps, portable[2])
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
    ``(None, "obs", (trace_root, metrics_delta), None)`` pseudo-record.

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


def _worker_loop(
    connection,
    snapshot_path: str,
    result_cache_entries: int,
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
        _init_worker(snapshot_path, result_cache_entries, adaptive)
    except BaseException as error:  # surface startup failures, don't hang
        connection.send(("crashed", repr(error)))
        return
    connection.send(("ready", None))
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
                _init_worker(chunk[1], result_cache_entries, adaptive)
            except BaseException as error:
                connection.send(("reopen-failed", repr(error)))
            else:
                if old_engine is not None:
                    old_engine.close()
                connection.send(("reopened", None))
            continue
        try:
            connection.send(("ok", _run_chunk(chunk)))
        except BaseException as error:  # pragma: no cover - worker bug guard
            connection.send(("crashed", repr(error)))
            return


class ParallelSearcher:
    """A pool of dedicated snapshot workers, one pipe per worker.

    Unlike a task-stealing pool, chunk *i* of every batch goes to worker
    *i*: repeated batches of a serving loop land on the worker whose
    traversal/answer caches already hold their state, so steady-state
    latency is the warm cost.  Workers are daemonic and die with the
    coordinator; :meth:`close` shuts them down explicitly.

    Every chunk's answers come back pickled over the worker's pipe;
    :attr:`pipe_batches` counts the chunks the workers answered.
    """

    def __init__(
        self,
        snapshot_path: str,
        jobs: int,
        *,
        result_cache_entries: int = 256,
        adaptive: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        self.snapshot_path = str(snapshot_path)
        self.jobs = jobs
        self.result_cache_entries = result_cache_entries
        #: Adaptive-planner flag every worker engine opens with, so a
        #: coordinator running static never pairs with adaptive workers.
        self.adaptive = adaptive
        self._workers: Optional[list] = None
        self.pipe_batches = 0
        #: Self-healing counters: workers respawned after dying
        #: mid-batch, and chunks degraded to in-process execution after
        #: a respawn (or its retry) failed too.
        self.respawns = 0
        self.inline_chunks = 0
        self._inline_engine = None
        #: Per-chunk observability payloads from the most recent
        #: :meth:`run` — ``(worker_index, (trace_root, metrics_delta))``
        #: tuples in worker order.
        self.last_obs: list = []
        #: Per-worker position lists of the most recent :meth:`run` —
        #: the contiguous cut of the batch.
        self.last_assignment: list = []

    @property
    def shm_batches(self) -> int:
        """The former shared-memory chunk count, now :attr:`pipe_batches`.

        ``benchmarks/e2e/run.py`` reads this name for its
        ``scale.shm_batches`` metric, and the benchmark's smoke test
        requires that metric to be positive on ``open_and_batch``; the
        alias goes when the benchmark renames the metric.
        """
        return self.pipe_batches

    def _spawn_worker(self) -> tuple:
        """Start one worker against the current snapshot path."""
        context = _pool_context()
        parent_end, worker_end = context.Pipe()
        process = context.Process(
            target=_worker_loop,
            args=(
                worker_end,
                self.snapshot_path,
                self.result_cache_entries,
                self.adaptive,
            ),
            daemon=True,
        )
        process.start()
        worker_end.close()
        return (process, parent_end)

    def _ensure_workers(self) -> list:
        if self._workers is None:
            workers = [self._spawn_worker() for __ in range(self.jobs)]
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
            worker = self._spawn_worker()
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

    def run(self, queries: Sequence[str], options: dict) -> dict:
        """Answer distinct queries on the pool; returns per-query outcomes.

        The batch is cut into at most one contiguous chunk per worker —
        a single IPC round trip each — so each chunk's positions stay
        ascending.  Each outcome is ``("ok", portable_results, stats)``
        or ``("error", error, None)``; a chunk stops at its first error,
        which is safe because the coordinator never consumes outcomes
        past the batch's first failure — every position before the first
        failing one lives in some chunk whose own error cutoff (input
        order within the chunk) cannot precede it.

        While tracing or metrics are on, each worker ships its chunk's
        trace root and metrics delta back; they merge in worker order
        (the active trace adopts the roots, the registry folds the
        deltas), so the result is the same however the OS scheduled the
        chunks.

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
        options = dict(options, observe=(obs_trace.ENABLED, obs_metrics.ENABLED))
        size = -(-len(queries) // min(self.jobs, len(queries)))
        self.last_assignment = [
            list(range(start, min(start + size, len(queries))))
            for start in range(0, len(queries), size)
        ]
        busy = []
        for index, positions in enumerate(self.last_assignment):
            chunk = (positions, [queries[p] for p in positions], options)
            __, connection = workers[index]
            try:
                connection.send(chunk)
            except (BrokenPipeError, OSError):
                pass  # dead already; the receive loop heals it
            busy.append((index, chunk))
        outcomes: dict[str, tuple] = {}
        qtrace = obs_trace.current_trace()
        for index, chunk in busy:
            status, chunk_outcomes = self._receive(index, chunk)
            if status == "ok":
                self.pipe_batches += 1
                if obs_metrics.ENABLED:
                    obs_metrics.REGISTRY.inc("pool.pipe_batches")
            elif status != "inline":
                self.close()
                raise RuntimeError(f"snapshot worker crashed: {chunk_outcomes}")
            for position, result_status, payload, stats in chunk_outcomes:
                if result_status == "obs":
                    # Trailing worker-observability record, not a query.
                    self.last_obs.append((index, payload))
                    root, delta = payload
                    if qtrace is not None and root is not None:
                        root.tag(worker=index)
                        qtrace.adopt(root)
                    if delta:
                        obs_metrics.REGISTRY.merge_snapshot(delta)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._workers is not None else "idle"
        return (
            f"ParallelSearcher({self.snapshot_path!r}, jobs={self.jobs}, {state})"
        )

