"""Process-pool batch execution over snapshot-opened engines.

``KeywordSearchEngine.search_batch(jobs=N)`` hands the batch's
answer-cache misses to :meth:`ParallelSearcher.run`, and ``N`` counts
every process that answers them: the coordinator itself plus N − 1
workers.  The coordinator keeps the first ⌊n/N⌋ misses and answers
them with the serial loop's own body while the workers run; the rest
is cut into one contiguous chunk per worker.  Each worker opens the
coordinator's snapshot **once** into its own engine with the same
configuration — the snapshot's array sections are ``mmap``-backed, so
the workers share page-cache pages instead of copying the compiled
graph N − 1 times.

Bit-identity with the serial path is structural, not hoped-for:

* a worker answers a query with exactly the code ``engine.search`` runs
  serially, so per-query results, order and any
  :class:`~repro.errors.SearchLimitError` are the serial ones;
* the coordinator commits outcomes in input order and raises the error
  of the *earliest* failing query — the one serial ``search_batch``
  would have hit first — after committing the queries before it and
  after reading every worker reply of the batch;
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


def _run_chunk(chunk):
    """Answer one contiguous slice of the batch inside a worker.

    A failing query aborts the rest of its chunk (the coordinator never
    uses outcomes past the first batch error anyway) but keeps the
    chunk's earlier successes, mirroring the serial loop.

    Tracing rides the same outcome stream: the coordinator's switch
    travels with the chunk (explicit so spawned workers match forked
    ones), and the worker's per-query trace roots come back under one
    chunk root as a trailing ``(None, "obs", trace_root, None)``
    pseudo-record.
    """
    fault.maybe("pool.chunk")
    positions, queries, options, trace_on = chunk
    engine = _WORKER_ENGINE
    # The coordinator's setting is authoritative each chunk — a forked
    # worker may have inherited a flag the coordinator has since flipped.
    obs_trace.set_enabled(trace_on)
    outcomes = []
    with obs_trace.traced("worker.batch", queries=len(queries)) as chunk_trace:
        for position, query in zip(positions, queries):
            try:
                results = engine.search(query, *options)
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
    if chunk_trace is not None:
        outcomes.append((None, "obs", chunk_trace.root, None))
    return outcomes


def _answer_here(pairs, answer) -> list:
    """Answer ``(position, query)`` pairs in the coordinator with the
    serial loop's body, stopping at the first error as a worker does."""
    outcomes = []
    for position, query in pairs:
        try:
            results, matches, stats = answer(query)
        except ReproError as error:
            outcomes.append((position, "error", error, None))
            break
        outcomes.append((position, "done", (results, matches), stats))
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
    """A coordinator plus ``jobs - 1`` dedicated snapshot workers, one
    pipe per worker.

    Unlike a task-stealing pool, worker chunk *i* of every batch goes to
    worker *i*: repeated batches of a serving loop land on the worker whose
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
        if jobs < 2:
            raise ValueError("jobs must be at least 2")
        self.snapshot_path = str(snapshot_path)
        self.jobs = jobs
        self.result_cache_entries = result_cache_entries
        #: Adaptive-planner flag every worker engine opens with, so a
        #: coordinator running static never pairs with adaptive workers.
        self.adaptive = adaptive
        self._workers: Optional[list] = None
        self.pipe_batches = 0
        #: Self-healing counters: workers respawned after dying
        #: mid-batch, and chunks the coordinator answered itself after
        #: a respawn (or its retry) failed too.
        self.respawns = 0
        self.inline_chunks = 0
        #: Per-chunk trace roots from the most recent traced :meth:`run`
        #: — ``(worker_index, trace_root)`` tuples in worker order.
        self.last_obs: list = []
        #: Per-chunk position lists of the most recent :meth:`run` —
        #: the contiguous cut of the batch, the coordinator's share first.
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
            workers = [self._spawn_worker() for __ in range(self.jobs - 1)]
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

    def run(self, queries: Sequence[str], options: tuple, answer) -> dict:
        """Answer distinct queries here and on the workers; returns
        per-query outcomes.

        The coordinator keeps the first ⌊n/jobs⌋ queries — rounded down,
        so a one-query batch still reaches a worker — and the rest is
        cut into at most one contiguous chunk per worker, a single IPC
        round trip each; workers answer with ``engine.search(query,
        *options)``.  ``answer(query)`` is the serial loop's body:
        it answers one query in this process and returns ``(results,
        matches, stats)``.  The coordinator runs it over its own share
        between sending the worker chunks and reading their replies.

        Each outcome is ``("ok", portable_results, stats)`` from a
        worker, ``("done", (results, matches), stats)`` from this
        process, or ``("error", error, None)``.  Every chunk stops at its
        first error, which is safe because the caller commits outcomes in
        input order and never past the batch's first failure.  Every
        worker reply is read before this returns, so no stale reply is
        left in a pipe.

        While tracing is on, each worker ships its chunk's trace root
        back; the active trace adopts the roots in worker order, so the
        result is the same however the OS scheduled the chunks.  The
        coordinator's own share records straight into the active trace.

        The pool self-heals: a worker that died mid-chunk (EOF or broken
        pipe on the coordinator side) is respawned against the current
        snapshot and its lost chunk retried exactly once; if the respawn
        or the retry fails too, the coordinator answers the chunk with
        ``answer`` — the batch completes either way, with bit-identical
        results.
        """
        self.last_obs = []
        self.last_assignment = []
        if not queries:
            return {}
        workers = self._ensure_workers()
        observe = obs_trace.ENABLED
        own = len(queries) // self.jobs
        rest = len(queries) - own
        size = -(-rest // min(len(workers), rest))
        chunks = [
            list(range(start, min(start + size, len(queries))))
            for start in range(own, len(queries), size)
        ]
        self.last_assignment = ([list(range(own))] if own else []) + chunks
        busy = []
        for index, positions in enumerate(chunks):
            chunk = (positions, [queries[p] for p in positions], options, observe)
            __, connection = workers[index]
            try:
                connection.send(chunk)
            except (BrokenPipeError, OSError):
                pass  # dead already; the receive loop heals it
            busy.append((index, chunk))
        try:
            replies = [(None, _answer_here(zip(range(own), queries), answer))]
            for index, chunk in busy:
                replies.append((index, self._receive(index, chunk, answer)))
        except BaseException:
            # Not a query's own error: replies may be unread, so the
            # pool cannot serve another batch.
            self.close()
            raise
        outcomes: dict[str, tuple] = {}
        qtrace = obs_trace.current_trace()
        for index, chunk_outcomes in replies:
            for position, result_status, payload, stats in chunk_outcomes:
                if result_status == "obs":
                    # Trailing worker trace root, not a query.
                    self.last_obs.append((index, payload))
                    if qtrace is not None:
                        payload.tag(worker=index)
                        qtrace.adopt(payload)
                    continue
                outcomes[queries[position]] = (result_status, payload, stats)
        return outcomes

    def _receive(self, index: int, chunk, answer) -> list:
        """One chunk's outcomes, healing a dead worker along the way."""
        __, connection = self._workers[index]
        try:
            reply = connection.recv()
        except (EOFError, OSError):
            # The worker died before replying. Respawn it on the current
            # snapshot and retry the lost chunk exactly once.
            reply = None
            if self._respawn(index):
                __, connection = self._workers[index]
                try:
                    connection.send(chunk)
                    reply = connection.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass  # died again: the coordinator answers the chunk
        if reply is None:
            self.inline_chunks += 1
            return _answer_here(zip(chunk[0], chunk[1]), answer)
        status, chunk_outcomes = reply
        if status != "ok":
            raise RuntimeError(f"snapshot worker crashed: {chunk_outcomes}")
        self.pipe_batches += 1
        return chunk_outcomes

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._workers is not None else "idle"
        return (
            f"ParallelSearcher({self.snapshot_path!r}, jobs={self.jobs}, {state})"
        )

