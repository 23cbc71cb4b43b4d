"""Process-pool batch execution over forks of the serving engine.

``KeywordSearchEngine.search_batch(jobs=N)`` hands the batch's
answer-cache misses to :meth:`ParallelSearcher.run`, and ``N`` counts
every process that answers them: the coordinator itself plus N − 1
workers.  The coordinator keeps the first ⌊n/N⌋ misses and answers
them with the serial loop's own body; the rest is cut into one
contiguous chunk per worker.  Each worker is a ``fork`` of the
coordinator that serves the engine object it inherits — nothing is
pickled, saved or reopened to start one.  On a pool's first batch the
coordinator answers its own share *before* it forks, so the workers
inherit the rows, interning runs, posting directory and distance rows
that share just decoded; on every later batch it answers its share
while the workers answer theirs.  Where ``fork`` does not exist there is
no pool: ``search_batch`` answers through its serial loop.  The engine
starts no thread of its own; a fork copies only the calling thread, so
a caller that runs other threads must not pool while one of them holds
a lock.

A worker only reads what it inherits.  It never writes, flushes or
closes the attached WAL, the snapshot mmap or any other file the engine
holds, and it leaves through the fork bootstrap's ``os._exit``, which
runs no ``atexit`` hook and flushes no inherited buffer.

Bit-identity with the serial path is structural, not hoped-for:

* a worker answers a query with exactly the code ``engine.search`` runs
  serially, on a copy of the coordinator's engine at the pool's
  ``version``, so per-query results, order and any
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


def _run_chunk(engine, chunk):
    """Answer one contiguous slice of the batch inside a worker.

    A failing query aborts the rest of its chunk (the coordinator never
    uses outcomes past the first batch error anyway) but keeps the
    chunk's earlier successes, mirroring the serial loop.

    Tracing rides the same outcome stream: the coordinator's switch
    travels with the chunk, and the worker's per-query trace roots come
    back under one chunk root as a trailing
    ``(None, "obs", trace_root, None)`` pseudo-record.
    """
    fault.maybe("pool.chunk")
    positions, queries, options, trace_on = chunk
    # The coordinator's setting is authoritative each chunk — a worker
    # inherited the flag as it stood at the fork.
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


def _worker_loop(connection, engine) -> None:
    """One forked worker: serve chunks on the inherited engine until the
    coordinator sends ``None`` or hangs up."""
    while True:
        try:
            chunk = connection.recv()
        except EOFError:
            return
        if chunk is None:
            return
        try:
            connection.send(("ok", _run_chunk(engine, chunk)))
        except BaseException as error:  # pragma: no cover - worker bug guard
            connection.send(("crashed", repr(error)))
            return


class ParallelSearcher:
    """A coordinator plus ``jobs - 1`` dedicated forked workers, one pipe
    per worker, all serving one engine at one ``version``.

    Unlike a task-stealing pool, worker chunk *i* of every batch goes to
    worker *i*: repeated batches of a serving loop land on the worker whose
    traversal/answer caches already hold their state, so steady-state
    latency is the warm cost.  Workers are daemonic and die with the
    coordinator; :meth:`close` shuts them down explicitly.  The engine
    owner starts a new searcher whenever its ``version`` moves, so a
    worker's inherited engine never goes stale.

    Every chunk's answers come back pickled over the worker's pipe;
    :attr:`pipe_batches` counts the chunks the workers answered.
    """

    def __init__(self, engine, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("jobs must be at least 2")
        #: The engine every worker forks from and serves.
        self.engine = engine
        self.jobs = jobs
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
        """Fork one worker serving the engine as it stands now; fork
        inherits the arguments, so nothing is pickled."""
        context = multiprocessing.get_context("fork")
        parent_end, worker_end = context.Pipe()
        process = context.Process(
            target=_worker_loop, args=(worker_end, self.engine), daemon=True
        )
        process.start()
        worker_end.close()
        return (process, parent_end)

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
        """Replace a dead worker with a fresh fork of the engine."""
        self.respawns += 1
        self._retire_worker(index)
        try:
            self._workers[index] = self._spawn_worker()
        except OSError:
            return False
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
        matches, stats)``.  On the pool's first batch the coordinator
        runs it over its own share before forking the workers, so they
        inherit what the share decoded; afterwards it runs between
        sending the worker chunks and reading their replies.

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
        pipe on the coordinator side) is re-forked from the engine and
        its lost chunk retried exactly once; if the respawn or the retry
        fails too, the coordinator answers the chunk with ``answer`` —
        the batch completes either way, with bit-identical results.
        """
        self.last_obs = []
        self.last_assignment = []
        if not queries:
            return {}
        observe = obs_trace.ENABLED
        own = len(queries) // self.jobs
        rest = len(queries) - own
        size = -(-rest // min(self.jobs - 1, rest))
        chunks = [
            list(range(start, min(start + size, len(queries))))
            for start in range(own, len(queries), size)
        ]
        self.last_assignment = ([list(range(own))] if own else []) + chunks
        try:
            mine = None
            if self._workers is None:
                # This share first: the forks inherit what it decoded.
                mine = _answer_here(zip(range(own), queries), answer)
                # One at a time, so close() reaps the forks made before
                # one that fails.
                self._workers = []
                for __ in range(self.jobs - 1):
                    self._workers.append(self._spawn_worker())
            busy = []
            for index, positions in enumerate(chunks):
                chunk = (positions, [queries[p] for p in positions], options, observe)
                __, connection = self._workers[index]
                try:
                    connection.send(chunk)
                except (BrokenPipeError, OSError):
                    pass  # dead already; the receive loop heals it
                busy.append((index, chunk))
            if mine is None:
                mine = _answer_here(zip(range(own), queries), answer)
            replies = [(None, mine)]
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
            # The worker died before replying. Re-fork it from the
            # engine and retry the lost chunk exactly once.
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
            raise RuntimeError(f"pool worker crashed: {chunk_outcomes}")
        self.pipe_batches += 1
        return chunk_outcomes

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
        return f"ParallelSearcher(jobs={self.jobs}, {state})"
