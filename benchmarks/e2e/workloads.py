"""The three workloads: what is staged, what set-up times, what is called.

Every workload drives the public ``KeywordSearchEngine`` API as one
closed-loop client.  The timed population is a fixed list of operations
(``calls_per_second * seconds`` of them, cut into ``ROUNDS`` equal
rounds), so every run of a seed executes exactly the same calls.
"""

from __future__ import annotations

import os
import random
import shutil
from time import perf_counter

from corpus import DF_CYCLE, zipf_counts

ROUNDS = 5
TOP_K = 10
JOBS = 2
BATCH = len(DF_CYCLE)
WARM_TEXTS = 16  # first answer + 15 warm-up calls, or two batches
CACHE_ENTRIES = 256
POOL_TEXTS = 4 * CACHE_ENTRIES
APPLY_EVERY = 10
WAL_TAIL = 48
SNAPSHOT = "bib.snap"

#: Pooled + serial probe batches of ``scale.pool_efficiency``, plus one
#: that pays the coordinator's lazy structures.
PROBE_BATCHES = 5


def call(engine, op):
    """Run one operation of a population against the engine."""
    kind, payload = op
    if kind == "search":
        return engine.search(payload, top_k=TOP_K)
    if kind == "batch":
        return engine.search_batch(payload, top_k=TOP_K, jobs=JOBS)
    if kind == "apply":
        return engine.apply(payload)
    return engine.compact_wal()


def units(op) -> int:
    """Queries + applies an operation completes (compaction: none)."""
    kind, payload = op
    if kind == "batch":
        return len(payload)
    return 0 if kind == "compact" else 1


def _per_round(workload, seconds: float, multiple: int) -> int:
    calls = workload.calls_per_second * seconds / ROUNDS
    return max(multiple, int(calls // multiple) * multiple)


def _texts(corpus, timed: int, spare: int = 0):
    """Disjoint (warm-up, timed, spare) slices of one text list; every
    slice starts on a df-cycle boundary."""
    texts = corpus.texts(WARM_TEXTS + timed + spare)
    return (
        texts[:WARM_TEXTS],
        texts[WARM_TEXTS : WARM_TEXTS + timed],
        texts[WARM_TEXTS + timed :],
    )


class ColdDistinct:
    name = "cold_distinct"
    #: Calibrated at the defining commit (README, "Calibration").
    calls_per_second = 48.0
    setups = 3
    snapshot = False
    wal_tail = 0
    distinct_texts = True  # a coordinator cache hit would be a bug
    pooled = False

    def population(self, corpus, seconds):
        per_round = _per_round(self, seconds, BATCH)
        warm, texts, spare = _texts(corpus, per_round * (ROUNDS + 1))
        rounds = [
            [("search", text) for text in texts[start : start + per_round]]
            for start in range(0, len(texts), per_round)
        ]
        return warm, rounds, spare

    def stage(self, context):
        return context.database

    def serve(self, database, warm):
        from repro.core.engine import KeywordSearchEngine

        start = perf_counter()
        engine = KeywordSearchEngine(database, result_cache_entries=0)
        built = perf_counter()
        stream = engine.search_stream(warm[0], top_k=TOP_K)
        next(stream, None)
        stream.close()
        first = perf_counter()
        for text in warm[1:]:
            engine.search(text, top_k=TOP_K)
        return engine, _stages(start, built, first)


class MixedRwWal:
    name = "mixed_rw_wal"
    calls_per_second = 40.0
    setups = 3
    snapshot = True
    wal_tail = WAL_TAIL
    distinct_texts = False
    pooled = False

    def population(self, corpus, seconds):
        per_round = _per_round(self, seconds, APPLY_EVERY)
        applies = per_round // APPLY_EVERY
        reads = per_round - applies
        warm, pool, spare = _texts(corpus, POOL_TEXTS)
        batches = corpus.mutation_batches(
            WAL_TAIL + applies * (ROUNDS + 1)
        )[WAL_TAIL:]
        rng = random.Random(corpus.seed * 1_000_003 + 7)
        rng.shuffle(pool)  # rank -> text

        def read_stream(total):
            stream = [
                pool[rank]
                for rank, count in enumerate(zipf_counts(POOL_TEXTS, total))
                for __ in range(count)
            ]
            rng.shuffle(stream)
            return stream

        # The extra (obs) round draws its own Zipf counts so the five
        # timed rounds read exactly the same per-rank counts with or
        # without it.
        stream = read_stream(reads * ROUNDS) + read_stream(reads)
        rounds = []
        for number in range(ROUNDS + 1):
            texts = iter(stream[number * reads : (number + 1) * reads])
            apply_batches = iter(
                batches[number * applies : (number + 1) * applies]
            )
            ops = []
            for index in range(per_round):
                if index % APPLY_EVERY == APPLY_EVERY - 1:
                    ops.append(("apply", next(apply_batches)))
                else:
                    ops.append(("search", next(texts)))
                if index == per_round // 2:
                    ops.append(("compact", None))
            rounds.append(ops)
        return warm, rounds, spare

    def stage(self, context):
        return context.copy_snapshot()

    def serve(self, snapshot, warm):
        from repro.core.engine import KeywordSearchEngine

        start = perf_counter()
        engine = KeywordSearchEngine.open(
            snapshot, wal=True, result_cache_entries=CACHE_ENTRIES
        )
        opened = perf_counter()
        engine.search(warm[0], top_k=TOP_K)
        first = perf_counter()
        for text in warm[1:]:
            engine.search(text, top_k=TOP_K)
        return engine, _stages(start, opened, first)


class OpenAndBatch:
    name = "open_and_batch"
    calls_per_second = 10.0
    setups = 5
    snapshot = True
    wal_tail = 0
    distinct_texts = True
    pooled = True

    def population(self, corpus, seconds):
        per_round = _per_round(self, seconds, 1)
        warm, texts, spare = _texts(
            corpus,
            per_round * (ROUNDS + 1) * BATCH,
            (2 * PROBE_BATCHES + 1) * BATCH,
        )
        batches = [
            ("batch", texts[start : start + BATCH])
            for start in range(0, len(texts), BATCH)
        ]
        rounds = [
            batches[start : start + per_round]
            for start in range(0, len(batches), per_round)
        ]
        return warm, rounds, spare

    def stage(self, context):
        return context.snapshot_path

    def serve(self, snapshot, warm):
        from repro.core.engine import KeywordSearchEngine

        start = perf_counter()
        engine = KeywordSearchEngine.open(
            snapshot, result_cache_entries=CACHE_ENTRIES
        )
        opened = perf_counter()
        engine.search_batch(warm[:BATCH], top_k=TOP_K, jobs=JOBS)
        first = perf_counter()
        engine.search_batch(warm[BATCH:], top_k=TOP_K, jobs=JOBS)
        return engine, _stages(start, opened, first)


def _stages(start, ready, first) -> dict:
    done = perf_counter()
    return {
        "total": done - start,
        "ready": ready - start,
        "first_answer": first - ready,
        "warm": done - first,
    }


WORKLOADS = {
    workload.name: workload
    for workload in (ColdDistinct(), MixedRwWal(), OpenAndBatch())
}


def prepare(workload, corpus, directory) -> dict:
    """Build, ``save`` and stage the WAL tail (run in a child
    interpreter so the cold build never counts toward ``peak_rss_mb``)."""
    from repro.core.engine import KeywordSearchEngine

    path = os.path.join(directory, SNAPSHOT)
    engine = KeywordSearchEngine(corpus.database())
    try:
        start = perf_counter()
        engine.save(path)
        save_s = perf_counter() - start
    finally:
        engine.close()
    facts = {
        "save_s": save_s,
        "snapshot_bytes": os.path.getsize(path),
        "tuples": corpus.tuple_count(),
    }
    if workload.wal_tail:
        engine = KeywordSearchEngine.open(path, wal=True)
        try:
            for batch in corpus.mutation_batches(workload.wal_tail):
                engine.apply(batch)
        finally:
            engine.close()
    return facts


def copy_pair(snapshot: str, directory: str) -> str:
    """Copy a snapshot and its WAL (when present) into ``directory``."""
    os.makedirs(directory)
    target = os.path.join(directory, SNAPSHOT)
    shutil.copyfile(snapshot, target)
    if os.path.exists(snapshot + ".wal"):
        shutil.copyfile(snapshot + ".wal", target + ".wal")
    return target
