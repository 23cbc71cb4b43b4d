"""Experiment P2 (extension): live updates — incremental apply + answer cache.

Measures the live-update subsystem on planted synthetic workloads:

* **incremental apply vs rebuild-per-batch** — a stream of mutation
  batches applied through ``engine.apply`` (changeset-driven in-place
  maintenance of index/graph/caches) versus the status-quo alternative
  of mutating the database and calling ``engine.rebuild()`` after every
  batch.  Both engines start from identical databases and must answer
  every workload query identically afterwards; the wall-clock ratio is
  the gate (>= 10x).
* **warm answer cache vs cold planning** — the same query workload
  answered twice: cold (cache cleared, full plan + enumerate + rank)
  and warm (dependency-tracked cache hits).  Results must be identical;
  the wall-clock ratio is the gate (>= 5x).
* **mixed read/write stream** — a skewed search stream interleaved with
  mutation batches (``generate_mixed_workload``): every search must
  match a freshly built engine bit for bit, and the cache must both hit
  (skewed re-reads) and invalidate (mutations landing inside the
  answer-reach ball of cached match tuples).  A counter gate (no wall
  clock) then pins the *bound* on that ball: on a one-component graph,
  with every workload query cached before each structural batch, the
  entries invalidated per batch must stay strictly below the live entry
  count — component-scale taint would drop them all — and every entry
  that survives must equal a fresh engine's answer.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_live_updates.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_live_updates.py --quick  # CI gate

or through pytest-benchmark like the other benches
(``pytest benchmarks/ -o python_files='bench_*.py'``).
"""

import argparse
import sys
import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import (
    MixedWorkloadConfig,
    WorkloadConfig,
    generate_mixed_workload,
    generate_workload,
)
from repro.graph.csr import _UNREACHABLE
from repro.live.changes import apply_to_database

_LIMITS = SearchLimits(max_rdb_length=4)


def _database(departments, employees=8):
    return generate_company_like(
        SyntheticConfig(
            departments=departments,
            projects_per_department=3,
            employees_per_department=employees,
            works_on_per_employee=2,
            seed=17,
        )
    )


def _workload(database, queries=6):
    return generate_workload(
        database,
        WorkloadConfig(
            queries=queries, keywords_per_query=2, matches_per_keyword=3,
            seed=13,
        ),
    )


def _mutation_batches(database, queries, batches, per_batch, seed=31):
    """Deterministic mutation batches drawn from the mixed generator."""
    stream = generate_mixed_workload(
        database,
        queries,
        MixedWorkloadConfig(
            operations=batches * 4,
            update_ratio=1.0,
            mutations_per_batch=per_batch,
            seed=seed,
        ),
    )
    return [op.mutations for op in stream if op.kind == "apply"][:batches]


def _rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


def _answers(engine, texts):
    return [_rendered(engine.search(text, limits=_LIMITS)) for text in texts]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_setup():
    database = _database(departments=10)
    queries = _workload(database)
    batches = _mutation_batches(database, queries, batches=6, per_batch=4)
    return database, queries, batches


@pytest.mark.parametrize("mode", ["incremental", "rebuild"])
def test_apply_vs_rebuild(benchmark, live_setup, mode):
    database, queries, batches = live_setup
    benchmark.group = "P2 apply vs rebuild"
    benchmark.name = mode

    def run():
        db = _database(departments=10)
        workload = _workload(db)
        engine = KeywordSearchEngine(db)
        for batch in batches:
            if mode == "incremental":
                engine.apply(batch)
            else:
                apply_to_database(db, batch)
                engine.rebuild()
        return engine, workload

    engine, workload = benchmark(run)
    texts = [query.text for query in workload]
    fresh = KeywordSearchEngine(engine.database)
    assert _answers(engine, texts) == _answers(fresh, texts)


@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_answer_cache(benchmark, live_setup, mode):
    database, queries, __ = live_setup
    engine = KeywordSearchEngine(database)
    texts = [query.text for query in queries]
    benchmark.group = "P2 answer cache"
    benchmark.name = mode
    reference = _answers(engine, texts)

    def run():
        if mode == "cold":
            engine.result_cache.clear()
        return _answers(engine, texts)

    answers = benchmark(run)
    assert answers == reference


# ----------------------------------------------------------------------
# standalone report (CI smoke runs this with --quick)
# ----------------------------------------------------------------------
def _time_apply_loop(departments, batches_spec, incremental):
    database = _database(departments=departments)
    queries = _workload(database)
    batches = _mutation_batches(database, queries, *batches_spec)
    engine = KeywordSearchEngine(database)
    started = time.perf_counter()
    for batch in batches:
        if incremental:
            engine.apply(batch)
        else:
            apply_to_database(database, batch)
            engine.rebuild()
    elapsed = time.perf_counter() - started
    return engine, queries, elapsed


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    args = parser.parse_args(argv)

    failures = []
    departments = 12 if args.quick else 20
    batches_spec = (8, 4) if args.quick else (16, 5)

    # -- incremental apply vs rebuild-per-batch -------------------------
    live_engine, queries, incremental_s = _time_apply_loop(
        departments, batches_spec, incremental=True
    )
    rebuilt_engine, __, rebuild_s = _time_apply_loop(
        departments, batches_spec, incremental=False
    )
    ratio = rebuild_s / max(incremental_s, 1e-9)
    texts = [query.text for query in queries]
    live_answers = _answers(live_engine, texts)
    rebuilt_answers = _answers(rebuilt_engine, texts)
    fresh_answers = _answers(
        KeywordSearchEngine(live_engine.database), texts
    )
    identical = live_answers == rebuilt_answers == fresh_answers
    print(f"incremental apply ({live_engine.database.count()} tuples, "
          f"{batches_spec[0]} batches x {batches_spec[1]} mutations):",
          file=out)
    print(f"  incremental {incremental_s * 1e3:8.2f} ms   "
          f"rebuild-per-batch {rebuild_s * 1e3:8.2f} ms   "
          f"speedup {ratio:.1f}x", file=out)
    print(f"  identical to rebuilt and fresh engines: {identical}", file=out)
    if not identical:
        failures.append("apply: live engine diverged from rebuilt engine")
    if ratio < 10.0:
        failures.append(f"apply: incremental speedup {ratio:.1f}x < 10x")

    # -- warm answer cache vs cold planning -----------------------------
    engine = live_engine
    engine.result_cache.clear()
    started = time.perf_counter()
    cold = _answers(engine, texts)
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm = _answers(engine, texts)
    warm_s = time.perf_counter() - started
    cache_ratio = cold_s / max(warm_s, 1e-9)
    hits = engine.result_cache.stats.hits
    print(f"answer cache ({len(texts)} queries):", file=out)
    print(f"  cold {cold_s * 1e3:8.2f} ms   warm {warm_s * 1e3:8.2f} ms   "
          f"speedup {cache_ratio:.1f}x   hits {hits}", file=out)
    if cold != warm:
        failures.append("cache: warm answers diverged from cold answers")
    if hits < len(texts):
        failures.append(f"cache: expected >= {len(texts)} hits, saw {hits}")
    if cache_ratio < 5.0:
        failures.append(f"cache: warm speedup {cache_ratio:.1f}x < 5x")

    # -- mixed read/write stream, differential --------------------------
    database = _database(departments=max(4, departments // 2))
    stream_queries = _workload(database, queries=4)
    engine = KeywordSearchEngine(database)
    stream = generate_mixed_workload(
        database,
        stream_queries,
        MixedWorkloadConfig(
            operations=20 if args.quick else 40,
            update_ratio=0.3,
            mutations_per_batch=3,
            skew=1.2,
            seed=47,
        ),
    )
    searches = applies = 0
    stream_identical = True
    for op in stream:
        if op.kind == "apply":
            engine.apply(op.mutations)
            applies += 1
            continue
        searches += 1
        live = _rendered(engine.search(op.query, limits=_LIMITS))
        oracle = _rendered(
            KeywordSearchEngine(database).search(op.query, limits=_LIMITS)
        )
        if live != oracle:
            stream_identical = False
    stats = engine.result_cache.stats
    print(f"mixed stream: {searches} searches / {applies} mutation batches; "
          f"identical to fresh oracle: {stream_identical}; "
          f"cache {stats.describe()}", file=out)
    if not stream_identical:
        failures.append("stream: live answers diverged from fresh oracle")
    if stats.hits <= 0:
        failures.append("stream: skewed reads produced no cache hits")
    if stats.invalidated <= 0:
        failures.append("stream: mutations never invalidated a cache entry")

    # -- bounded taint on one component (counters only) -----------------
    database = _database(departments=departments)
    taint_queries = _workload(database, queries=12)
    taint_texts = [query.text for query in taint_queries]
    engine = KeywordSearchEngine(database)
    frozen = engine.traversal_cache.frozen()
    row = frozen.distances(0)
    connected = all(
        row[node] != _UNREACHABLE
        for node in range(frozen.capacity)
        if frozen._alive[node]
    )
    stats = engine.result_cache.stats
    structural = live_entries = invalidated = survivors = stale = 0
    for batch in _mutation_batches(database, taint_queries, 8, 2):
        _answers(engine, taint_texts)  # every entry live again
        live, before = len(engine.result_cache), stats.invalidated
        if not engine.apply(batch).structural_tuples():
            continue
        structural += 1
        live_entries += live
        invalidated += stats.invalidated - before
        fresh = KeywordSearchEngine(database, result_cache_entries=0)
        for text in taint_texts:
            hits = stats.hits
            answer = _rendered(engine.search(text, limits=_LIMITS))
            if stats.hits > hits:  # served by an entry that survived
                survivors += 1
                stale += answer != _rendered(fresh.search(text, limits=_LIMITS))
    print(f"bounded taint: "
          f"{'one component' if connected else 'several components'}, "
          f"{structural} "
          f"structural batches; invalidated {invalidated} of {live_entries} "
          f"live entries; {survivors} survivors, {stale} stale", file=out)
    if not connected or not structural:
        failures.append("taint: needs structural batches on one component")
    if invalidated >= live_entries:
        failures.append(
            f"taint: invalidated {invalidated} of {live_entries} live entries "
            f"— not below component-scale taint"
        )
    if stale:
        failures.append(f"taint: {stale} surviving entries were stale")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        return 1
    print(f"OK: incremental apply {ratio:.1f}x >= 10x, "
          f"warm cache {cache_ratio:.1f}x >= 5x, "
          f"all answers bit-identical", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
