"""Experiment P4 (extension): parallel serving and engine snapshots.

Two answer-identity gates guard the scale layer (:mod:`repro.scale`);
the timings are printed, never gated:

* **parallel serving** — a multi-tenant synthetic workload (component
  per tenant, keyword matches spread across tenants) answered by
  ``search_batch`` serially and by the 4-worker parallel path
  (``jobs=4``) over a snapshot.  Gate: the pooled answers equal the
  serial ones.
* **snapshot open** — ``KeywordSearchEngine.open`` on a saved snapshot
  versus the cold start a serving process otherwise pays: load the raw
  tuples (JSON) and rebuild database, index, graph and compiled CSR
  kernel from scratch.  Gate: the restored answers equal the writer's.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI gate
"""

import argparse
import os
import sys
import tempfile
import time

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_tenants
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.relational.io import dump_json, load_json

TENANTS = 12
JOBS = 4
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)


def _best(callable_, rounds):
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _workload(quick):
    config = SyntheticConfig(
        departments=5,
        projects_per_department=4,
        employees_per_department=10,
        works_on_per_employee=3,
        seed=17,
    )
    database = generate_tenants(config, tenants=TENANTS)
    queries = [
        query.text
        for query in generate_workload(
            database,
            WorkloadConfig(
                queries=12 if quick else 18,
                keywords_per_query=3,
                matches_per_keyword=10,
                seed=13,
            ),
        )
    ]
    return database, queries


def _rendered(batches):
    return [[(r.render(), r.score, r.rank) for r in results]
            for results in batches]


def _serving_section(database, queries, rounds, out):
    serial = KeywordSearchEngine(database, result_cache_entries=0)
    serial_s = _best(lambda: serial.search_batch(queries, limits=LIMITS), rounds)
    serial_results = _rendered(serial.search_batch(queries, limits=LIMITS))

    parallel = KeywordSearchEngine(database, result_cache_entries=0)
    try:
        parallel_results = _rendered(
            parallel.search_batch(queries, limits=LIMITS, jobs=JOBS)
        )  # also warms the worker pool and its caches
        identical = parallel_results == serial_results
        parallel_s = _best(
            lambda: parallel.search_batch(queries, limits=LIMITS, jobs=JOBS),
            rounds,
        )
    finally:
        parallel.close_pool()

    answers = sum(len(results) for results in serial_results)
    print(f"serving workload: {database.count()} tuples over {TENANTS} "
          f"tenant components, {len(queries)} 3-keyword queries -> "
          f"{answers} answers", file=out)
    print(f"  serial (1 proc)               {serial_s * 1e3:8.1f} ms/batch",
          file=out)
    print(f"  parallel ({JOBS} snapshot workers) {parallel_s * 1e3:8.1f} "
          f"ms/batch   speedup {serial_s / parallel_s:.1f}x", file=out)
    print(f"  identical results: {identical}", file=out)
    return identical


def _snapshot_section(database, queries, rounds, out):
    tmp = tempfile.mkdtemp(prefix="repro-bench-scale-")
    raw_path = os.path.join(tmp, "tuples.json")
    snap_path = os.path.join(tmp, "engine.snap")
    dump_json(database, raw_path)
    writer = KeywordSearchEngine(database)
    writer.save(snap_path)

    def cold_start():
        engine = KeywordSearchEngine(load_json(raw_path))
        engine.traversal_cache.frozen()  # a serving engine compiles anyway
        return engine

    cold_s = _best(cold_start, rounds)
    open_s = _best(lambda: KeywordSearchEngine.open(snap_path), rounds + 2)

    probe = queries[0]
    expected = [
        (r.render(), r.score) for r in writer.search(probe, limits=LIMITS)
    ]

    # Restoration is deliberately lazy (stores, postings, payloads decode
    # on demand), so also time open *plus* the first answered query — the
    # end-to-end serving cold-start — against the same on the cold path.
    def open_and_answer():
        engine = KeywordSearchEngine.open(snap_path)
        return engine, engine.search(probe, limits=LIMITS)

    def cold_and_answer():
        engine = cold_start()
        return engine, engine.search(probe, limits=LIMITS)

    first_cold_s = _best(lambda: cold_and_answer()[1], rounds)
    first_open_s = _best(lambda: open_and_answer()[1], rounds)
    restored, answered = open_and_answer()
    identical = [(r.render(), r.score) for r in answered] == expected

    raw_size = os.path.getsize(raw_path)
    snap_size = os.path.getsize(snap_path)
    print(f"snapshot: {snap_size:,} bytes (raw JSON {raw_size:,} bytes), "
          f"mmap-backed CSR sections", file=out)
    print(f"  cold start (load raw + build) {cold_s * 1e3:8.1f} ms", file=out)
    print(f"  snapshot open                 {open_s * 1e3:8.1f} ms   "
          f"speedup {cold_s / open_s:.1f}x", file=out)
    print(f"  ... + first answered query    cold {first_cold_s * 1e3:8.1f} ms   "
          f"snapshot {first_open_s * 1e3:8.1f} ms   "
          f"speedup {first_cold_s / first_open_s:.1f}x", file=out)
    print(f"  identical results: {identical}", file=out)
    return identical


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    args = parser.parse_args(argv)
    rounds = 3 if args.quick else 5

    database, queries = _workload(args.quick)
    failures = []

    if not _serving_section(database, queries, rounds, out):
        failures.append("serving: parallel answers diverged from serial")
    if not _snapshot_section(database, queries, rounds, out):
        failures.append("snapshot: restored answers diverged from the writer")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        return 1
    print("OK: pooled and snapshot-restored answers bit-identical", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
