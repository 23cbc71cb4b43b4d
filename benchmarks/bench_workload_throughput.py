"""Experiment S4 (extension): workload throughput — compiled core vs networkx.

Measures the engine's traversal core on the two datasets the differential
tests cover:

* **single-query latency** — one ``engine.search`` call, the default
  compiled ``csr`` core (the fast path) vs the brute-force networkx
  reference core (``core="reference"``), on the
  paper's company instance and on a planted synthetic database;
* **batch throughput** — ``engine.search_batch`` over a generated workload
  (repeated queries included, as served traffic would have) vs a
  query-at-a-time loop through the brute-force engine.

Both modes must return identical answers (asserted here and in
``tests/graph/test_csr.py``); the fast path is expected to be
at least 2x faster on the synthetic workload.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_workload_throughput.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_workload_throughput.py --quick  # CI smoke

or through pytest-benchmark like the other benches
(``pytest benchmarks/ -o python_files='bench_*.py'``).
"""

import argparse
import sys
import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import WorkloadConfig, batch_texts, generate_workload

_COMPANY_LIMITS = SearchLimits(max_rdb_length=3)
_SYNTHETIC_LIMITS = SearchLimits(max_rdb_length=5)


def _synthetic_database(departments: int = 50, works_on: int = 3):
    return generate_company_like(
        SyntheticConfig(
            departments=departments,
            projects_per_department=3,
            employees_per_department=10,
            works_on_per_employee=works_on,
            seed=17,
        )
    )


def _workload(database, queries: int = 8, repeats: int = 2):
    planted = generate_workload(
        database,
        WorkloadConfig(
            queries=queries, keywords_per_query=2, matches_per_keyword=3, seed=13
        ),
    )
    return batch_texts(planted, repeats=repeats)


def _rendered(results):
    return [(r.render(), r.score) for r in results]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def company_pair():
    database = build_company_database()
    return (
        KeywordSearchEngine(database, result_cache_entries=0),
        KeywordSearchEngine(database, core="reference",
                            result_cache_entries=0),
    )


@pytest.fixture(scope="module")
def synthetic_setup():
    database = _synthetic_database()
    texts = _workload(database)
    return (
        KeywordSearchEngine(database, result_cache_entries=0),
        KeywordSearchEngine(database, core="reference",
                            result_cache_entries=0),
        texts,
    )


@pytest.mark.parametrize("mode", ["fast", "networkx"])
def test_company_single_query(benchmark, company_pair, mode):
    fast, slow = company_pair
    engine = fast if mode == "fast" else slow
    benchmark.group = "S4 company single query"
    benchmark.name = mode
    results = benchmark(
        lambda: engine.search("Smith XML", limits=_COMPANY_LIMITS)
    )
    assert _rendered(results) == _rendered(
        (slow if mode == "fast" else fast).search(
            "Smith XML", limits=_COMPANY_LIMITS
        )
    )


@pytest.mark.parametrize("mode", ["fast", "networkx"])
def test_synthetic_single_query(benchmark, synthetic_setup, mode):
    fast, slow, texts = synthetic_setup
    engine = fast if mode == "fast" else slow
    benchmark.group = "S4 synthetic single query"
    benchmark.name = mode
    results = benchmark(
        lambda: engine.search(texts[0], limits=_SYNTHETIC_LIMITS)
    )
    assert results is not None


@pytest.mark.parametrize("mode", ["fast", "networkx"])
def test_synthetic_batch_throughput(benchmark, synthetic_setup, mode):
    fast, slow, texts = synthetic_setup
    benchmark.group = "S4 synthetic batch"
    benchmark.name = mode
    if mode == "fast":
        batched = benchmark(
            lambda: fast.search_batch(texts, limits=_SYNTHETIC_LIMITS)
        )
    else:
        batched = benchmark(
            lambda: [slow.search(text, limits=_SYNTHETIC_LIMITS) for text in texts]
        )
    assert len(batched) == len(texts)


# ----------------------------------------------------------------------
# standalone report (CI smoke runs this with --quick)
# ----------------------------------------------------------------------
def _time(callable_, rounds: int) -> float:
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _report_dataset(name, database, texts, limits, rounds, out):
    fast = KeywordSearchEngine(database, result_cache_entries=0)
    slow = KeywordSearchEngine(database, core="reference",
                               result_cache_entries=0)

    batched_fast = fast.search_batch(texts, limits=limits)
    batched_slow = [slow.search(text, limits=limits) for text in texts]
    for fast_results, slow_results in zip(batched_fast, batched_slow):
        assert _rendered(fast_results) == _rendered(slow_results), (
            "fast and networkx answers diverged"
        )

    single_fast = _time(lambda: fast.search(texts[0], limits=limits), rounds)
    single_slow = _time(lambda: slow.search(texts[0], limits=limits), rounds)
    batch_fast = _time(lambda: fast.search_batch(texts, limits=limits), rounds)
    batch_slow = _time(
        lambda: [slow.search(text, limits=limits) for text in texts], rounds
    )

    throughput = len(texts) / batch_fast
    speedup = batch_slow / batch_fast
    print(f"{name}: {database.count()} tuples, {len(texts)} queries", file=out)
    print(f"  single query   fast {single_fast * 1e3:8.2f} ms   "
          f"networkx {single_slow * 1e3:8.2f} ms   "
          f"speedup {single_slow / single_fast:5.1f}x", file=out)
    print(f"  batch          fast {batch_fast * 1e3:8.2f} ms   "
          f"networkx {batch_slow * 1e3:8.2f} ms   "
          f"speedup {speedup:5.1f}x   "
          f"({throughput:,.0f} queries/s)", file=out)
    return speedup


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    args = parser.parse_args(argv)

    # Best-of-N smooths scheduler noise; the gate below has ~75x headroom
    # but a single cold round on a loaded CI runner is still worth avoiding.
    rounds = 2 if args.quick else 3
    departments = 30 if args.quick else 50
    queries = 4 if args.quick else 8

    company = build_company_database()
    _report_dataset(
        "company", company,
        ["Smith XML", "Brown CS", "Smith XML", "John Smith"],
        _COMPANY_LIMITS, rounds, out,
    )

    synthetic = _synthetic_database(departments=departments)
    texts = _workload(synthetic, queries=queries)
    speedup = _report_dataset(
        "synthetic", synthetic, texts, _SYNTHETIC_LIMITS, rounds, out,
    )

    if speedup < 2.0:
        print(f"FAIL: synthetic batch speedup {speedup:.1f}x < 2x", file=out)
        return 1
    print(f"OK: synthetic batch speedup {speedup:.1f}x >= 2x", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
