"""Experiment P7: observability overhead and bit-identity gates.

Two properties make :mod:`repro.obs` safe to ship enabled-by-default
*off*:

* **bit-identity** — answering the standard planted workload with
  tracing and metrics enabled produces exactly the same answers, in the
  same order, with the same scores *and the same
  :class:`~repro.errors.SearchLimitError` points* as the untraced run.
  This is asserted, not benchmarked.
* **disabled overhead <= 2%** — when observability is off, every
  instrumentation site collapses to one module-attribute load plus a
  branch.  The gate multiplies the number of guarded sites an enabled
  run actually passes through (spans recorded + metric ops) by the
  microbenchmarked cost of one disabled guard, times a 4x safety
  factor, and requires the total to stay under 2% of the untraced
  workload's wall-clock.  Counting sites from the enabled run
  over-approximates the disabled run (the enabled run reaches every
  guard the disabled run does), so the bound is conservative twice
  over.

The report line ``obs-overhead-pct: <float>`` is parsed by
``run_all.py`` into the consolidated report's ``"obs"`` key
(schema ``repro-bench-report/3``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_obs.py --quick  # CI gate
"""

import argparse
import sys
import time

from repro import obs
from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import SearchLimitError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=31,
)
#: ``max_paths_per_pair=1`` makes two of the five queries trip
#: SearchLimitError — the identity gate must cover the error points,
#: not just answers.
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5, max_paths_per_pair=1)
QUERIES = [
    "kwalpha kwbeta",
    "kwalpha kwbeta kwgamma",
    "kwalpha",
    "zznothing",
    "kwbeta kwgamma",
]


def build_database():
    database = generate_tenants(CONFIG, tenants=3)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 3, seed=3)
    return database


def run_workload(engine, top_k=None):
    """Answer every query; outcomes carry answers *or* the limit error."""
    outcomes = []
    for query in QUERIES:
        try:
            results = engine.search(query, limits=LIMITS, top_k=top_k)
        except SearchLimitError as error:
            outcomes.append(("error", type(error).__name__, str(error)))
        else:
            outcomes.append(
                ("ok", [(r.render(), r.score, r.rank) for r in results])
            )
    return outcomes


def observed_sites(database) -> int:
    """Guarded instrumentation sites one workload pass runs through.

    Counted from a fully-enabled run: every span recorded and every
    metric op is one ``ENABLED`` check the disabled run would have
    taken instead.  The enabled run reaches at least every guard the
    disabled run does, so this over-counts, never under-counts.
    """
    engine = KeywordSearchEngine(database)
    obs.reset()
    obs.set_enabled(True)
    try:
        spans = 0
        for query in QUERIES:
            try:
                engine.search(query, limits=LIMITS)
            except SearchLimitError:
                pass
            if engine.last_trace is not None:
                spans += sum(1 for __ in engine.last_trace.root.walk())
        ops = obs_metrics.REGISTRY.ops
    finally:
        obs.set_enabled(False)
        obs.reset()
    return spans + ops


def disabled_guard_cost() -> float:
    """Seconds per single disabled instrumentation guard."""
    assert not obs_trace.ENABLED and not obs_metrics.ENABLED
    rounds = 200_000
    taken = 0
    start = time.perf_counter()
    for __ in range(rounds):
        if obs_trace.ENABLED:  # the exact shape of a disabled site
            taken += 1
        if obs_metrics.ENABLED:
            taken += 1
    elapsed = time.perf_counter() - start
    assert taken == 0
    return elapsed / (2 * rounds)


def time_workload(database, repeats: int) -> float:
    """Best-of-N seconds for one untraced workload pass, cold engine."""
    best = None
    for __ in range(repeats):
        engine = KeywordSearchEngine(database)
        start = time.perf_counter()
        run_workload(engine)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI gate: fewer timing repeats")
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else 7

    database = build_database()

    # -- bit-identity: plain, traced, metered, and both ----------------
    plain = run_workload(KeywordSearchEngine(database))
    errors = sum(1 for outcome in plain if outcome[0] == "error")
    modes = {"trace": (True, False), "metrics": (False, True),
             "both": (True, True)}
    for label, (tracing, metered) in sorted(modes.items()):
        obs_trace.set_enabled(tracing)
        obs_metrics.set_enabled(metered)
        try:
            observed = run_workload(KeywordSearchEngine(database))
        finally:
            obs.set_enabled(False)
            obs.reset()
        if observed != plain:
            print(f"FAIL: {label} run diverged from the plain run", file=out)
            return 1
    answers = sum(len(outcome[1]) for outcome in plain if outcome[0] == "ok")
    print(f"obs workload: {len(QUERIES)} queries, {answers} answers, "
          f"{errors} SearchLimitError points", file=out)
    print("bit-identity: trace/metrics/both == plain "
          "(answers, order, scores, error points)  OK", file=out)

    # -- disabled overhead ---------------------------------------------
    sites = observed_sites(database)
    per_guard = disabled_guard_cost()
    t_off = time_workload(database, repeats)
    safety = 4.0
    overhead = safety * sites * per_guard / t_off
    pct = overhead * 100.0
    print(f"disabled overhead: {sites} guarded sites x "
          f"{per_guard * 1e9:.1f} ns x {safety:g} safety = "
          f"{safety * sites * per_guard * 1e6:.1f} us "
          f"vs {t_off * 1e3:.2f} ms workload", file=out)
    print(f"obs-overhead-pct: {pct:.4f}", file=out)
    if overhead > 0.02:
        print(f"FAIL: disabled-mode overhead {pct:.3f}% exceeds the 2% gate",
              file=out)
        return 1
    print(f"OK: disabled-mode overhead {pct:.3f}% <= 2%", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
