"""Experiment P3 (extension): compiled CSR kernel vs the pruned fast core.

Measures the integer-interned CSR traversal kernels
(:mod:`repro.graph.csr`) against the TupleId-based pruned core
(:mod:`repro.graph.fast_traversal`) on a planted synthetic workload:

* **batch enumeration** — drain every simple path (to a depth bound)
  over a pair workload and every joining tree over a required-set
  workload; both cores answer from warm caches, so the comparison is
  pure kernel time (the differential tests prove the outputs
  bit-identical).  The combined wall-clock ratio is the gate (>= 3x).
* **top-k style enumeration** — consume only the first ``k`` items of
  each enumeration (the executor's pushdown consumption pattern), where
  per-call setup (distance rows, visited scratch) weighs more than
  steady-state throughput.
* **engine level** — ``search_batch`` and ``search(top_k=...)`` through
  engines differing only in ``core=``; reported for context (answer
  construction and ranking are shared overhead, so the ratio is
  naturally smaller than the kernel-level one).
* **memory footprint** — the compiled graph's flat arrays, reported in
  bytes and bytes/edge.
* **bounded rows** — counters only, no timing: for every distance
  source of the kernel workload, nodes settled and bytes held by the
  radius-bounded one-byte row the kernels request vs the unbounded
  oracle row, with the bounded row checked to be the oracle clipped at
  its radius.  Exact counts, no gate.
* **vector backend (P6)** — the *oracle* sweep: unbounded multi-source
  distance blocks (``radius=None``, the row no production query asks
  for any more) and component labelling on a large synthetic graph,
  vectorized numpy backend vs the scalar csr core (``vector=False``),
  bit-identity asserted first; the combined cold-sweep ratio is the
  gate (>= 10x).  Skipped (without failing) when numpy is unavailable
  so the no-numpy CI leg stays green.  Footprint deltas between the two
  backends are reported — ~zero is the point: the numpy views are
  zero-copy.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_csr_kernel.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_csr_kernel.py --quick  # CI gate

or through pytest-benchmark like the other benches
(``pytest benchmarks/ -o python_files='bench_*.py'``).
"""

import argparse
import sys
import time
from itertools import islice

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.graph.csr import (
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import (
    TraversalCache,
    fast_enumerate_joining_trees,
    fast_enumerate_simple_paths,
)

_PATH_KERNELS = {
    "fast": fast_enumerate_simple_paths,
    "csr": csr_enumerate_simple_paths,
}
_TREE_KERNELS = {
    "fast": fast_enumerate_joining_trees,
    "csr": csr_enumerate_joining_trees,
}


def _database(departments=12, employees=12, works_on=4):
    return generate_company_like(
        SyntheticConfig(
            departments=departments,
            projects_per_department=4,
            employees_per_department=employees,
            works_on_per_employee=works_on,
            seed=17,
        )
    )


def _workloads(graph, pairs=50, combos=8):
    """Deterministic pair / required-set workloads over one data graph."""
    nodes = sorted(graph.graph.nodes, key=str)
    employees = [n for n in nodes if n.relation == "EMPLOYEE"]
    projects = [n for n in nodes if n.relation == "PROJECT"]
    pair_workload = [
        (e, p) for e in employees[:12] for p in projects[:6]
    ][:pairs]
    combo_workload = [
        (employees[i % len(employees)],
         projects[i % len(projects)],
         employees[(i + 3) % len(employees)])
        for i in range(combos)
    ]
    return pair_workload, combo_workload


def _drain_paths(kernel, graph, pairs, depth, cache):
    produced = 0
    for source, target in pairs:
        for __ in kernel(graph, source, target, depth, cache=cache):
            produced += 1
    return produced


def _drain_trees(kernel, graph, combos, max_tuples, cache):
    produced = 0
    for combo in combos:
        for __ in kernel(graph, list(combo), max_tuples, cache=cache):
            produced += 1
    return produced


def _topk_paths(kernel, graph, pairs, depth, cache, k):
    produced = 0
    for source, target in pairs:
        for __ in islice(kernel(graph, source, target, depth, cache=cache), k):
            produced += 1
    return produced


def _topk_trees(kernel, graph, combos, max_tuples, cache, k):
    produced = 0
    for combo in combos:
        for __ in islice(
            kernel(graph, list(combo), max_tuples, cache=cache), k
        ):
            produced += 1
    return produced


def _best(callable_, rounds):
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_setup():
    graph = DataGraph(_database())
    pairs, combos = _workloads(graph)
    caches = {"fast": TraversalCache(graph), "csr": TraversalCache(graph)}
    caches["csr"].frozen()
    return graph, pairs, combos, caches


@pytest.mark.parametrize("core", ["csr", "fast"])
def test_path_enumeration(benchmark, kernel_setup, core):
    graph, pairs, __, caches = kernel_setup
    benchmark.group = "P3 path enumeration"
    benchmark.name = core
    kernel, cache = _PATH_KERNELS[core], caches[core]
    _drain_paths(kernel, graph, pairs, 6, cache)  # warm caches
    produced = benchmark(lambda: _drain_paths(kernel, graph, pairs, 6, cache))
    assert produced > 0


@pytest.mark.parametrize("core", ["csr", "fast"])
def test_tree_enumeration(benchmark, kernel_setup, core):
    graph, __, combos, caches = kernel_setup
    benchmark.group = "P3 tree enumeration"
    benchmark.name = core
    kernel, cache = _TREE_KERNELS[core], caches[core]
    _drain_trees(kernel, graph, combos, 6, cache)
    produced = benchmark(lambda: _drain_trees(kernel, graph, combos, 6, cache))
    assert produced > 0


# ----------------------------------------------------------------------
# standalone report (CI smoke runs this with --quick)
# ----------------------------------------------------------------------
def _kernel_section(graph, pairs, combos, depth, max_tuples, rounds, out):
    caches = {"fast": TraversalCache(graph), "csr": TraversalCache(graph)}
    caches["csr"].frozen()
    counts = {}
    batch = {}
    topk = {}
    for core in ("fast", "csr"):
        path_kernel, tree_kernel = _PATH_KERNELS[core], _TREE_KERNELS[core]
        cache = caches[core]
        counts[core] = (
            _drain_paths(path_kernel, graph, pairs, depth, cache),
            _drain_trees(tree_kernel, graph, combos, max_tuples, cache),
        )
        batch[core] = (
            _best(lambda: _drain_paths(path_kernel, graph, pairs, depth, cache),
                  rounds),
            _best(lambda: _drain_trees(tree_kernel, graph, combos, max_tuples,
                                       cache), rounds),
        )
        topk[core] = (
            _best(lambda: _topk_paths(path_kernel, graph, pairs, depth, cache,
                                      3), rounds),
            _best(lambda: _topk_trees(tree_kernel, graph, combos, max_tuples,
                                      cache, 3), rounds),
        )
    assert counts["fast"] == counts["csr"], "cores enumerated different answers"
    paths, trees = counts["csr"]

    def report(label, times):
        fast_s = sum(times["fast"])
        csr_s = sum(times["csr"])
        ratio = fast_s / max(csr_s, 1e-9)
        print(f"  {label:18} fast {fast_s * 1e3:8.2f} ms   "
              f"csr {csr_s * 1e3:8.2f} ms   speedup {ratio:.1f}x", file=out)
        for kind, index in (("paths", 0), ("trees", 1)):
            kind_ratio = times["fast"][index] / max(times["csr"][index], 1e-9)
            print(f"    {kind:8} fast {times['fast'][index] * 1e3:8.2f} ms   "
                  f"csr {times['csr'][index] * 1e3:8.2f} ms   "
                  f"speedup {kind_ratio:.1f}x", file=out)
        return ratio

    print(f"kernel workload: {graph.number_of_nodes()} tuples, "
          f"{graph.number_of_edges()} edges, {len(pairs)} pairs "
          f"(depth {depth}), {len(combos)} required sets "
          f"(max {max_tuples} tuples) -> {paths} paths, {trees} trees",
          file=out)
    batch_ratio = report("batch (drain)", batch)
    topk_ratio = report("top-k (islice 3)", topk)
    return batch_ratio, topk_ratio, caches["csr"].frozen()


def _bounded_section(graph, pairs, combos, depth, max_tuples, out):
    """Counter-only: what the radius-bounded rows the kernels request
    settle and hold, against the unbounded oracle row of the same
    source.  Returns ``(sources, bounded settled, oracle settled,
    bounded bytes, oracle bytes)`` — exact, repeatable counts."""
    frozen = FrozenGraph(graph)
    wanted: dict = {}  # node int -> radius, as the kernels would ask
    for __, target in pairs:
        node = frozen.node_of(target)
        wanted[node] = max(wanted.get(node, depth - 1), depth - 1)
    for combo in combos:
        for tid in combo:
            node = frozen.node_of(tid)
            wanted[node] = max(wanted.get(node, max_tuples - 1), max_tuples - 1)
    settled = {"bounded": 0, "oracle": 0}
    held = {"bounded": 0, "oracle": 0}
    for node, radius in wanted.items():
        oracle = frozen._bfs_row_scalar(node)
        bounded = frozen._bfs_row_scalar(node, radius)
        assert list(bounded) == [
            depth_ if depth_ <= radius else 0xFF for depth_ in oracle
        ], f"bounded row of source {node} is not the clipped oracle"
        settled["bounded"] += sum(1 for depth_ in bounded if depth_ != 0xFF)
        settled["oracle"] += sum(1 for depth_ in oracle if depth_ < (1 << 30))
        held["bounded"] += memoryview(bounded).nbytes
        held["oracle"] += memoryview(oracle).nbytes
    count = max(1, len(wanted))
    print(f"bounded rows: {len(wanted)} distance sources of the kernel "
          f"workload (pair radius {depth - 1}, tree radius {max_tuples - 1}), "
          f"counts only", file=out)
    for name in ("bounded", "oracle"):
        print(f"  {name:8} settled {settled[name]:8,} nodes "
              f"({settled[name] / count:8.1f}/row)   "
              f"{held[name]:10,} bytes ({held[name] // count:,}/row)",
              file=out)
    return (len(wanted), settled["bounded"], settled["oracle"],
            held["bounded"], held["oracle"])


def _direct_compile_section(database, out):
    """Counter-only: a first compile on an unmaterialised data graph
    reads ``Database.references`` and never calls ``build_tuple_graph``.
    Returns ``(edges read, rows built, CSR entries, graph builds)``."""
    graph = DataGraph(database)
    frozen = FrozenGraph(graph)
    builds = int(graph.materialized)  # set only by build_tuple_graph
    edges = sum(
        1
        for fk in database.schema.foreign_keys
        for __ in database.references(fk)
    )
    print(f"direct compile: {edges:,} edges read, {frozen.capacity:,} rows "
          f"built, {len(frozen._targets):,} CSR entries, "
          f"build_tuple_graph calls = {builds} (counts only)", file=out)
    return edges, frozen.capacity, len(frozen._targets), builds


def _vector_section(rounds, out, sources_wanted=128):
    """P6: the unbounded *oracle* sweep, vectorized frontier-at-a-time
    kernels vs the scalar csr core.  Production queries request
    radius-bounded rows, which always take the scalar sweep (see
    EXPERIMENTS.md "Vector vs scalar at a radius"); this section times
    the ``radius=None`` block tests and tools still use.

    Returns the combined cold-sweep speedup, or ``None`` when the
    vectorized backend is unavailable (stdlib fallback active) — the
    caller then skips the gate instead of failing, so the no-numpy CI
    leg can still run this benchmark.
    """
    graph = DataGraph(_database(departments=30, employees=30, works_on=5))
    scalar = FrozenGraph(graph, vector=False)
    vector = FrozenGraph(graph)
    capacity = scalar.capacity
    step = max(1, capacity // sources_wanted)
    sources = list(range(0, capacity, step))[:sources_wanted]
    print(f"vector workload (oracle sweep, radius=None): {capacity} tuples, "
          f"{len(scalar._targets)} CSR entries, "
          f"{len(sources)}-source unbounded distance block + component "
          f"labelling [backend: {vector.backend_name}]", file=out)
    if not vector._backend.vectorized:
        print("  numpy unavailable (or REPRO_NO_VECTOR set) — vectorized "
              "gate skipped, stdlib fallback is the only backend", file=out)
        return None

    block = vector.distances_block(sources)
    for node in sources:
        assert block[node] == scalar.distances(node), \
            f"vector BFS row diverged for source {node}"
    assert vector.components() == scalar.components(), \
        "vector component labels diverged"

    def cold_block(frozen):
        def run():
            frozen.drop_distance_rows()
            frozen.distances_block(sources)
        return run

    def cold_components(frozen):
        def run():
            frozen._components = None
            frozen.components()
        return run

    times = {
        name: (
            _best(cold_block(frozen), rounds),
            _best(cold_components(frozen), rounds),
        )
        for name, frozen in (("scalar", scalar), ("vector", vector))
    }
    for label, index in (("distance block", 0), ("components", 1)):
        ratio = times["scalar"][index] / max(times["vector"][index], 1e-9)
        print(f"  {label:18} scalar {times['scalar'][index] * 1e3:8.2f} ms   "
              f"vector {times['vector'][index] * 1e3:8.2f} ms   "
              f"speedup {ratio:.1f}x", file=out)
    combined = sum(times["scalar"]) / max(sum(times["vector"]), 1e-9)
    print(f"  {'combined':18} scalar {sum(times['scalar']) * 1e3:8.2f} ms   "
          f"vector {sum(times['vector']) * 1e3:8.2f} ms   "
          f"speedup {combined:.1f}x", file=out)

    scalar_footprint = scalar.memory_footprint()
    vector_footprint = vector.memory_footprint()
    deltas = ", ".join(
        f"{key} {vector_footprint[key] - scalar_footprint[key]:+,}"
        for key in ("arrays", "distances", "payload", "total")
    )
    print(f"  footprint delta (vector - scalar, bytes): {deltas} "
          f"— numpy views are zero-copy over the same buffers", file=out)
    return combined


def _engine_section(database, rounds, out):
    texts = [
        query.text
        for query in generate_workload(
            database,
            WorkloadConfig(queries=6, keywords_per_query=2,
                           matches_per_keyword=3, seed=13),
        )
    ]
    limits = SearchLimits(max_rdb_length=5)
    engines = {
        core: KeywordSearchEngine(database, core=core, result_cache_entries=0)
        for core in ("fast", "csr")
    }
    rendered = {
        core: [
            [(r.render(), r.score) for r in results]
            for results in engine.search_batch(texts, limits=limits)
        ]
        for core, engine in engines.items()
    }
    identical = rendered["fast"] == rendered["csr"]
    batch = {
        core: _best(lambda e=engine: e.search_batch(texts, limits=limits),
                    rounds)
        for core, engine in engines.items()
    }
    topk = {
        core: _best(
            lambda e=engine: [
                e.search(text, limits=limits, top_k=3) for text in texts
            ],
            rounds,
        )
        for core, engine in engines.items()
    }
    print(f"engine level ({database.count()} tuples, {len(texts)} queries):",
          file=out)
    print(f"  search_batch       fast {batch['fast'] * 1e3:8.2f} ms   "
          f"csr {batch['csr'] * 1e3:8.2f} ms   "
          f"speedup {batch['fast'] / max(batch['csr'], 1e-9):.1f}x", file=out)
    print(f"  search top-3       fast {topk['fast'] * 1e3:8.2f} ms   "
          f"csr {topk['csr'] * 1e3:8.2f} ms   "
          f"speedup {topk['fast'] / max(topk['csr'], 1e-9):.1f}x", file=out)
    print(f"  identical results: {identical}", file=out)
    return identical


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    args = parser.parse_args(argv)

    rounds = 3 if args.quick else 5
    depth = 6 if args.quick else 7
    database = _database()
    graph = DataGraph(database)
    pairs, combos = _workloads(graph, pairs=40 if args.quick else 60,
                               combos=6 if args.quick else 10)

    failures = []
    batch_ratio, topk_ratio, frozen = _kernel_section(
        graph, pairs, combos, depth, 6, rounds, out
    )
    if batch_ratio < 3.0:
        failures.append(
            f"kernel: batch speedup {batch_ratio:.1f}x < 3x over the fast core"
        )
    if topk_ratio < 1.0:
        failures.append(
            f"kernel: top-k speedup {topk_ratio:.1f}x regressed below 1x"
        )

    footprint = frozen.memory_footprint()
    per_edge = footprint["total"] / max(1, len(frozen._targets))
    print(f"memory: compiled graph {footprint['total']:,} bytes for "
          f"{frozen.capacity} nodes / {len(frozen._targets)} CSR entries "
          f"({per_edge:.1f} bytes/entry) — arrays {footprint['arrays']:,}, "
          f"distance rows {footprint['distances']:,}, "
          f"edge payload {footprint['payload']:,}", file=out)

    _bounded_section(graph, pairs, combos, depth, 6, out)
    _direct_compile_section(database, out)

    vector_ratio = _vector_section(rounds, out)
    if vector_ratio is not None and vector_ratio < 10.0:
        failures.append(
            f"vector: combined speedup {vector_ratio:.1f}x < 10x over the "
            f"scalar csr core"
        )

    identical = _engine_section(database, rounds, out)
    if not identical:
        failures.append("engine: csr answers diverged from the fast core")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        return 1
    vector_note = (
        f"vector {vector_ratio:.1f}x >= 10x"
        if vector_ratio is not None
        else "vector gate skipped (stdlib backend)"
    )
    print(f"OK: kernel batch speedup {batch_ratio:.1f}x >= 3x, "
          f"top-k {topk_ratio:.1f}x, {vector_note}, "
          f"answers bit-identical", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
