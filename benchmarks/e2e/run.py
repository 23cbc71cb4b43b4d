#!/usr/bin/env python3
"""End-to-end benchmark of the keyword-search engine on the ``bib`` corpus.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the corpus from the seed, drives one workload through the
public ``KeywordSearchEngine`` API as a closed loop with one client,
checks answers against an oracle engine, prints every metric by name and
unit and ends with one JSON result line.  README.md in this directory
explains every decision; ``--selfcheck`` re-measures the A/A table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import corpus as corpus_module  # noqa: E402
import workloads as workloads_module  # noqa: E402
from workloads import BATCH, JOBS, PROBE_BATCHES, ROUNDS, TOP_K, WORKLOADS  # noqa: E402

#: Seconds one ``spin()`` takes on this box when it is quiet (README,
#: "Calibration").  Every timing is multiplied by
#: ``SPIN_NOMINAL_S / median(spins around it)``.
SPIN_NOMINAL_S = 0.0033
SPINS_PER_ROUND = 40
SPINS_PER_SETUP_SIDE = 3
TRACED_ROUNDS = (1, 3)
VERIFY_TEXTS = 64

#: span name -> per-layer metric: mean self time per client call that
#: entered the layer, over the traced rounds.
CALL_SPANS = (
    ("core.facade", "core.facade_ms", 1e3),
    ("relational.match", "relational.match_ms", 1e3),
    ("core.plan", "core.plan_ms", 1e3),
    ("planner.annotate", "planner.annotate_ms", 1e3),
    ("core.execute", "core.execute_ms", 1e3),
    ("graph.prefetch", "graph.prefetch_ms", 1e3),
    ("live.cache_lookup", "live.cache_lookup_us", 1e6),
    ("live.cache_store", "live.cache_store_ms", 1e3),
    ("live.apply_db", "live.apply_db_ms", 1e3),
    ("live.maintain", "live.maintain_ms", 1e3),
    ("live.invalidate", "live.invalidate_ms", 1e3),
    ("durable.wal_append", "durable.wal_append_ms", 1e3),
    ("planner.cost", "planner.cost_ms", 1e3),
    ("scale.pool_run", "scale.pool_run_ms", 1e3),
)
#: span name -> per-layer metric: mean self time per set-up.
SETUP_SPANS = (
    ("durable.replay", "durable.replay_s", 1.0),
    ("scale.open", "scale.open_ms", 1e3),
    ("relational.index_build", "relational.index_build_s", 1.0),
    ("graph.compile", "graph.compile_s", 1.0),
)


class Spinner:
    """The reference kernel: ~3.3 ms of allocation-free interpreter work
    (dict probes with tuple keys, then a branchy pass over an int
    array).  Nothing from ``src/``.  It slows down and speeds up with
    the box exactly as the engine's search work does (README)."""

    def __init__(self) -> None:
        self.table = {(n % 251, n // 251): n & 7 for n in range(16_000)}
        self.keys = list(self.table)
        self.cells = array("i", ((n * 7919) % 1013 for n in range(56_000)))

    def __call__(self) -> float:
        start = perf_counter()
        table = self.table
        total = 0
        for key in self.keys:
            total += table[key]
        for value in self.cells:
            if value & 1:
                total += 1
            elif value > 500:
                total -= 1
        return perf_counter() - start


def speed_factor(spins) -> float:
    return SPIN_NOMINAL_S / statistics.median(spins)


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus every live child, MiB."""
    import multiprocessing

    total_kb = 0
    for pid in [os.getpid()] + [
        child.pid for child in multiprocessing.active_children()
    ]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def signature(results) -> tuple:
    return tuple(
        (result.answer.render(), repr(result.score)) for result in results
    )


# ----------------------------------------------------------------------
# process and file hygiene
# ----------------------------------------------------------------------
def reap_children() -> None:
    """Terminate and join every child, then stop the resource tracker
    (``multiprocessing`` starts it with the pool's shared-memory arena
    and would leave it running after this process is gone)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    tracker = resource_tracker._resource_tracker
    descriptor, pid = tracker._fd, tracker._pid
    if descriptor is not None:
        # Closing the write end is the tracker's exit signal.
        os.close(descriptor)
        tracker._fd = None
        if pid is not None:
            os.waitpid(pid, 0)
            tracker._pid = None


class Context:
    """Inputs of one run and everything that must be released after it."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.engines: list = []
        self.recorder = None
        self.database = None
        self.snapshot_path = None
        self.facts = {"save_s": 0.0, "snapshot_bytes": 0, "tuples": 0}
        self._copies = 0

    def copy_snapshot(self, source=None) -> str:
        self._copies += 1
        return workloads_module.copy_pair(
            source or self.snapshot_path,
            os.path.join(self.workdir, f"copy{self._copies}"),
        )

    def release(self) -> None:
        if self.recorder is not None:
            self.recorder.remove()
        for engine in self.engines:
            try:
                engine.close()
            except Exception:  # keep releasing; the run already has its verdict
                traceback.print_exc()
        reap_children()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "full",
    spin=None,
    isolate_prepare: bool = True,
    spans_out=None,
) -> dict:
    """Measure one workload; returns ``{"result", "metrics", "digests",
    "info", "rounds"}``.  Releases every engine, child process and file it made on
    every way out."""
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = workdir  # engine autosaves stay in the checkout
    context = Context(workdir)
    try:
        return _measure(
            WORKLOADS[name], seed, seconds, trace, scale,
            spin or Spinner(), isolate_prepare, spans_out, context,
        )
    finally:
        try:
            context.release()
        finally:
            gc.unfreeze()
            tempfile.tempdir = previous_tempdir
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(scratch)
            except OSError:
                pass  # another run is using it


class Tally:
    """Counters read at the client boundary, outside every timer."""

    def __init__(self, sample) -> None:
        self.sample = sample
        self.captured: dict = {}
        self.queries = self.candidates = self.emitted = self.pruned = 0
        self.appends = self.mutations = self.wal_bytes = self.folded = 0
        self.wal_size = 0
        self.assignments: list = []

    def note(self, engine, op, result) -> None:
        kind, payload = op
        if kind in ("search", "batch"):
            stats = engine.last_stats
            self.candidates += stats.candidates
            self.emitted += stats.emitted
            self.pruned += stats.pruned
            self.queries += workloads_module.units(op)
            texts, answers = (
                ([payload], [result]) if kind == "search" else (payload, result)
            )
            for text, results in zip(texts, answers):
                if text in self.sample:
                    self.captured[text] = signature(results)
            if kind == "batch":
                searcher = engine._searcher  # no public accessor exists
                self.assignments.append(
                    (payload, [list(chunk) for chunk in searcher.last_assignment])
                )
        elif kind == "apply":
            size = os.path.getsize(engine.wal.path)
            self.wal_bytes += size - self.wal_size
            self.wal_size = size
            self.appends += 1 if engine.wal.sync else 0
            self.mutations += len(payload)
        else:
            self.folded += result.records_folded
            self.wal_size = os.path.getsize(engine.wal.path)


def run_round(engine, ops, spin, tally) -> dict:
    """One round of the fixed population: no deadline, every op runs."""
    every = max(1, len(ops) // SPINS_PER_ROUND)
    spins, latencies, walls, compactions = [], [], [], []
    failed = 0
    for index, op in enumerate(ops):
        if index % every == 0:
            spins.append(spin())
        start = perf_counter()
        try:
            result = workloads_module.call(engine, op)
        except Exception:  # a failed call is counted, the run goes on
            walls.append(perf_counter() - start)
            failed += 1
            traceback.print_exc()
            continue
        wall = perf_counter() - start
        walls.append(wall)
        (compactions if op[0] == "compact" else latencies).append(wall)
        tally.note(engine, op, result)
    factor = speed_factor(spins)
    return {
        "factor": factor,
        "latencies": [wall * factor for wall in latencies],
        "raw_latencies": latencies,
        "compactions": [wall * factor for wall in compactions],
        "walls": walls,
        "busy": sum(walls) * factor,
        "raw_busy": sum(walls),
        "units": sum(workloads_module.units(op) for op in ops),
        "failed": failed,
    }


def _prepare(workload, seed, scale, context, isolate: bool) -> None:
    directory = os.path.join(context.workdir, "prepared")
    os.makedirs(directory)
    if isolate:
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--prepare", directory, "--workload", workload.name,
                "--seed", str(seed), "--scale", scale,
            ],
            check=True,
        )
    else:
        prepare_main(workload.name, seed, scale, directory)
    with open(os.path.join(directory, "facts.json"), encoding="utf-8") as handle:
        context.facts = json.load(handle)
    context.snapshot_path = os.path.join(directory, workloads_module.SNAPSHOT)


def prepare_main(name: str, seed: int, scale: str, directory: str) -> None:
    facts = workloads_module.prepare(
        WORKLOADS[name], corpus_module.generate(scale, seed), directory
    )
    with open(os.path.join(directory, "facts.json"), "w", encoding="utf-8") as handle:
        json.dump(facts, handle)


def _engine_counters(engine) -> dict:
    cache = engine.result_cache.stats
    traversal = engine.traversal_cache
    searcher = engine._searcher  # no public accessor exists
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evicted": cache.evicted,
        "invalidated": cache.invalidated,
        "distance_hits": traversal.hits,
        "distance_misses": traversal.misses,
        "enumerated": traversal.paths_enumerated + traversal.trees_enumerated,
        "shm": searcher.shm_batches if searcher else 0,
        "pipe": searcher.pipe_batches if searcher else 0,
        "respawns": searcher.respawns if searcher else 0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _measure(
    workload, seed, seconds, trace, scale, spin, isolate, spans_out, context
) -> dict:
    from repro import obs

    corpus = corpus_module.generate(scale, seed)
    warm, rounds, probes = workload.population(corpus, seconds)
    timed, extra = rounds[:ROUNDS], rounds[ROUNDS]
    ops_digest = corpus_module.digest(op for ops in timed for op in ops)
    timed_texts = list(
        dict.fromkeys(
            text
            for ops in timed
            for kind, payload in ops
            if kind in ("search", "batch")
            for text in ([payload] if kind == "search" else payload)
        )
    )
    stride = max(1, len(timed_texts) // VERIFY_TEXTS)
    sample = timed_texts[::stride][:VERIFY_TEXTS]

    if workload.snapshot:
        _prepare(workload, seed, scale, context, isolate)
    else:
        context.database = corpus.database()
    if trace:
        import spans

        context.recorder = recorder = spans.engine_recorder()
        recorder.install()

    # -- set-up, several times; the last engine serves the timed phase --
    setups = []
    engine = None
    for number in range(workload.setups):
        if engine is not None:
            engine.close()
        inputs = workload.stage(context)
        gc.collect()
        before = [spin() for __ in range(SPINS_PER_SETUP_SIDE)]
        mark = recorder.mark() if trace else 0
        engine, stages = workload.serve(inputs, warm)
        context.engines.append(engine)
        after = [spin() for __ in range(SPINS_PER_SETUP_SIDE)]
        setups.append(
            {
                "stages": stages,
                "factor": speed_factor(before + after),
                "calls": recorder.since(mark) if trace else [],
            }
        )

    # -- the timed population ------------------------------------------
    tally = Tally(frozenset(sample))
    if engine.wal is not None:
        tally.wal_size = os.path.getsize(engine.wal.path)
    counters_before = _engine_counters(engine)
    measured = []
    for number, ops in enumerate(timed):
        gc.collect()
        gc.freeze()
        traced = trace and number in TRACED_ROUNDS
        if trace:
            recorder.install() if traced else recorder.remove()
        mark = recorder.mark() if traced else 0
        outcome = run_round(engine, ops, spin, tally)
        outcome["traced"] = traced
        outcome["calls"] = recorder.since(mark) if traced else []
        measured.append(outcome)
    if trace:
        recorder.remove()
    rss = peak_rss_mb()
    counters = {
        key: value - counters_before[key]
        for key, value in _engine_counters(engine).items()
    }
    repeat_free = not workload.distinct_texts or counters["hits"] == 0

    # -- extra probes of a traced run (after the RSS reading) -----------
    obs_overhead = pool_efficiency = 0.0
    plain = [o for o in measured if not o["traced"]]
    plain_cost = statistics.median(o["busy"] / o["units"] for o in plain)
    if trace:
        gc.collect()
        gc.freeze()
        obs.set_enabled(True)
        try:
            probe = run_round(engine, extra, spin, Tally(frozenset()))
        finally:
            obs.set_enabled(False)
        obs_overhead = 100.0 * (probe["busy"] / probe["units"] / plain_cost - 1.0)
        if workload.pooled:
            pool_efficiency = _pool_efficiency(engine, probes)

    # -- verification, outside every timer --------------------------------
    failed = sum(o["failed"] for o in measured)
    attempted = sum(len(ops) for ops in timed)
    correct, answers_digest = _verify(
        workload, engine, sample, tally.captured, context
    )
    correct = correct and repeat_free

    # -- metrics ----------------------------------------------------------
    latencies = [wall for o in measured for wall in o["latencies"]]
    raw_latencies = [wall for o in measured for wall in o["raw_latencies"]]
    setup_values = [s["stages"]["total"] * s["factor"] for s in setups]
    factors = [o["factor"] for o in measured]
    metrics = {
        "setup_s": (statistics.median(setup_values), "s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p95_ms": (1e3 * percentile(latencies, 0.95), "ms"),
        "throughput_qps": (
            statistics.median(o["units"] / o["busy"] for o in measured), "1/s"
        ),
        "peak_rss_mb": (rss, "MiB"),
    }
    layer = {
        "bench.speed_factor": (statistics.median(factors), "ratio"),
        "bench.speed_spread": (
            (max(factors) - min(factors)) / statistics.median(factors), "ratio"
        ),
        "raw.setup_s": (
            statistics.median(s["stages"]["total"] for s in setups), "s"
        ),
        "raw.latency_p50_ms": (1e3 * statistics.median(raw_latencies), "ms"),
        "raw.throughput_qps": (
            statistics.median(o["units"] / o["raw_busy"] for o in measured), "1/s"
        ),
    }
    layer.update(
        _counter_metrics(engine, tally, counters, context.facts, timed_texts)
    )
    layer.update(_span_metrics(workload, setups, measured, plain_cost))
    layer["obs.enabled_overhead_pct"] = (obs_overhead, "%")
    layer["scale.pool_efficiency"] = (pool_efficiency, "ratio")
    if trace and spans_out:
        recorder.write_jsonl(spans_out)

    chosen = metrics if not trace else layer
    return {
        "result": {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in chosen.items()
            },
        },
        "metrics": {**metrics, **layer},
        "digests": {"ops_digest": ops_digest, "answers_digest": answers_digest},
        "info": {
            "workload": workload.name,
            "seed": seed,
            "scale": scale,
            "trace": int(trace),
            "tuples": corpus.tuple_count(),
            "calls": attempted,
            "latency_samples": len(latencies),
            "verified": len(sample),
        },
        "rounds": [
            {
                "traced": o["traced"],
                "speed_factor": o["factor"],
                "ms_per_unit": 1e3 * o["busy"] / o["units"],
            }
            for o in measured
        ],
    }


def _pool_efficiency(engine, texts) -> float:
    """Serial time of the probe batches / (JOBS * pooled wall)."""
    batches = [texts[n : n + BATCH] for n in range(0, len(texts), BATCH)]
    engine.search_batch(batches[0], top_k=TOP_K)  # coordinator's lazy parts
    start = perf_counter()
    for batch in batches[1 : 1 + PROBE_BATCHES]:
        engine.search_batch(batch, top_k=TOP_K, jobs=JOBS)
    pooled = perf_counter() - start
    start = perf_counter()
    for batch in batches[1 + PROBE_BATCHES :]:
        engine.search_batch(batch, top_k=TOP_K)
    serial = perf_counter() - start
    return serial / (JOBS * pooled)


def _verify(workload, engine, sample, captured, context):
    """Live == oracle (== reopened, == the timed answers where the data
    never changed), bit for bit on renders and scores."""
    from repro.core.engine import KeywordSearchEngine

    oracle = KeywordSearchEngine(
        engine.database, adaptive=False, result_cache_entries=0
    )
    context.engines.append(oracle)
    reopened = None
    correct = True
    if workload.wal_tail:
        reopened = KeywordSearchEngine.open(
            context.copy_snapshot(engine.snapshot_path), wal=True
        )
        context.engines.append(reopened)
        correct = reopened.version == engine.version
    expected = [
        signature(oracle.search(text, top_k=TOP_K, pushdown=False))
        for text in sample
    ]
    if workload.pooled:
        live = [
            signature(results)
            for start in range(0, len(sample), BATCH)
            for results in engine.search_batch(
                sample[start : start + BATCH], top_k=TOP_K, jobs=JOBS
            )
        ]
    else:
        live = [signature(engine.search(text, top_k=TOP_K)) for text in sample]
    correct = correct and live == expected
    if reopened is not None:
        correct = correct and expected == [
            signature(reopened.search(text, top_k=TOP_K)) for text in sample
        ]
    else:
        correct = correct and expected == [captured.get(text) for text in sample]
    return correct, corpus_module.digest(zip(sample, expected))


def _counter_metrics(engine, tally, counters, facts, texts):
    postings = sum(
        engine.index.posting_length(keyword)
        for text in texts
        for keyword in text.split()
    )
    imbalance = []
    for batch, chunks in tally.assignments:
        costs = [engine.query_cost(text) for text in batch]
        loads = [sum(costs[position] for position in chunk) for chunk in chunks]
        imbalance.append(_ratio(max(loads), statistics.mean(loads)))
    frozen = engine.traversal_cache.frozen().memory_footprint()
    return {
        "relational.postings_per_query": (_ratio(postings, len(texts)), "count"),
        "core.candidates_per_answer": (
            _ratio(tally.candidates, tally.emitted), "ratio"
        ),
        "planner.pruned_units_per_query": (
            _ratio(tally.pruned, tally.queries), "count"
        ),
        "planner.dispatch_imbalance": (
            statistics.mean(imbalance) if imbalance else 0.0, "ratio"
        ),
        "graph.enum_units_per_query": (
            _ratio(counters["enumerated"], tally.queries), "count"
        ),
        "graph.distance_hit_rate": (
            _ratio(
                counters["distance_hits"],
                counters["distance_hits"] + counters["distance_misses"],
            ),
            "ratio",
        ),
        "graph.csr_bytes_per_tuple": (
            _ratio(frozen["arrays"] + frozen["payload"], engine.database.count()),
            "B",
        ),
        "live.cache_hit_rate": (
            _ratio(counters["hits"], counters["hits"] + counters["misses"]), "ratio"
        ),
        "live.cache_evictions": (counters["evicted"], "count"),
        "live.invalidated_per_apply": (
            _ratio(counters["invalidated"], tally.appends), "count"
        ),
        "durable.wal_fsyncs": (tally.appends, "count"),
        "durable.wal_bytes_per_mutation": (
            _ratio(tally.wal_bytes, tally.mutations), "B"
        ),
        "durable.records_folded": (tally.folded, "count"),
        "scale.snapshot_bytes_per_tuple": (
            _ratio(facts["snapshot_bytes"], facts["tuples"]), "B"
        ),
        "scale.save_s": (facts["save_s"], "s"),
        "scale.shm_batches": (counters["shm"], "count"),
        "scale.pipe_batches": (counters["pipe"], "count"),
        "scale.respawns": (counters["respawns"], "count"),
    }


def _span_metrics(workload, setups, measured, plain_cost):
    layer = {}
    traced = [o for o in measured if o["traced"]]
    calls = [
        (call, o["factor"]) for o in traced for call in o["calls"]
    ]
    for span, metric, scale in CALL_SPANS:
        values = [
            call["self"][span] * factor
            for call, factor in calls
            if span in call["self"]
        ]
        unit = metric.rsplit("_", 1)[1]
        layer[metric] = (scale * statistics.mean(values) if values else 0.0, unit)
    for span, metric, scale in SETUP_SPANS:
        values = [
            sum(call["self"].get(span, 0.0) for call in s["calls"]) * s["factor"]
            for s in setups
        ]
        unit = metric.rsplit("_", 1)[1]
        layer[metric] = (scale * statistics.mean(values), unit)
    compactions = [wall for o in measured for wall in o["compactions"]]
    layer["durable.compact_s"] = (
        statistics.mean(compactions) if compactions else 0.0, "s"
    )
    first = statistics.mean(
        s["stages"]["first_answer"] * s["factor"] for s in setups
    )
    layer["scale.first_answer_ms"] = (
        1e3 * first if workload.snapshot else 0.0, "ms"
    )
    # The first pooled batch is pool start plus one batch; the second
    # batch of the same set-up is one batch.
    layer["scale.pool_start_s"] = (
        statistics.mean(
            (s["stages"]["first_answer"] - s["stages"]["warm"]) * s["factor"]
            for s in setups
        )
        if workload.pooled
        else 0.0,
        "s",
    )
    wall = sum(call["wall"] for call, __ in calls)
    facade = sum(call["self"].get("core.facade", 0.0) for call, __ in calls)
    client = sum(wall for o in traced for wall in o["walls"])
    layer["trace.attributed_share"] = (_ratio(wall - facade, wall), "ratio")
    layer["trace.self_sum_ratio"] = (_ratio(wall, client), "ratio")
    layer["trace.overhead_pct"] = (
        100.0
        * (
            statistics.median(o["busy"] / o["units"] for o in traced) / plain_cost
            - 1.0
        )
        if traced
        else 0.0,
        "%",
    )
    return layer


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def print_report(report: dict) -> None:
    info = report["info"]
    print(" ".join(f"{key}={value}" for key, value in info.items()))
    for key, value in report["digests"].items():
        print(f"digest {key} {value}")
    for number, entry in enumerate(report["rounds"]):
        print(f"round {number} " + " ".join(f"{k}={v!r}" for k, v in entry.items()))
    reported = report["result"]["metrics"]
    for name, entry in reported.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in sorted(report["metrics"].items()):
        # An untraced run has no spans, but its counters and raw values
        # are real: print them so two runs of a seed can be compared.
        if name not in reported and (
            unit in ("count", "B") or name.startswith(("bench.", "raw."))
        ):
            print(f"layer {name} {value!r} {unit}")
    print(json.dumps(report["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(corpus_module.SCALES), default="full")
    parser.add_argument("--spans-out", help="write the traced run's spans as JSONL")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro beside benchmarks/: nothing to measure", file=sys.stderr)
        return 2
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(args.repeat, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.prepare:
        prepare_main(args.workload, args.seed, args.scale, args.prepare)
        return 0
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, spans_out=args.spans_out,
    )
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
