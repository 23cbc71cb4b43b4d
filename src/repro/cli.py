"""Command-line interface: search, reproduce, analyze, generate.

Usage (after ``pip install -e .``)::

    python -m repro search "Smith XML" --explain
    python -m repro search "Smith XML" --ranker rdb
    python -m repro search "Smith XML" --top 3 --stream
    python -m repro search "Smith XML; Brown CS; Smith Brown" --batch
    python -m repro search "Smith XML" --mutations updates.json
    python -m repro search "Smith XML" --analyze    # EXPLAIN ANALYZE table
    python -m repro search "Smith XML" --json --trace trace.jsonl
    python -m repro stats                           # metrics-registry report
    python -m repro plan "Smith XML"                # costed plan, no execution
    python -m repro search "Smith XML" --snapshot db.snap --wal \\
        --mutations updates.json                    # durable live updates
    python -m repro wal info db.snap                # WAL header + records
    python -m repro wal compact db.snap             # fold WAL into snapshot
    python -m repro reproduce                       # all tables/figures/claims
    python -m repro analyze                         # schema closeness report
    python -m repro lint --strict                   # invariant linter
    python -m repro mtjnt "Smith XML"
    python -m repro generate --departments 10 --out /tmp/db.json
    python -m repro search "kwalpha kwbeta" --db /tmp/db.json

Every command accepts ``--db FILE.json`` (a database written by
``repro.relational.io.dump_json``); without it the paper's running example
is used.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines.discover import find_mtjnts
from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)
from repro.core.schema_analysis import analyze_relational_schema
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.graph.csr import CORES
from repro.relational.database import Database
from repro.relational.io import dump_json, load_json

__all__ = ["main", "build_parser"]

_RANKERS = {
    "closeness": ClosenessRanker,
    "rdb": RdbLengthRanker,
    "er": ErLengthRanker,
    "ambiguity": InstanceAmbiguityRanker,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Close/loose-association keyword search (EDBT 2017 repro)",
    )
    parser.add_argument(
        "--db",
        metavar="FILE",
        help="database JSON (default: the paper's company example)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="run a keyword query")
    search.add_argument("query", help="whitespace-separated keywords")
    search.add_argument(
        "--ranker", choices=sorted(_RANKERS), default="closeness"
    )
    search.add_argument("--max-rdb", type=int, default=3,
                        help="max FK edges per connection (default 3)")
    search.add_argument("--top", type=int, default=None, help="top-k cut")
    search.add_argument("--explain", action="store_true",
                        help="print full per-answer explanations")
    search.add_argument("--semantics", choices=("and", "or"), default="and",
                        help="AND (cover every keyword) or OR semantics")
    search.add_argument("--group", action="store_true",
                        help="group results: close / larger context / loose")
    search.add_argument("--mutations", metavar="FILE",
                        help="JSON mutation batches replayed through "
                             "engine.apply between two runs of QUERY; prints "
                             "a live-update and answer-cache report "
                             "(incompatible with --batch/--stream)")
    execution = search.add_argument_group(
        "execution",
        "how the query runs: traversal kernel, batching/streaming, "
        "sharded and parallel serving (answers are identical across "
        "every combination — only speed differs)",
    )
    execution.add_argument("--batch", action="store_true",
                           help="treat QUERY as ';'-separated queries "
                                "answered as one batch (shared traversal "
                                "cache and enumeration sub-plans)")
    execution.add_argument("--stream", action="store_true",
                           help="print each answer as the executor yields it "
                                "(incompatible with --batch/--group)")
    execution.add_argument("--core", choices=CORES, default=None,
                           help="traversal kernel: csr (compiled integer "
                                "kernels, default) or reference (brute-force "
                                "networkx oracle)")
    execution.add_argument("--shards", type=int, default=None, metavar="K",
                           help="partition the compiled graph into K "
                                "component-aligned shards and route "
                                "enumeration through them")
    execution.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="answer a --batch over N snapshot worker "
                                "processes (requires --batch)")
    execution.add_argument("--snapshot", metavar="FILE",
                           help="open the engine from a snapshot written by "
                                "'repro snapshot save' instead of building "
                                "it from --db")
    execution.add_argument("--wal", metavar="FILE", nargs="?", const=True,
                           default=None,
                           help="attach a write-ahead log to the snapshot "
                                "engine: replay it on open and record every "
                                "--mutations batch durably (default FILE: "
                                "<snapshot>.wal; requires --snapshot)")
    execution.add_argument("--no-vector", action="store_true",
                           help="force the pure-stdlib CSR kernels even "
                                "when numpy is available (answers are "
                                "bit-identical, only slower)")
    execution.add_argument("--static-plan", action="store_true",
                           help="disable the adaptive cost-based planner: "
                                "enumeration units drain in plan order and "
                                "batches chunk round-robin (answers are "
                                "bit-identical either way; env "
                                "REPRO_STATIC_PLAN=1 does the same globally)")
    observability = search.add_argument_group(
        "observability",
        "query spans, metrics and EXPLAIN ANALYZE (see also 'repro stats'); "
        "instrumentation is off unless one of these flags turns it on, and "
        "never changes answers or their order",
    )
    observability.add_argument("--analyze", action="store_true",
                               help="EXPLAIN ANALYZE: answer QUERY with "
                                    "tracing forced on and print a per-plan-"
                                    "node table of timings and counters "
                                    "(with --jobs N, also reports the pool "
                                    "pass)")
    observability.add_argument("--json", action="store_true",
                               help="emit results plus execution stats (and "
                                    "a trace summary when tracing is on) as "
                                    "JSON instead of text")
    observability.add_argument("--trace", metavar="FILE",
                               help="enable span tracing for this run and "
                                    "write the query trace to FILE as JSON "
                                    "lines")

    snapshot = commands.add_parser(
        "snapshot", help="save / load mmap-able engine snapshots"
    )
    actions = snapshot.add_subparsers(dest="action", required=True)
    snap_save = actions.add_parser(
        "save", help="build an engine and write its snapshot"
    )
    snap_save.add_argument("out", metavar="FILE", help="snapshot file to write")
    snap_save.add_argument("--shards", type=int, default=None, metavar="K",
                           help="partition into K shards before saving")
    snap_save.add_argument("--core", choices=CORES,
                           default=None, help="traversal kernel to record")
    snap_load = actions.add_parser(
        "load", help="open and verify a snapshot; optionally run a query"
    )
    snap_load.add_argument("file", metavar="FILE", help="snapshot to open")
    snap_load.add_argument("--query", default=None,
                           help="keyword query to answer from the snapshot")
    snap_load.add_argument("--top", type=int, default=None, help="top-k cut")

    wal = commands.add_parser(
        "wal",
        help="inspect / compact a snapshot's write-ahead log",
        description="The WAL records every applied mutation batch beside "
        "its snapshot so a crash loses nothing: 'repro wal info' shows the "
        "log header and records, 'repro wal compact' folds the log into a "
        "fresh snapshot (crash-atomically) and resets it.",
    )
    wal_actions = wal.add_subparsers(dest="action", required=True)
    wal_info = wal_actions.add_parser(
        "info", help="print a WAL's header, records and tail state"
    )
    wal_info.add_argument("snapshot", metavar="SNAPSHOT",
                          help="snapshot the log is paired with")
    wal_info.add_argument("--wal", metavar="FILE", default=None,
                          help="log file (default: SNAPSHOT.wal)")
    wal_compact = wal_actions.add_parser(
        "compact",
        help="fold the WAL into a fresh snapshot and reset the log",
    )
    wal_compact.add_argument("snapshot", metavar="SNAPSHOT",
                             help="snapshot the log is paired with")
    wal_compact.add_argument("--wal", metavar="FILE", default=None,
                             help="log file (default: SNAPSHOT.wal)")
    wal_compact.add_argument("--out", metavar="FILE", default=None,
                             help="write the folded snapshot (and a fresh "
                                  "empty WAL) here instead of replacing "
                                  "SNAPSHOT in place")

    lint = commands.add_parser(
        "lint",
        help="run the AST-based invariant linter over the library source",
        description="Static-analysis pass enforcing the codebase's "
        "determinism, pickle-safety, freeze, resource and durability "
        "contracts (rules DET01/DET02/PKL01/FRZ01/RES01/API01/SLOT01/"
        "DUR01).",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--strict", action="store_true",
                      help="also fail when the baseline holds stale entries")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable report")
    lint.add_argument("--verbose", action="store_true",
                      help="also list baselined and suppressed findings")
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="baseline file "
                           "(default: src/repro/analysis/baseline.json)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to the current findings")

    stats = commands.add_parser(
        "stats",
        help="run queries with the metrics registry on and print the report",
        description="Runs the given ';'-separated queries with the repro.obs "
        "metrics registry enabled and prints the counters, gauges and "
        "histograms the workload produced.  Without QUERY the paper's "
        "running-example workload is used (requires the default --db).",
    )
    stats.add_argument("query", nargs="?", default=None,
                       help="';'-separated queries (default: a built-in "
                            "workload over the company example)")
    stats.add_argument("--top", type=int, default=None, help="top-k cut")
    stats.add_argument("--semantics", choices=("and", "or"), default="and")
    stats.add_argument("--shards", type=int, default=None, metavar="K",
                       help="partition the compiled graph into K shards")
    stats.add_argument("--core", choices=CORES,
                       default=None, help="traversal kernel")

    plan = commands.add_parser(
        "plan",
        help="show the costed query plan without executing it",
        description="Compiles QUERY into the plan IR, annotates every "
        "enumeration source with the planner's cost estimates (posting "
        "lengths x graph fanout, calibrated by past runs when opened from "
        "a snapshot) and prints the plan — nothing is executed.",
    )
    plan.add_argument("query", help="whitespace-separated keywords")
    plan.add_argument("--semantics", choices=("and", "or"), default="and")
    plan.add_argument("--top", type=int, default=None, help="top-k cut")
    plan.add_argument("--shards", type=int, default=None, metavar="K",
                      help="partition the compiled graph into K shards")
    plan.add_argument("--core", choices=CORES,
                      default=None, help="traversal kernel")
    plan.add_argument("--snapshot", metavar="FILE", default=None,
                      help="open the engine (and its persisted calibration "
                           "table) from a snapshot instead of --db")
    plan.add_argument("--static-plan", action="store_true",
                      help="show the uncosted static plan")

    commands.add_parser(
        "reproduce", help="regenerate every table, figure and claim"
    )

    analyze = commands.add_parser(
        "analyze", help="schema-level closeness analysis"
    )
    analyze.add_argument("--max-length", type=int, default=3,
                         help="max conceptual path length (default 3)")

    mtjnt = commands.add_parser("mtjnt", help="enumerate MTJNTs for a query")
    mtjnt.add_argument("query")
    mtjnt.add_argument("--max-tuples", type=int, default=5)

    generate = commands.add_parser(
        "generate", help="generate a synthetic company-shaped database"
    )
    generate.add_argument("--departments", type=int, default=5)
    generate.add_argument("--projects", type=int, default=3,
                          help="projects per department")
    generate.add_argument("--employees", type=int, default=10,
                          help="employees per department")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, metavar="FILE")

    return parser


def _load_database(path: Optional[str]) -> Database:
    if path is None:
        return build_company_database()
    return load_json(path)


def _print_results(engine, results, args, out) -> None:
    if args.group:
        from repro.core.presentation import group_results

        for group in group_results(results):
            print(group.describe(), file=out)
        return
    for result in results:
        if args.explain:
            print(engine.explain(result), file=out)
            print(file=out)
        else:
            _print_result_line(result, out)


def _print_result_line(result, out) -> None:
    rendered_score = ", ".join(f"{part:g}" for part in result.score)
    print(f"{result.rank:3}  ({rendered_score})  "
          f"{result.answer.render()}", file=out)


def _report_pushdown(engine, args, ranker, limits, out) -> None:
    """Compare the top-k run's enumeration against full enumeration.

    Counting the full candidate set re-enumerates without the cut, which
    can exceed a budget the lazy top-k run never reached — report that
    instead of crashing (it is itself evidence of the skipped work).
    """
    from repro.errors import SearchLimitError

    stats = engine.last_stats
    enumerated = stats.candidates
    mode = (
        "pushdown" if stats.pushdown
        else "no pushdown (ranker has no score lower bound)"
    )
    try:
        engine.search(
            args.query, ranker=ranker, limits=limits,
            semantics=args.semantics, pushdown=False,
        )
    except SearchLimitError as error:
        print(f"# top-{args.top} {mode}: enumerated {enumerated} candidates; "
              f"full enumeration exceeds the search budget ({error})",
              file=out)
        return
    total = engine.last_stats.candidates
    skipped = total - enumerated
    print(f"# top-{args.top} {mode}: enumerated {enumerated} of {total} "
          f"candidates (skipped {skipped})", file=out)


def _search_with_mutations(engine, args, ranker, limits, out) -> int:
    """Replay mutation batches around a query and report cache behaviour.

    Runs the query cold (priming the answer cache), applies every batch
    through ``engine.apply`` — which invalidates exactly the affected
    cache entries — then answers the query again and prints what the
    replay did to the engine and its caches.
    """
    from repro.live.changes import load_mutation_batches

    batches = load_mutation_batches(args.mutations)
    engine.search(
        args.query, ranker=ranker, limits=limits,
        top_k=args.top, semantics=args.semantics,
    )
    added = removed = updated = 0
    for batch in batches:
        changeset = engine.apply(batch)
        added += len(changeset.tuples_added)
        removed += len(changeset.tuples_removed)
        updated += len(changeset.tuples_updated) + len(changeset.tuples_replaced)
    results = engine.search(
        args.query, ranker=ranker, limits=limits,
        top_k=args.top, semantics=args.semantics,
    )
    if not results:
        print("no answers", file=out)
    else:
        _print_results(engine, results, args, out)
    stats = engine.result_cache.stats
    print(f"# live: {len(batches)} batches "
          f"(+{added} -{removed} ~{updated} tuples), "
          f"engine version {engine.version}; "
          f"answer cache {stats.describe()}", file=out)
    return 0 if results else 1


def _cmd_search(args: argparse.Namespace, out) -> int:
    if args.snapshot:
        if args.db:
            print("--snapshot and --db are mutually exclusive", file=out)
            return 2
        engine = KeywordSearchEngine.open(
            args.snapshot,
            wal=args.wal,
            core=args.core,
            shards=args.shards,
            vector=False if args.no_vector else None,
            adaptive=False if args.static_plan else None,
        )
        if args.wal is not None and engine.wal is not None:
            replayed = engine.version - engine.wal.base_version
            print(f"# wal: {engine.wal.path} "
                  f"(generation {engine.wal.generation}, "
                  f"{replayed} record(s) replayed)", file=out)
    elif args.wal is not None:
        print("--wal needs --snapshot (the log is paired with a snapshot)",
              file=out)
        return 2
    else:
        engine = KeywordSearchEngine(
            _load_database(args.db),
            core=args.core,
            shards=args.shards,
            vector=False if args.no_vector else None,
            adaptive=False if args.static_plan else None,
        )
    ranker = _RANKERS[args.ranker]()
    limits = SearchLimits(max_rdb_length=args.max_rdb)
    if args.stream and (args.batch or args.group):
        print("--stream cannot be combined with --batch or --group", file=out)
        return 2
    if args.mutations and (args.batch or args.stream):
        print("--mutations cannot be combined with --batch or --stream",
              file=out)
        return 2
    if args.jobs is not None and not (args.batch or args.analyze):
        print("--jobs needs --batch or --analyze "
              "(parallel execution is per batch)", file=out)
        return 2
    if args.analyze and (args.batch or args.stream or args.mutations
                         or args.group):
        print("--analyze answers one query on its own "
              "(no --batch/--stream/--mutations/--group)", file=out)
        return 2
    if args.json and (args.stream or args.mutations or args.group):
        print("--json cannot be combined with "
              "--stream, --mutations or --group", file=out)
        return 2
    if args.analyze:
        return _search_analyze(engine, args, ranker, limits, out)
    if args.trace:
        from repro.obs import trace as obs_trace

        saved = obs_trace.ENABLED
        obs_trace.set_enabled(True)
        try:
            code = _dispatch_search(engine, args, ranker, limits, out)
        finally:
            obs_trace.set_enabled(saved)
        if engine.save_trace(args.trace):
            print(f"# trace: {args.trace}", file=out)
        return code
    return _dispatch_search(engine, args, ranker, limits, out)


def _search_analyze(engine, args, ranker, limits, out) -> int:
    """EXPLAIN ANALYZE: per-plan-node timings/counters for one query."""
    report = engine.explain_analyze(
        args.query,
        ranker=ranker,
        limits=limits,
        top_k=args.top,
        semantics=args.semantics,
        jobs=args.jobs,
    )
    if args.jobs is not None and args.jobs > 1:
        engine.close_pool()
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        print(report.render(), file=out)
        error = report.estimate_error()
        if error is not None:
            print(f"# planner: estimated {error['estimated']:g} candidates, "
                  f"observed {error['actual']} "
                  f"(error {error['error_pct']:+g}%)", file=out)
    if args.trace and engine.save_trace(args.trace):
        print(f"# trace: {args.trace}", file=out)
    return 0 if report.results else 1


def _trace_summary(trace) -> dict:
    """Small JSON-able digest of a query trace for ``--json`` output."""
    root = trace.root
    return {
        "root": root.name,
        "spans": sum(1 for __ in root.walk()),
        "duration_ms": round(root.duration * 1000.0, 3),
        "children": [
            {"name": child.name, "ms": round(child.duration * 1000.0, 3)}
            for child in root.children
        ],
    }


def _json_doc(engine, payload: dict) -> str:
    import json

    payload["stats"] = engine.last_stats.to_dict()
    if engine.last_trace is not None:
        payload["trace"] = _trace_summary(engine.last_trace)
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_results(results) -> list:
    return [
        {
            "rank": result.rank,
            "score": list(result.score),
            "answer": result.answer.render(),
        }
        for result in results
    ]


def _dispatch_search(engine, args, ranker, limits, out) -> int:
    if args.mutations:
        return _search_with_mutations(engine, args, ranker, limits, out)
    if args.stream:
        answered = 0
        for result in engine.search_stream(
            args.query,
            ranker=ranker,
            limits=limits,
            top_k=args.top,
            semantics=args.semantics,
        ):
            answered += 1
            if args.explain:
                print(engine.explain(result), file=out)
                print(file=out)
            else:
                _print_result_line(result, out)
        if not answered:
            print("no answers", file=out)
            return 1
        if args.top is not None:
            _report_pushdown(engine, args, ranker, limits, out)
        return 0
    if args.batch:
        queries = [part.strip() for part in args.query.split(";") if part.strip()]
        if not queries:
            print("no queries", file=out)
            return 1
        batched = engine.search_batch(
            queries,
            ranker=ranker,
            limits=limits,
            top_k=args.top,
            semantics=args.semantics,
            jobs=args.jobs,
        )
        if args.json:
            print(_json_doc(engine, {
                "queries": queries,
                "results": [
                    {"query": query, "results": _json_results(results)}
                    for query, results in zip(queries, batched)
                ],
            }), file=out)
            if args.jobs is not None and args.jobs > 1:
                engine.close_pool()
            return 0 if any(batched) else 1
        answered = 0
        for query, results in zip(queries, batched):
            print(f"== {query} ==", file=out)
            if not results:
                print("no answers", file=out)
            else:
                answered += 1
                _print_results(engine, results, args, out)
        if args.jobs is not None and args.jobs > 1:
            engine.close_pool()
            print(f"# parallel: {args.jobs} snapshot workers, "
                  f"{engine.last_stats.candidates} candidates, "
                  f"{engine.last_stats.shard_skips} cross-shard units skipped",
                  file=out)
        return 0 if answered else 1
    results = engine.search(
        args.query,
        ranker=ranker,
        limits=limits,
        top_k=args.top,
        semantics=args.semantics,
    )
    if args.json:
        print(_json_doc(engine, {
            "query": args.query,
            "semantics": args.semantics,
            "results": _json_results(results),
        }), file=out)
        return 0 if results else 1
    if not results:
        print("no answers", file=out)
        return 1
    _print_results(engine, results, args, out)
    if args.top is not None and not args.group:
        _report_pushdown(engine, args, ranker, limits, out)
    return 0


def _cmd_snapshot(args: argparse.Namespace, out) -> int:
    import os

    if args.action == "save":
        engine = KeywordSearchEngine(
            _load_database(args.db), core=args.core, shards=args.shards
        )
        meta = engine.save(args.out)
        size = os.path.getsize(args.out)
        print(f"wrote {args.out}: {meta['tuples']} tuples, "
              f"{meta['nodes']} graph nodes, {meta['entries']} CSR entries, "
              f"{size:,} bytes (engine v{meta['engine_version']}, "
              f"core {meta['core']})", file=out)
        if engine.shard_plan is not None:
            print(f"shards: {engine.shard_plan.describe()}", file=out)
        return 0

    engine = KeywordSearchEngine.open(args.file)
    meta = engine._snapshot.meta
    print(f"{args.file}: verified "
          f"{len(engine._snapshot.sections())} sections; "
          f"{meta['tuples']} tuples, {meta['nodes']} graph nodes, "
          f"{meta['entries']} CSR entries (engine v{meta['engine_version']}, "
          f"core {meta['core']}, "
          f"{meta['shard_count'] or 'no'} shards)", file=out)
    print(_delta_line(engine._snapshot), file=out)
    if args.query:
        results = engine.search(args.query, top_k=args.top)
        if not results:
            print("no answers", file=out)
            return 1
        for result in results:
            _print_result_line(result, out)
    return 0


def _delta_line(snapshot) -> str:
    """What open replays on top of the base sections."""
    size = len(snapshot.read("delta")) if "delta" in snapshot.sections() else 0
    return (f"base version {snapshot.base_version}, delta "
            f"{len(snapshot.delta())} record(s) in {size:,} bytes")


def _cmd_wal(args: argparse.Namespace, out) -> int:
    import os

    from repro.durable import (
        WriteAheadLog,
        compact_snapshot,
        default_wal_path,
    )
    from repro.errors import WalError
    from repro.scale.snapshot import Snapshot

    wal_path = args.wal or default_wal_path(args.snapshot)
    if args.action == "compact":
        try:
            report = compact_snapshot(
                args.snapshot, wal_path=wal_path, out=args.out
            )
        except WalError as error:
            print(f"wal compact failed: {error}", file=out)
            return 1
        print(report.describe(), file=out)
        return 0

    if not os.path.exists(wal_path):
        print(f"{wal_path}: no write-ahead log", file=out)
        return 1
    with Snapshot(args.snapshot) as snapshot:
        snapshot_generation = snapshot.generation
        print(f"{args.snapshot}: generation {snapshot_generation}, "
              f"engine version {snapshot.meta['engine_version']}, "
              + _delta_line(snapshot), file=out)
    wal = WriteAheadLog(wal_path)
    try:
        records = wal.scan()
    except WalError as error:
        print(f"{wal_path}: corrupt ({error})", file=out)
        return 1
    finally:
        wal.close()
    paired = (
        "paired" if wal.generation == snapshot_generation
        else f"MISMATCH (snapshot is {snapshot_generation})"
    )
    print(f"{wal_path}: generation {wal.generation} {paired}, "
          f"base version {wal.base_version}, "
          f"{len(records)} record(s)"
          + (", torn tail (ignored on replay)" if wal.torn_tail else ""),
          file=out)
    for offset, record in records:
        changed = sum(
            len(record.get(field, ()))
            for field in ("appended", "removed", "updated", "replaced")
        )
        print(f"  v{record['version']} @ {offset}: "
              f"{changed} tuple change(s)", file=out)
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    from repro.analysis import main as lint_main

    argv = list(args.paths)
    if args.strict:
        argv.append("--strict")
    if args.json:
        argv.append("--json")
    if args.verbose:
        argv.append("--verbose")
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.update_baseline:
        argv.append("--update-baseline")
    return lint_main(argv, out)


#: Workload `repro stats` runs when no QUERY is given (company example).
_STATS_WORKLOAD = ("Smith XML", "Brown CS", "Smith Brown")


def _cmd_stats(args: argparse.Namespace, out) -> int:
    """Run a workload with the metrics registry on and print the report."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import REGISTRY, diff_snapshots, render_report

    if args.query:
        queries = [part.strip() for part in args.query.split(";")
                   if part.strip()]
    elif args.db is None:
        queries = list(_STATS_WORKLOAD)
    else:
        print("stats needs QUERY when --db is given "
              "(the built-in workload only fits the company example)",
              file=out)
        return 2
    engine = KeywordSearchEngine(
        _load_database(args.db), core=args.core, shards=args.shards
    )
    saved = obs_metrics.ENABLED
    before = REGISTRY.snapshot()
    obs_metrics.set_enabled(True)
    try:
        for query in queries:
            engine.search(
                query, top_k=args.top, semantics=args.semantics
            )
    finally:
        obs_metrics.set_enabled(saved)
    delta = diff_snapshots(before, REGISTRY.snapshot())
    title = f"repro stats — {len(queries)} queries"
    print(render_report(delta, title=title), file=out)
    return 0


def _cmd_plan(args: argparse.Namespace, out) -> int:
    """Compile and cost QUERY, print the annotated plan, execute nothing."""
    from repro.errors import QueryError

    adaptive = False if args.static_plan else None
    if args.snapshot:
        if args.db:
            print("--snapshot and --db are mutually exclusive", file=out)
            return 2
        engine = KeywordSearchEngine.open(
            args.snapshot, core=args.core, shards=args.shards,
            adaptive=adaptive,
        )
    else:
        engine = KeywordSearchEngine(
            _load_database(args.db), core=args.core, shards=args.shards,
            adaptive=adaptive,
        )
    try:
        plan, __ = engine._plan(args.query, args.top, args.semantics)
    except QueryError as error:
        print(f"cannot plan: {error}", file=out)
        return 1
    print(plan.describe(), file=out)
    if engine.adaptive:
        calibrated = len(engine.calibration)
        source = (f"{calibrated} calibrated kind(s)" if calibrated
                  else "uncalibrated defaults")
        print(f"# planner: adaptive (cost model over posting lengths x "
              f"graph fanout, {source})", file=out)
    else:
        print("# planner: static (plan-order enumeration; "
              "set no flag and unset REPRO_STATIC_PLAN for adaptive)",
              file=out)
    return 0


def _cmd_reproduce(args: argparse.Namespace, out) -> int:
    from repro.experiments import (
        figure1,
        figure2,
        mtjnt_loss,
        ranking_comparison,
        render_table,
        table1,
        table2,
        table3,
    )

    figure1()
    print("Figure 1: ER mapping reproduces Figure 2's schema  OK", file=out)
    instance = figure2()
    print("Figure 2: instance verified "
          f"({sum(instance.tuple_counts.values())} tuples)  OK", file=out)
    print(file=out)
    print(render_table(
        "Table 1",
        ["#", "relationship", "cardinality", "verdict"],
        [
            [r.number, r.entities, r.cardinalities,
             "close" if r.is_close else "loose"]
            for r in table1()
        ],
    ), file=out)
    print(file=out)
    print(render_table(
        "Table 2",
        ["#", "connection", "len RDB", "len ER"],
        [[r.number, r.rendered, r.rdb_length, r.er_length] for r in table2()],
    ), file=out)
    print(file=out)
    print(render_table(
        "Table 3",
        ["#", "connection with relationships"],
        [[r.number, r.rendered] for r in table3()],
    ), file=out)
    print(file=out)
    loss = mtjnt_loss()
    print(f"Claim C1: MTJNTs {loss.mtjnt_rows}, lost {loss.lost_rows}  OK",
          file=out)
    ranking = ranking_comparison()
    print(f"Claim C2: closeness best {ranking.closeness_best}, "
          f"worst {ranking.closeness_worst}  OK", file=out)
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    database = _load_database(args.db)
    analyzer = analyze_relational_schema(
        database.schema, max_length=args.max_length
    )
    print(analyzer.report(), file=out)
    return 0


def _cmd_mtjnt(args: argparse.Namespace, out) -> int:
    engine = KeywordSearchEngine(_load_database(args.db))
    matches = engine.match(args.query)
    networks = find_mtjnts(
        engine.data_graph, matches, SearchLimits(max_tuples=args.max_tuples)
    )
    if not networks:
        print("no MTJNTs", file=out)
        return 1
    for members in networks:
        labels = sorted(
            engine.database.tuple(tid).label for tid in members
        )
        print("{" + ", ".join(labels) + "}", file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    database = generate_company_like(
        SyntheticConfig(
            departments=args.departments,
            projects_per_department=args.projects,
            employees_per_department=args.employees,
            seed=args.seed,
        )
    )
    dump_json(database, args.out)
    print(f"wrote {database.count()} tuples to {args.out}", file=out)
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "snapshot": _cmd_snapshot,
    "wal": _cmd_wal,
    "lint": _cmd_lint,
    "stats": _cmd_stats,
    "plan": _cmd_plan,
    "reproduce": _cmd_reproduce,
    "analyze": _cmd_analyze,
    "mtjnt": _cmd_mtjnt,
    "generate": _cmd_generate,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)
