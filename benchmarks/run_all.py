"""Run every standalone benchmark gate and emit one machine-readable report.

Discovers each ``bench_*.py`` in this directory that exposes a
``main(argv, out)`` entry point (the CI-gated benches), runs it with
``--quick`` (or the full sweep with ``--full``), and writes a
consolidated JSON report so the perf trajectory is diffable from PR to
PR.  The schema is documented in EXPERIMENTS.md ("Benchmark report
schema"); in short::

    {
      "schema": "repro-bench-report/6",
      "quick": true,
      "python": "3.11.7",
      "obs": 0.09,                   # bench_obs disabled-mode overhead, %
      "durability": {                # bench_durability WAL gates
        "wal_overhead_pct": 4.10,
        "reopen_speedup": 6.4
      },
      "planner": {                   # bench_planner adaptive-planning gates
        "enum_reduction_pct": 60.1,
        "makespan_ratio": 1.44
      },
      "benchmarks": [
        {"name": "bench_csr_kernel", "exit_code": 0, "status": "ok",
         "elapsed_s": 0.61, "speedups": [], "max_speedup": null,
         "output": "kernel workload: ..."},
        ...
      ],
      "failures": ["bench_x"]        # empty when everything gated green
    }

``speedups`` collects every ``<float>x`` figure a bench printed, in
print order — each bench's own output names what the figures mean; the
gates themselves live *in the benches*, this runner only aggregates
exit codes.

Run::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    PYTHONPATH=src python benchmarks/run_all.py --quick --out BENCH_pr10.json
"""

import argparse
import importlib.util
import io
import json
import platform
import re
import sys
import time
from pathlib import Path

_SPEEDUP = re.compile(r"(\d+(?:\.\d+)?)x\b")
_OBS_OVERHEAD = re.compile(r"^obs-overhead-pct: (\d+(?:\.\d+)?)$", re.M)
_WAL_OVERHEAD = re.compile(r"^wal-overhead-pct: (\d+(?:\.\d+)?)$", re.M)
_REOPEN_SPEEDUP = re.compile(r"^reopen-speedup: (\d+(?:\.\d+)?)$", re.M)
_ENUM_REDUCTION = re.compile(
    r"^planner-enum-reduction-pct: (-?\d+(?:\.\d+)?)$", re.M)
_MAKESPAN_RATIO = re.compile(
    r"^planner-makespan-ratio: (\d+(?:\.\d+)?)$", re.M)


def discover(directory: Path) -> list[Path]:
    """Benchmark files with a standalone ``main`` entry point, sorted."""
    found = []
    for path in sorted(directory.glob("bench_*.py")):
        if "def main(" in path.read_text(encoding="utf-8"):
            found.append(path)
    return found


def load_main(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def run_one(path: Path, quick: bool) -> dict:
    captured = io.StringIO()
    argv = ["--quick"] if quick else []
    started = time.perf_counter()
    try:
        exit_code = load_main(path)(argv, out=captured)
    except Exception as error:  # a crash is a failure, not a report hole
        captured.write(f"CRASH: {type(error).__name__}: {error}\n")
        exit_code = 2
    elapsed = time.perf_counter() - started
    output = captured.getvalue()
    speedups = [float(match) for match in _SPEEDUP.findall(output)]
    return {
        "name": path.stem,
        "exit_code": exit_code,
        "status": "ok" if exit_code == 0 else "fail",
        "elapsed_s": round(elapsed, 3),
        "speedups": speedups,
        "max_speedup": max(speedups) if speedups else None,
        "output": output,
    }


def lint_summary() -> dict:
    """Invariant-linter rule-hit counts, recorded beside the perf numbers.

    BENCH reports are the per-PR trajectory artifact; carrying the lint
    pressure in them shows invariant debt rising or falling alongside
    throughput.  A crash (e.g. ``repro`` not importable) is reported,
    not raised — the perf gates still run.
    """
    try:
        from repro.analysis import analyze_paths

        report = analyze_paths()
        return {
            "new": len(report.new),
            "baselined": len(report.baselined),
            "suppressed": len(report.suppressed),
            "files": report.files,
            "counts": report.counts(),
        }
    except Exception as error:
        return {
            "new": 0,
            "baselined": 0,
            "suppressed": 0,
            "files": 0,
            "counts": {},
            "error": f"{type(error).__name__}: {error}",
        }


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run every bench's --quick CI gate")
    parser.add_argument("--full", action="store_true",
                        help="run the full sweeps instead of --quick")
    parser.add_argument("--out", metavar="FILE", default="BENCH_pr10.json",
                        help="where to write the JSON report "
                             "(default BENCH_pr10.json)")
    args = parser.parse_args(argv)
    quick = args.quick or not args.full

    directory = Path(__file__).resolve().parent
    results = []
    for path in discover(directory):
        print(f"== {path.stem} ({'quick' if quick else 'full'}) ==", file=out)
        result = run_one(path, quick)
        results.append(result)
        print(result["output"], end="", file=out)
        print(f"-- {result['status']} in {result['elapsed_s']:.2f}s", file=out)

    failures = [result["name"] for result in results if result["exit_code"]]
    lint = lint_summary()
    print("== repro.analysis (invariant linter) ==", file=out)
    print(f"lint: {lint['new']} new, {lint['baselined']} baselined, "
          f"{lint['suppressed']} suppressed over {lint['files']} files "
          f"(rule hits: {lint['counts'] or 'none'})", file=out)
    if lint["new"]:
        failures.append("repro.analysis")

    obs_overhead = None
    durability = None
    planner = None
    for result in results:
        if result["name"] == "bench_obs":
            match = _OBS_OVERHEAD.search(result["output"])
            if match:
                obs_overhead = float(match.group(1))
        if result["name"] == "bench_planner":
            reduction = _ENUM_REDUCTION.search(result["output"])
            ratio = _MAKESPAN_RATIO.search(result["output"])
            if reduction or ratio:
                planner = {
                    "enum_reduction_pct":
                        float(reduction.group(1)) if reduction else None,
                    "makespan_ratio":
                        float(ratio.group(1)) if ratio else None,
                }
        if result["name"] == "bench_durability":
            overhead = _WAL_OVERHEAD.search(result["output"])
            speedup = _REOPEN_SPEEDUP.search(result["output"])
            if overhead or speedup:
                durability = {
                    "wal_overhead_pct":
                        float(overhead.group(1)) if overhead else None,
                    "reopen_speedup":
                        float(speedup.group(1)) if speedup else None,
                }

    report = {
        "schema": "repro-bench-report/6",
        "quick": quick,
        "python": platform.python_version(),
        "obs": obs_overhead,
        "durability": durability,
        "planner": planner,
        "benchmarks": results,
        "lint": lint,
        "failures": failures,
    }
    report_path = Path(args.out)
    report_path.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"report: {report_path} ({len(results)} benchmarks, "
          f"{len(failures)} failing)", file=out)
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=out)
        return 1
    print("OK: every benchmark gate passed", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
