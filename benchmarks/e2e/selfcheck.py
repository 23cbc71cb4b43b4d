"""``run.py --selfcheck``: does the benchmark agree with itself?

Per workload, two interleaved sets (A, B) of fresh-process runs over the
same seeds plus one traced run.  Complains when the sets' medians differ
by more than a metric's bound, a run is further than the bound from its
set's median, a digest or exact counter differs between two runs of one
seed, a run is incorrect or fails, or a process outlives its run.
Writes medians and quartiles to ``baseline.json`` beside this file.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Per-layer counters that must repeat exactly for a seed.
EXACT = (
    "durable.wal_fsyncs",
    "durable.wal_bytes_per_mutation",
    "durable.records_folded",
    "graph.enum_units_per_query",
    "relational.postings_per_query",
    "scale.snapshot_bytes_per_tuple",
    "scale.shm_batches",
)


def _session_members(session: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were looking
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh-process run, parsed; its own session so that anything
    it leaves behind can be found."""
    process = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, __ = process.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        process.kill()
        output, __ = process.communicate()
    run = {
        "seed": seed,
        "returncode": process.returncode,
        "survivors": _session_members(process.pid),
        "values": {},
        "digests": {},
        "result": None,
    }
    for line in output.splitlines():
        parts = line.split()
        if parts[:1] in (["metric"], ["layer"]) and len(parts) == 4:
            run["values"][parts[1]] = (float(parts[2]), parts[3])
        elif parts[:1] == ["digest"]:
            run["digests"][parts[1]] = parts[2]
        elif line.startswith("{"):
            run["result"] = json.loads(line)
    return run


def _worse(value: float, reference: float, better: str) -> float:
    """Share of ``reference`` by which ``value`` is worse (negative: better)."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def main(repeat: int, seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    complaints: list[str] = []
    baseline = {
        "generated_by": f"run.py --selfcheck --repeat {repeat} --seconds {seconds:g}",
        "workloads": {},
    }
    for workload in (entry["name"] for entry in contract["workloads"]):
        sets: dict[str, list] = {"a": [], "b": []}
        for seed in range(1, repeat + 1):
            for label in ("a", "b"):
                run = run_once(workload, seed, seconds, 0)
                sets[label].append(run)
                print(f"{workload} set {label} seed {seed}: rc {run['returncode']}", flush=True)
        traced = run_once(workload, 1, seconds, 1)
        print(f"{workload} traced seed 1: rc {traced['returncode']}", flush=True)
        for run in sets["a"] + sets["b"] + [traced]:
            where = f"{workload} seed {run['seed']}"
            result = run["result"]
            if run["returncode"] != 0 or result is None:
                complaints.append(f"{where}: exit code {run['returncode']}, no result")
                continue
            if not result["correct"] or result["failed"]:
                complaints.append(f"{where}: incorrect or failed calls")
            if run["survivors"]:
                complaints.append(f"{where}: processes survived: {run['survivors']}")
        for first, second in zip(sets["a"], sets["b"]):
            where = f"{workload} seed {first['seed']}"
            if first["digests"] != second["digests"]:
                complaints.append(f"{where}: digests differ between runs")
            for name in EXACT:
                if first["values"].get(name) != second["values"].get(name):
                    complaints.append(f"{where}: exact counter {name} differs")
        if traced["digests"] != sets["a"][0]["digests"]:
            complaints.append(f"{workload}: traced run did different work")

        entry = {"end_to_end": {}, "per_layer": {}, "runs": 2 * repeat}
        for metric in contract["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            medians = {}
            for label, runs in sets.items():
                values = [run["values"][name][0] for run in runs if name in run["values"]]
                medians[label] = statistics.median(values)
                for value in values:
                    if abs(_worse(value, medians[label], better)) > bound:
                        complaints.append(
                            f"{workload} {name}: a run is {value:.4g}, its set's median {medians[label]:.4g}"
                        )
            drift = abs(_worse(medians["b"], medians["a"], better))
            if drift > bound:
                complaints.append(f"{workload} {name}: set medians drift {drift:.3f} > {bound}")
            pooled = [
                run["values"][name][0] for runs in sets.values() for run in runs
            ]
            q1, __, q3 = statistics.quantiles(pooled, n=4)
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "median": statistics.median(pooled),
                "q1": q1,
                "q3": q3,
                "set_a_median": medians["a"],
                "set_b_median": medians["b"],
                "drift": drift,
                "bound": bound,
            }
        for name, (value, unit) in sorted(traced["values"].items()):
            entry["per_layer"][name] = {"value": value, "unit": unit}
        baseline["workloads"][workload] = entry
    baseline["complaints"] = complaints
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for complaint in complaints:
        print("COMPLAINT", complaint)
    print(f"selfcheck: {len(complaints)} complaint(s); wrote baseline.json")
    return 1 if complaints else 0
