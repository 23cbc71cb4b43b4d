"""Smoke test of the end-to-end benchmark: ``tiny`` scale, in-process,
the reference kernel stubbed, no timing assertions."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def _run(workload: str, trace: bool, seed: int = 5) -> dict:
    return run.run_workload(
        workload, seed, 1.0, trace,
        scale="tiny", spin=lambda: run.SPIN_NOMINAL_S, isolate_prepare=False,
    )


def _check(report: dict, section: str) -> None:
    result = report["result"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = {entry["name"]: entry["unit"] for entry in CONTRACT[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == listed
    assert multiprocessing.active_children() == []
    assert not os.path.exists(os.path.join(os.path.dirname(run.__file__), ".work"))


@pytest.fixture(scope="module")
def untraced():
    return {workload: _run(workload, trace=False) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_the_end_to_end_contract(untraced, workload):
    report = untraced[workload]
    _check(report, "end_to_end")
    assert all(entry["value"] > 0 for entry in report["result"]["metrics"].values())


def test_traced_run_prints_the_per_layer_contract_and_repeats_the_work(untraced):
    report = _run("cold_distinct", trace=True)
    _check(report, "per_layer")
    assert report["digests"] == untraced["cold_distinct"]["digests"]
    metrics = report["metrics"]
    assert metrics["trace.attributed_share"][0] > 0.5
    assert 0.9 < metrics["trace.self_sum_ratio"][0] <= 1.0
    assert metrics["graph.prefetch_ms"][0] > 0


def test_exact_counters_are_read_on_the_workloads_that_produce_them(untraced):
    mixed = untraced["mixed_rw_wal"]["metrics"]
    assert mixed["durable.wal_fsyncs"][0] > 0
    assert mixed["durable.records_folded"][0] > 0
    assert mixed["live.cache_hit_rate"][0] > 0
    assert untraced["open_and_batch"]["metrics"]["scale.shm_batches"][0] > 0
    assert untraced["cold_distinct"]["metrics"]["graph.enum_units_per_query"][0] > 0


def test_another_seed_generates_other_operations():
    import corpus

    workload = run.WORKLOADS["cold_distinct"]
    digests = {
        corpus.digest(workload.population(corpus.generate("tiny", seed), 1.0)[1])
        for seed in (5, 5, 6)
    }
    assert len(digests) == 2


def test_contract_names_every_workload_of_the_runner():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
