"""Cost-routed batch dispatch: partition correctness and balance."""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.planner import route_by_cost


def _makespan(assignment, costs):
    return max(
        (sum(costs[p] for p in chunk) for chunk in assignment if chunk),
        default=0.0,
    )


class TestRouteByCost:
    def test_partitions_every_position_exactly_once(self):
        costs = [5.0, 1.0, 9.0, 2.0, 2.0, 7.0, 1.0]
        assignment = route_by_cost(costs, jobs=3)
        flat = sorted(p for chunk in assignment for p in chunk)
        assert flat == list(range(len(costs)))

    def test_chunks_stay_in_input_order(self):
        # The pool error protocol needs every chunk ascending: a worker
        # stops at its first error and the coordinator re-raises the
        # error of the earliest input position.
        costs = [3.0, 8.0, 1.0, 5.0, 2.0, 9.0]
        for chunk in route_by_cost(costs, jobs=3):
            assert chunk == sorted(chunk)

    def test_deterministic(self):
        costs = [4.0, 4.0, 4.0, 1.0, 1.0]
        assert route_by_cost(costs, 2) == route_by_cost(costs, 2)

    def test_single_job_is_one_chunk(self):
        assert route_by_cost([1.0, 2.0, 3.0], 1) == [[0, 1, 2]]
        assert route_by_cost([1.0, 2.0, 3.0], 0) == [[0, 1, 2]]

    def test_more_jobs_than_queries(self):
        assignment = route_by_cost([2.0, 1.0], jobs=8)
        assert len(assignment) == 2
        assert sorted(p for chunk in assignment for p in chunk) == [0, 1]

    def test_empty_batch(self):
        assert route_by_cost([], jobs=4) == []

    def test_beats_contiguous_chunking_on_skew(self):
        # One hot query followed by cheap ones: contiguous halving puts
        # the hot query plus half the tail on worker 0; LPT isolates it.
        costs = [100.0] + [1.0] * 9
        routed = route_by_cost(costs, jobs=2)
        half = (len(costs) + 1) // 2
        contiguous = [list(range(half)), list(range(half, len(costs)))]
        assert _makespan(routed, costs) < _makespan(contiguous, costs)

    def test_lpt_bound_holds(self):
        # Greedy LPT is within 4/3 of the optimal makespan; check a
        # conservative 3/2 bound against the trivial lower bounds.
        costs = [7.0, 5.0, 4.0, 3.0, 3.0, 2.0, 2.0]
        for jobs in (2, 3, 4):
            assignment = route_by_cost(costs, jobs)
            lower = max(max(costs), sum(costs) / jobs)
            assert _makespan(assignment, costs) <= 1.5 * lower


class TestBatchRouting:
    def test_pool_batch_records_cost_assignment(self, company_db, tmp_path):
        path = str(tmp_path / "route.snap")
        KeywordSearchEngine(company_db).save(path)
        engine = KeywordSearchEngine.open(path, adaptive=True)
        queries = ["Smith XML", "Brown CS", "Smith Brown", "Research Smith"]
        try:
            engine.search_batch(queries, top_k=3, jobs=2)
            searcher = engine._searcher
            assert searcher is not None
            assignment = searcher.last_assignment
            flat = sorted(p for chunk in assignment for p in chunk)
            assert flat == list(range(len(queries)))
            for chunk in assignment:
                assert chunk == sorted(chunk)
        finally:
            engine.close_pool()
            engine.close()
