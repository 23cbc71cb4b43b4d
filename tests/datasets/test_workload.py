"""Unit tests for workload generation."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import WorkloadConfig, generate_workload


@pytest.fixture
def database():
    return generate_company_like(
        SyntheticConfig(departments=3, employees_per_department=5, seed=21)
    )


class TestGenerateWorkload:
    def test_query_count(self, database):
        workload = generate_workload(database, WorkloadConfig(queries=4))
        assert len(workload) == 4

    def test_keywords_per_query(self, database):
        workload = generate_workload(
            database, WorkloadConfig(queries=2, keywords_per_query=3)
        )
        assert all(len(q.keywords) == 3 for q in workload)

    def test_keywords_are_unique_across_workload(self, database):
        workload = generate_workload(database, WorkloadConfig(queries=5))
        all_keywords = [k for q in workload for k in q.keywords]
        assert len(all_keywords) == len(set(all_keywords))

    def test_planted_selectivity_is_exact(self, database):
        workload = generate_workload(
            database, WorkloadConfig(queries=3, matches_per_keyword=2)
        )
        engine = KeywordSearchEngine(database)
        for query in workload:
            for keyword in query.keywords:
                assert engine.index.document_frequency(keyword) == 2

    def test_ground_truth_labels_match_index(self, database):
        workload = generate_workload(
            database, WorkloadConfig(queries=2, matches_per_keyword=3)
        )
        engine = KeywordSearchEngine(database)
        for query in workload:
            for keyword, labels in query.planted_labels.items():
                matched = {
                    database.tuple(t).label
                    for t in engine.index.matching_tuples(keyword)
                }
                assert matched == set(labels)

    def test_queries_are_searchable(self, database):
        workload = generate_workload(
            database, WorkloadConfig(queries=2, matches_per_keyword=2)
        )
        engine = KeywordSearchEngine(database)
        for query in workload:
            engine.search(query.text, top_k=3)  # must not raise

    def test_deterministic(self):
        first_db = generate_company_like(SyntheticConfig(seed=33))
        second_db = generate_company_like(SyntheticConfig(seed=33))
        first = generate_workload(first_db, WorkloadConfig(seed=5))
        second = generate_workload(second_db, WorkloadConfig(seed=5))
        assert [q.planted_labels for q in first] == [
            q.planted_labels for q in second
        ]


class TestMixedWorkload:
    def test_deterministic(self, database):
        from repro.datasets.workload import (
            MixedWorkloadConfig,
            generate_mixed_workload,
        )

        queries = generate_workload(database, WorkloadConfig(queries=3))
        config = MixedWorkloadConfig(operations=20, seed=5)
        first = generate_mixed_workload(database, queries, config)
        second = generate_mixed_workload(database, queries, config)
        assert first == second

    def test_update_ratio_zero_is_read_only(self, database):
        from repro.datasets.workload import (
            MixedWorkloadConfig,
            generate_mixed_workload,
        )

        queries = generate_workload(database, WorkloadConfig(queries=3))
        stream = generate_mixed_workload(
            database, queries, MixedWorkloadConfig(operations=15, update_ratio=0.0)
        )
        assert all(op.kind == "search" for op in stream)

    def test_mutation_batches_apply_cleanly(self, database):
        from repro.core.engine import KeywordSearchEngine
        from repro.datasets.workload import (
            MixedWorkloadConfig,
            generate_mixed_workload,
        )

        queries = generate_workload(database, WorkloadConfig(queries=3))
        stream = generate_mixed_workload(
            database,
            queries,
            MixedWorkloadConfig(operations=20, update_ratio=0.5, seed=11),
        )
        engine = KeywordSearchEngine(database)
        applies = [op for op in stream if op.kind == "apply"]
        assert applies
        for op in applies:
            engine.apply(op.mutations)
        fresh = KeywordSearchEngine(database)
        for query in queries:
            assert [r.render() for r in engine.search(query.text)] == [
                r.render() for r in fresh.search(query.text)
            ]

    def test_skew_concentrates_reads(self, database):
        from collections import Counter

        from repro.datasets.workload import (
            MixedWorkloadConfig,
            generate_mixed_workload,
        )

        queries = generate_workload(database, WorkloadConfig(queries=4))
        stream = generate_mixed_workload(
            database,
            queries,
            MixedWorkloadConfig(
                operations=200, update_ratio=0.0, skew=2.5, seed=3
            ),
        )
        counts = Counter(op.query for op in stream)
        assert counts[queries[0].text] > counts[queries[-1].text]
