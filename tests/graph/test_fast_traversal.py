"""Tests of :class:`repro.graph.fast_traversal.TraversalCache` as the
kernels see it: a cache is only ever used for the graph it was built on.
"""

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.graph.csr import csr_enumerate_joining_trees, csr_enumerate_simple_paths
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


@pytest.fixture(scope="module")
def other_graph():
    return DataGraph(
        generate_company_like(
            SyntheticConfig(
                departments=3,
                projects_per_department=2,
                employees_per_department=4,
                works_on_per_employee=2,
                seed=29,
            )
        )
    )


class TestTraversalCache:
    def test_mismatched_cache_is_ignored(self, data_graph, other_graph):
        # A cache built on a different graph must not poison answers.
        other_cache = TraversalCache(other_graph)
        source, target = tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")
        brute_paths = list(enumerate_simple_paths(data_graph, source, target, 3))
        csr_paths = list(
            csr_enumerate_simple_paths(
                data_graph, source, target, 3, cache=other_cache
            )
        )
        assert csr_paths == brute_paths
        brute_trees = list(enumerate_joining_trees(data_graph, [source, target], 4))
        csr_trees = list(
            csr_enumerate_joining_trees(
                data_graph, [source, target], 4, cache=other_cache
            )
        )
        assert csr_trees == brute_trees
        assert other_cache._frozen is None
        assert other_cache.hits == 0 and other_cache.misses == 0
        assert other_cache.paths_enumerated == 0
        assert other_cache.trees_enumerated == 0
