"""Unit tests for bounded path and joining-tree enumeration."""

import pytest

from repro.baselines.discover import is_connected_set
from repro.errors import SearchLimitError
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def path_labels(company_db, steps):
    labels = [company_db.tuple(steps[0].source).label]
    labels.extend(company_db.tuple(step.target).label for step in steps)
    return labels


class TestSimplePaths:
    def test_direct_path(self, data_graph, company_db):
        paths = list(
            enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 1
            )
        )
        assert [path_labels(company_db, p) for p in paths] == [["d1", "e1"]]

    def test_paper_pair_d1_e1_up_to_three(self, data_graph, company_db):
        paths = list(
            enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 3
            )
        )
        rendered = {tuple(path_labels(company_db, p)) for p in paths}
        assert rendered == {
            ("d1", "e1"),
            ("d1", "p1", "w_f1", "e1"),   # the paper's connection 4
        }

    def test_paths_ordered_by_length(self, data_graph, company_db):
        paths = list(
            enumerate_simple_paths(
                data_graph, tid("PROJECT", "p1"), tid("EMPLOYEE", "e1"), 4
            )
        )
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_paths_are_simple(self, data_graph):
        for path in enumerate_simple_paths(
            data_graph, tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2"), 5
        ):
            nodes = [path[0].source] + [s.target for s in path]
            assert len(nodes) == len(set(nodes))

    def test_zero_budget_yields_nothing(self, data_graph):
        assert list(
            enumerate_simple_paths(
                data_graph, tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1"), 0
            )
        ) == []

    def test_unknown_node_yields_nothing(self, data_graph):
        assert list(
            enumerate_simple_paths(
                data_graph, tid("EMPLOYEE", "e99"), tid("EMPLOYEE", "e1"), 3
            )
        ) == []

    def test_budget_exceeded_raises(self, data_graph):
        with pytest.raises(SearchLimitError):
            list(
                enumerate_simple_paths(
                    data_graph,
                    tid("DEPARTMENT", "d2"),
                    tid("EMPLOYEE", "e2"),
                    5,
                    max_paths=1,
                )
            )

    def test_deterministic(self, data_graph, company_db):
        def run():
            return [
                tuple(path_labels(company_db, p))
                for p in enumerate_simple_paths(
                    data_graph, tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e4"), 4
                )
            ]

        assert run() == run()

    def test_steps_are_connected(self, data_graph):
        for path in enumerate_simple_paths(
            data_graph, tid("DEPARTMENT", "d1"), tid("DEPENDENT", "t1"), 4
        ):
            for previous, step in zip(path, path[1:]):
                assert previous.target == step.source


class TestJoiningTrees:
    def test_pair_of_required_tuples(self, data_graph):
        trees = list(
            enumerate_joining_trees(
                data_graph,
                [tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")],
                max_tuples=2,
            )
        )
        assert trees == [
            frozenset({tid("DEPARTMENT", "d1"), tid("EMPLOYEE", "e1")})
        ]

    def test_all_trees_connected_and_contain_required(self, data_graph):
        required = [tid("EMPLOYEE", "e1"), tid("PROJECT", "p1")]
        for tree in enumerate_joining_trees(data_graph, required, max_tuples=4):
            assert set(required) <= tree
            assert is_connected_set(data_graph, tree)

    def test_smaller_trees_first(self, data_graph):
        sizes = [
            len(tree)
            for tree in enumerate_joining_trees(
                data_graph,
                [tid("EMPLOYEE", "e1"), tid("PROJECT", "p1")],
                max_tuples=5,
            )
        ]
        assert sizes == sorted(sizes)

    def test_disconnected_required_yields_nothing(self, data_graph):
        trees = list(
            enumerate_joining_trees(
                data_graph,
                [tid("DEPARTMENT", "d3"), tid("EMPLOYEE", "e1")],
                max_tuples=6,
            )
        )
        assert trees == []

    def test_single_required_tuple(self, data_graph):
        trees = list(
            enumerate_joining_trees(
                data_graph, [tid("DEPARTMENT", "d3")], max_tuples=1
            )
        )
        assert trees == [frozenset({tid("DEPARTMENT", "d3")})]

    def test_empty_required_yields_nothing(self, data_graph):
        assert list(
            enumerate_joining_trees(data_graph, [], max_tuples=3)
        ) == []

    def test_unknown_required_yields_nothing(self, data_graph):
        assert list(
            enumerate_joining_trees(
                data_graph, [tid("EMPLOYEE", "e99")], max_tuples=3
            )
        ) == []

    def test_budget_exceeded_raises(self, data_graph):
        with pytest.raises(SearchLimitError):
            list(
                enumerate_joining_trees(
                    data_graph,
                    [tid("DEPARTMENT", "d1")],
                    max_tuples=6,
                    max_results=2,
                )
            )

    def test_no_duplicate_trees(self, data_graph):
        trees = list(
            enumerate_joining_trees(
                data_graph,
                [tid("DEPARTMENT", "d2"), tid("EMPLOYEE", "e2")],
                max_tuples=5,
            )
        )
        assert len(trees) == len(set(trees))

    def test_three_required_tuples(self, data_graph):
        required = [
            tid("DEPARTMENT", "d1"),
            tid("EMPLOYEE", "e1"),
            tid("PROJECT", "p1"),
        ]
        trees = list(
            enumerate_joining_trees(data_graph, required, max_tuples=4)
        )
        # d1 joins e1 and p1 directly, so the required set itself is a tree;
        # adding w_f1 gives a four-tuple alternative.
        assert frozenset(required) in trees
        assert frozenset(required) | {tid("WORKS_FOR", "e1", "p1")} in trees
