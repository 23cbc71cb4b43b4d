"""Enumeration of keyword-search answers over the data graph.

Answers come in two shapes:

* :class:`~repro.core.connections.Connection` — a tuple *path* between two
  keyword tuples.  This is the paper's setting (all of its examples are
  two-keyword queries) and the default for queries with two keywords.
* :class:`JoiningNetwork` — a connected tuple *tree* covering one match
  tuple per keyword, for queries with three or more keywords.  A joining
  network aggregates the paper's per-path metrics over the tree paths
  between its keyword tuples.

Both shapes expose the same ranking interface: ``rdb_length``,
``er_length``, ``loose_joint_count()``, ``ambiguity_factor()`` and
``covered_keywords``.  Enumeration is exhaustive within explicit bounds and
deterministic, so the reproduction tests can assert paper tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

import networkx as nx

from repro.core import ambiguity as ambiguity_module
from repro.core.connections import Connection
from repro.core.matching import KeywordMatch
from repro.errors import QueryError
from repro.graph.csr import (
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
    resolve_core,
)
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import (
    TuplePathStep,
    _sort_key,
    enumerate_joining_trees,
    enumerate_simple_paths,
)
from repro.relational.database import TupleId

__all__ = [
    "SearchLimits",
    "SingleTupleAnswer",
    "JoiningNetwork",
    "find_connections",
    "find_joining_networks",
]


@dataclass(frozen=True)
class SearchLimits:
    """Bounds on answer enumeration.

    ``max_rdb_length`` bounds path answers in FK edges; ``max_tuples``
    bounds joining networks in tuples; the ``max_*_results`` budgets raise
    :class:`~repro.errors.SearchLimitError` when exceeded rather than
    silently truncating.
    """

    max_rdb_length: int = 5
    max_tuples: int = 6
    max_paths_per_pair: Optional[int] = 100_000
    max_networks: Optional[int] = 100_000

    def __post_init__(self) -> None:
        if self.max_rdb_length < 1:
            raise QueryError(
                "max_rdb_length must be at least 1", got=self.max_rdb_length
            )
        if self.max_tuples < 1:
            raise QueryError(
                "max_tuples must be at least 1", got=self.max_tuples
            )
        for name in ("max_paths_per_pair", "max_networks"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise QueryError(f"{name} must be positive or None", got=value)


class SingleTupleAnswer:
    """A degenerate answer: one tuple containing every query keyword."""

    def __init__(self, data_graph: DataGraph, tid: TupleId,
                 keywords: frozenset[str]) -> None:
        self.data_graph = data_graph
        self.tid = tid
        self.covered_keywords = keywords
        self.rdb_length = 0
        self.er_length = 0

    def loose_joint_count(self) -> int:
        return 0

    def ambiguity_factor(self) -> int:
        return 1

    def tuple_ids(self) -> tuple[TupleId, ...]:
        return (self.tid,)

    def render(self) -> str:
        record = self.data_graph.database.tuple(self.tid)
        rendered = ",".join(sorted(self.covered_keywords))
        return f"{record.label}({rendered})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SingleTupleAnswer({self.render()!r})"


class JoiningNetwork:
    """A connected tuple tree covering one match tuple per keyword.

    The network stores a spanning tree of the induced subgraph on its tuple
    set (minimum-edge, deterministic) and derives the paper's metrics from
    the tree paths between keyword tuples:

    * ``rdb_length`` — number of tree edges;
    * ``er_length`` — tree edges after collapsing interior middle tuples of
      degree two;
    * ``loose_joint_count`` / ``ambiguity_factor`` — summed / multiplied
      over the pairwise tree paths between keyword tuples.
    """

    def __init__(
        self,
        data_graph: DataGraph,
        tuple_ids: frozenset[TupleId],
        keyword_tuples: dict[str, TupleId],
    ) -> None:
        self.data_graph = data_graph
        self.tuples = tuple_ids
        self.keyword_tuples = dict(keyword_tuples)
        self.covered_keywords = frozenset(keyword_tuples)
        # Computed on first metric access: rendering and identity don't
        # need the tree, so reconstructing a network (e.g. from a
        # parallel worker's portable answer) stays allocation-cheap.
        self._tree_cache: Optional[nx.Graph] = None
        self._paths: Optional[tuple[Connection, ...]] = None

    @property
    def _tree(self) -> nx.Graph:
        if self._tree_cache is None:
            self._tree_cache = self._spanning_tree()
        return self._tree_cache

    def _spanning_tree(self) -> nx.Graph:
        # The minimum-spanning-tree tie-break among equal-weight edges
        # follows the node order of ``simple``, so it is added sorted:
        # a subgraph view under half the graph's size iterates its node
        # *set*, whatever order it was induced over — an order that
        # depends on the hash seed, and a network's score on the size
        # of the whole graph.
        induced = self.data_graph.induced_subgraph(
            sorted(self.tuples, key=_sort_key)
        )
        simple = nx.Graph()
        simple.add_nodes_from(sorted(induced.nodes, key=_sort_key))
        for left, right, key, data in sorted(
            induced.edges(keys=True, data=True),
            key=lambda item: (str(item[0]), str(item[1]), item[2]),
        ):
            if not simple.has_edge(left, right):
                simple.add_edge(left, right, edge_key=key, edge_data=data)
        return nx.minimum_spanning_tree(simple)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def rdb_length(self) -> int:
        return self._tree.number_of_edges()

    @property
    def er_length(self) -> int:
        collapsed = 0
        for node in self._tree.nodes:
            if not self.data_graph.is_middle(node):
                continue
            neighbours = list(self._tree.neighbors(node))
            if len(neighbours) == 2 and not any(
                self.data_graph.is_middle(n) for n in neighbours
            ):
                collapsed += 1
        return self._tree.number_of_edges() - collapsed

    def keyword_pair_paths(self) -> tuple[Connection, ...]:
        """Tree paths between every pair of keyword tuples."""
        if self._paths is not None:
            return self._paths
        paths = []
        tids = sorted(set(self.keyword_tuples.values()), key=str)
        for left, right in combinations(tids, 2):
            node_path = nx.shortest_path(self._tree, left, right)
            steps = []
            for source, target in zip(node_path, node_path[1:]):
                data = self._tree.edges[source, target]
                steps.append(
                    TuplePathStep(
                        source, target, data["edge_key"], data["edge_data"]
                    )
                )
            if steps:
                paths.append(Connection(self.data_graph, steps))
        self._paths = tuple(paths)
        return self._paths

    def loose_joint_count(self) -> int:
        return sum(
            path.verdict().loose_joint_count for path in self.keyword_pair_paths()
        )

    def ambiguity_factor(self) -> int:
        factor = 1
        for path in self.keyword_pair_paths():
            factor *= ambiguity_module.ambiguity_factor(path)
        return factor

    def tuple_ids(self) -> tuple[TupleId, ...]:
        return tuple(sorted(self.tuples, key=str))

    def render(self) -> str:
        labels = []
        database = self.data_graph.database
        inverse: dict[TupleId, list[str]] = {}
        for keyword, tid in self.keyword_tuples.items():
            inverse.setdefault(tid, []).append(keyword)
        for tid in self.tuple_ids():
            record = database.tuple(tid)
            keywords = inverse.get(tid)
            if keywords:
                labels.append(f"{record.label}({','.join(sorted(keywords))})")
            else:
                labels.append(record.label)
        return "{" + ", ".join(labels) + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoiningNetwork):
            return NotImplemented
        return self.tuples == other.tuples and self.keyword_tuples == other.keyword_tuples

    def __hash__(self) -> int:
        return hash((self.tuples, tuple(sorted(self.keyword_tuples.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoiningNetwork({self.render()!r})"


def _keyword_map(
    matches: Sequence[KeywordMatch], tids: Sequence[TupleId]
) -> dict[TupleId, frozenset[str]]:
    """Map each tuple to the query keywords it contains."""
    result: dict[TupleId, set[str]] = {}
    for match in matches:
        for tid in match.tuple_ids:
            if tid in tids:
                result.setdefault(tid, set()).add(match.keyword)
    return {tid: frozenset(keywords) for tid, keywords in result.items()}


def find_connections(
    data_graph: DataGraph,
    matches: Sequence[KeywordMatch],
    limits: SearchLimits = SearchLimits(),
    include_single_tuples: bool = True,
    *,
    core: Optional[str] = None,
    cache: Optional[TraversalCache] = None,
) -> Iterator[Connection | SingleTupleAnswer]:
    """Enumerate path answers for a two-keyword query (AND semantics).

    Yields one :class:`Connection` per simple path between a tuple matching
    the first keyword and a tuple matching the second (shorter paths
    first per pair), plus :class:`SingleTupleAnswer` for tuples matching
    both keywords when ``include_single_tuples``.

    ``core`` selects the traversal kernel (``"csr"`` compiled integer
    kernels — the default — or the ``"reference"`` brute-force oracle).
    Answers and order are identical across cores, only the speed
    differs.  Pass a :class:`TraversalCache` to share the compiled CSR
    graph and its distance rows across calls — the engine passes its own.

    Raises :class:`~repro.errors.QueryError` unless exactly two keyword
    matches are supplied — use :func:`find_joining_networks` otherwise.
    """
    if len(matches) != 2:
        raise QueryError(
            "find_connections needs exactly two keywords",
            keywords=[m.keyword for m in matches],
        )
    core = resolve_core(core)
    if core != "reference" and cache is None:
        cache = TraversalCache(data_graph)
    first, second = matches
    if include_single_tuples:
        second_set = set(second.tuple_ids)
        both = [tid for tid in first.tuple_ids if tid in second_set]
        for tid in both:
            yield SingleTupleAnswer(
                data_graph, tid, frozenset((first.keyword, second.keyword))
            )
    for source in first.tuple_ids:
        for target in second.tuple_ids:
            if source == target:
                continue
            if core == "csr":
                paths = csr_enumerate_simple_paths(
                    data_graph,
                    source,
                    target,
                    limits.max_rdb_length,
                    max_paths=limits.max_paths_per_pair,
                    cache=cache,
                )
            else:
                paths = enumerate_simple_paths(
                    data_graph,
                    source,
                    target,
                    limits.max_rdb_length,
                    max_paths=limits.max_paths_per_pair,
                )
            for steps in paths:
                tids = [steps[0].source] + [s.target for s in steps]
                yield Connection(
                    data_graph, steps, _keyword_map(matches, tids)
                )


def find_joining_networks(
    data_graph: DataGraph,
    matches: Sequence[KeywordMatch],
    limits: SearchLimits = SearchLimits(),
    *,
    core: Optional[str] = None,
    cache: Optional[TraversalCache] = None,
) -> Iterator[JoiningNetwork]:
    """Enumerate joining networks for a query with any number of keywords.

    For every assignment of one match tuple per keyword, connected tuple
    sets containing the assigned tuples are enumerated (smaller first) and
    wrapped as :class:`JoiningNetwork`.  Distinct assignments may produce
    the same tuple set with different keyword bindings; both are yielded —
    deduplication by tuple set is the caller's choice.

    ``core`` / ``cache`` behave as in
    :func:`find_connections`; the cache pays off especially here because
    every keyword-tuple assignment shares its distance rows.
    """
    if not matches:
        raise QueryError("no keywords to search")
    if any(match.is_empty for match in matches):
        return
    core = resolve_core(core)
    if core != "reference" and cache is None:
        cache = TraversalCache(data_graph)
    seen: set[tuple[frozenset[TupleId], tuple[tuple[str, TupleId], ...]]] = set()
    assignments = product(*(match.tuple_ids for match in matches))
    for assignment in assignments:
        keyword_tuples = {
            match.keyword: tid for match, tid in zip(matches, assignment)
        }
        required = list(dict.fromkeys(assignment))
        if core == "csr":
            tuple_sets = csr_enumerate_joining_trees(
                data_graph,
                required,
                limits.max_tuples,
                max_results=limits.max_networks,
                cache=cache,
            )
        else:
            tuple_sets = enumerate_joining_trees(
                data_graph,
                required,
                limits.max_tuples,
                max_results=limits.max_networks,
            )
        for tuple_set in tuple_sets:
            key = (tuple_set, tuple(sorted(keyword_tuples.items())))
            if key in seen:
                continue
            seen.add(key)
            yield JoiningNetwork(data_graph, tuple_set, keyword_tuples)
