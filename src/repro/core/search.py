"""Enumeration of keyword-search answers over the data graph.

Answers come in two shapes:

* :class:`~repro.core.connections.Connection` — a tuple *path* between two
  keyword tuples.  This is the paper's setting (all of its examples are
  two-keyword queries) and the default for queries with two keywords.
* :class:`JoiningNetwork` — a connected tuple *tree* covering one match
  tuple per keyword, for queries with three or more keywords.  A joining
  network aggregates the paper's per-path metrics over the tree paths
  between its keyword tuples; the tree comes from the compiled CSR rows
  of its tuples, so no query shape needs the networkx multigraph.

Both shapes expose the same ranking interface: ``rdb_length``,
``er_length``, ``loose_joint_count()``, ``ambiguity_factor()`` and
``covered_keywords``.  Enumeration is exhaustive within explicit bounds and
deterministic, so the reproduction tests can assert paper tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from repro.core import ambiguity as ambiguity_module
from repro.core.connections import Connection
from repro.core.matching import KeywordMatch
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import TuplePathStep
from repro.relational.database import TupleId

__all__ = [
    "SearchLimits",
    "SingleTupleAnswer",
    "JoiningNetwork",
    "find_connections",
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

    def shape_key(self) -> tuple:
        """Every single tuple has the same (empty) shape."""
        return ("tuple",)

    def tuple_ids(self) -> tuple[TupleId, ...]:
        return (self.tid,)

    def render(self) -> str:
        label = self.data_graph.database.label(self.tid)
        rendered = ",".join(sorted(self.covered_keywords))
        return f"{label}({rendered})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SingleTupleAnswer({self.render()!r})"


class JoiningNetwork:
    """A connected tuple tree covering one match tuple per keyword.

    The network stores a spanning tree of its tuple set, built from the
    compiled graph's rows (:meth:`~repro.graph.csr.FrozenGraph.spanning_tree`:
    minimum-edge, deterministic), and derives the paper's metrics from
    the tree paths between keyword tuples:

    * ``rdb_length`` — number of tree edges;
    * ``er_length`` — tree edges after collapsing interior middle tuples of
      degree two;
    * ``loose_joint_count`` / ``ambiguity_factor`` — summed / multiplied
      over the pairwise tree paths between keyword tuples.

    ``cache`` is the :class:`TraversalCache` the network was enumerated
    on; its data graph renders the network and its paths.
    """

    def __init__(
        self,
        cache: TraversalCache,
        tuple_ids: frozenset[TupleId],
        keyword_tuples: dict[str, TupleId],
    ) -> None:
        self.cache = cache
        self.tuples = tuple_ids
        self.keyword_tuples = dict(keyword_tuples)
        self.covered_keywords = frozenset(keyword_tuples)
        # Computed on first metric access: rendering and identity don't
        # need the tree, so reconstructing a network (e.g. from a
        # parallel worker's portable answer) stays allocation-cheap.
        self._tree_cache: Optional[dict[TupleId, list[TuplePathStep]]] = None
        self._paths: Optional[tuple[Connection, ...]] = None

    @property
    def _tree(self) -> dict[TupleId, list[TuplePathStep]]:
        """Tree adjacency: every member's incident tree edges, each as a
        step leaving that member."""
        if self._tree_cache is None:
            tree: dict[TupleId, list[TuplePathStep]] = {
                tid: [] for tid in self.tuples
            }
            for step in self.cache.frozen().spanning_tree(self.tuples):
                tree[step.source].append(step)
                tree[step.target].append(TuplePathStep(
                    step.target, step.source, step.edge_key, step.edge_data
                ))
            self._tree_cache = tree
        return self._tree_cache

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def rdb_length(self) -> int:
        return len(self.tuples) - 1

    @property
    def er_length(self) -> int:
        is_middle = self.cache.data_graph.is_middle
        collapsed = 0
        for node, steps in self._tree.items():
            if is_middle(node) and len(steps) == 2 and not any(
                is_middle(step.target) for step in steps
            ):
                collapsed += 1
        return self.rdb_length - collapsed

    def keyword_pair_paths(self) -> tuple[Connection, ...]:
        """Tree paths between every pair of keyword tuples."""
        if self._paths is not None:
            return self._paths
        tree = self._tree
        paths = []
        tids = sorted(set(self.keyword_tuples.values()), key=str)
        for left, right in combinations(tids, 2):
            # The one tree path: walk back from ``right`` over the steps
            # a search from ``left`` arrived by.
            arrived: dict[TupleId, Optional[TuplePathStep]] = {left: None}
            pending = [left]
            while pending:
                for step in tree[pending.pop()]:
                    if step.target not in arrived:
                        arrived[step.target] = step
                        pending.append(step.target)
            steps = []
            while (step := arrived[right]) is not None:
                steps.append(step)
                right = step.source
            steps.reverse()
            paths.append(Connection(self.cache, steps))
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

    def shape_key(self) -> tuple:
        """The canonical form of the labelled spanning tree the metrics
        read (:meth:`~repro.graph.csr.FrozenGraph.tree_shape`, keyword
        tuples marked), built without a step or a pair path: networks
        with equal keys have equal ``er_length`` and loose joints."""
        return ("tree", self.cache.frozen().tree_shape(
            self.tuples, set(self.keyword_tuples.values())
        ))

    def tuple_ids(self) -> tuple[TupleId, ...]:
        return tuple(sorted(self.tuples, key=str))

    def render(self) -> str:
        labels = []
        database = self.cache.data_graph.database
        inverse: dict[TupleId, list[str]] = {}
        for keyword, tid in self.keyword_tuples.items():
            inverse.setdefault(tid, []).append(keyword)
        for tid in self.tuple_ids():
            label = database.label(tid)
            keywords = inverse.get(tid)
            if keywords:
                labels.append(f"{label}({','.join(sorted(keywords))})")
            else:
                labels.append(label)
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
    members = set(tids)
    result: dict[TupleId, set[str]] = {}
    for match in matches:
        for tid in match.tuple_ids:
            if tid in members:
                result.setdefault(tid, set()).add(match.keyword)
    return {tid: frozenset(keywords) for tid, keywords in result.items()}


def find_connections(
    data_graph: DataGraph,
    matches: Sequence[KeywordMatch],
    limits: SearchLimits = SearchLimits(),
    include_single_tuples: bool = True,
    *,
    cache: Optional[TraversalCache] = None,
) -> Iterator[Connection | SingleTupleAnswer]:
    """Enumerate path answers for a two-keyword query (AND semantics).

    Yields one :class:`Connection` per simple path between a tuple matching
    the first keyword and a tuple matching the second (shorter paths
    first per pair), plus :class:`SingleTupleAnswer` for tuples matching
    both keywords when ``include_single_tuples``.

    The pairs run through the executor's pair source, so paths come from
    the compiled CSR kernel and every pair reads its rows through one
    :class:`~repro.graph.csr.QueryRows` view per call.  Pass a
    :class:`TraversalCache` to share the compiled graph and its held
    rows across calls.

    Raises :class:`~repro.errors.QueryError` unless exactly two keyword
    matches are supplied.
    """
    if len(matches) != 2:
        raise QueryError(
            "find_connections needs exactly two keywords",
            keywords=[m.keyword for m in matches],
        )
    from repro.core.executor import Executor
    from repro.core.plan import PairPaths

    if cache is None:
        cache = TraversalCache(data_graph)
    yield from Executor(cache)._iter_pair(
        matches, PairPaths(0, 1, include_single_tuples), limits
    )
