"""Bounded enumeration of paths and joining trees in the data graph.

Two enumeration shapes serve the search engines:

* :func:`enumerate_simple_paths` — every simple path between two tuples up
  to a length bound, in deterministic order.  Two-keyword queries (all of
  the paper's examples) are answered with these.
* :func:`enumerate_joining_trees` — every connected tuple set up to a size
  bound that contains a given set of *required* seed tuples; general
  multi-keyword queries reduce to this.

Both enumerations are exhaustive within their bounds and deterministic
(children are expanded in sorted order), which is what lets the tests assert
paper tables exactly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import SearchLimitError
from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId

__all__ = ["TuplePathStep", "enumerate_simple_paths", "enumerate_joining_trees"]


def _sort_key(tid: TupleId) -> tuple:
    return (tid.relation, tuple(str(part) for part in tid.key))


class TuplePathStep:
    """One edge of a tuple path: the edge data plus its two endpoints."""

    __slots__ = ("source", "target", "edge_key", "edge_data")

    def __init__(
        self, source: TupleId, target: TupleId, edge_key: str, edge_data: dict
    ) -> None:
        self.source = source
        self.target = target
        self.edge_key = edge_key
        self.edge_data = edge_data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TuplePathStep({self.source} -> {self.target} via {self.edge_key})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuplePathStep):
            return NotImplemented
        return (self.source, self.target, self.edge_key) == (
            other.source,
            other.target,
            other.edge_key,
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.edge_key))


def enumerate_simple_paths(
    data_graph: DataGraph,
    source: TupleId,
    target: TupleId,
    max_edges: int,
    max_paths: Optional[int] = None,
) -> Iterator[list[TuplePathStep]]:
    """Yield every simple tuple path from ``source`` to ``target``.

    Paths visit no tuple twice and have at most ``max_edges`` edges.  When
    several parallel edges join two tuples, one path is produced per edge.
    Shorter paths are yielded before longer ones.  ``max_paths`` caps the
    enumeration; exceeding it raises
    :class:`~repro.errors.SearchLimitError` so callers never silently
    truncate results.
    """
    graph = data_graph.graph
    if source not in graph or target not in graph:
        return
    if max_edges < 1:
        return

    produced = 0
    # Iterative deepening keeps the output ordered by length without
    # materialising everything; graphs here are small enough that the
    # repeated work is irrelevant next to determinism.
    for depth in range(1, max_edges + 1):
        stack: list[tuple[TupleId, list[TuplePathStep], frozenset[TupleId]]] = [
            (source, [], frozenset([source]))
        ]
        while stack:
            at, path, visited = stack.pop()
            if len(path) == depth:
                if at == target:
                    produced += 1
                    if max_paths is not None and produced > max_paths:
                        raise SearchLimitError(
                            "path enumeration exceeded budget",
                            max_paths=max_paths,
                            source=str(source),
                            target=str(target),
                        )
                    yield path
                continue
            if at == target and path:
                continue  # simple paths stop at the target
            expansions = sorted(
                (
                    (other, key, data)
                    for __, other, key, data in graph.edges(at, keys=True, data=True)
                    if other not in visited
                ),
                key=lambda item: (_sort_key(item[0]), item[1]),
                reverse=True,  # stack pops reverse the order back
            )
            for other, key, data in expansions:
                stack.append(
                    (
                        other,
                        path + [TuplePathStep(at, other, key, data)],
                        visited | {other},
                    )
                )


def enumerate_joining_trees(
    data_graph: DataGraph,
    required: Sequence[TupleId],
    max_tuples: int,
    max_results: Optional[int] = None,
) -> Iterator[frozenset[TupleId]]:
    """Yield connected tuple sets containing every ``required`` tuple.

    Results are tuple *sets* whose induced subgraph is connected, with at
    most ``max_tuples`` members, smaller sets first.  Supersets of already
    yielded sets are still yielded (minimality is the caller's concern —
    MTJNT filtering happens in :mod:`repro.baselines.discover`).

    The enumeration grows connected sets from the first required tuple and
    prunes branches that cannot absorb the remaining required tuples within
    the size budget (distance-based bound).
    """
    required = list(dict.fromkeys(required))
    if not required:
        return
    graph = data_graph.graph
    for tid in required:
        if tid not in graph:
            return

    import networkx as nx

    # Distance maps from each required tuple prune hopeless branches.
    distance_maps = []
    for tid in required:
        distance_maps.append(nx.shortest_path_length(graph, source=tid))
    for tid in required:
        if any(tid not in dmap for dmap in distance_maps):
            return  # some required pair is disconnected: no joining tree

    produced = 0
    seen: set[frozenset[TupleId]] = set()
    start = required[0]
    # Breadth-first over set sizes keeps "smaller first" exact.
    frontier: list[frozenset[TupleId]] = [frozenset([start])]
    required_set = frozenset(required)

    while frontier:
        next_frontier: set[frozenset[TupleId]] = set()
        for current in sorted(
            frontier, key=lambda s: sorted(_sort_key(t) for t in s)
        ):
            if required_set <= current:
                if current not in seen:
                    seen.add(current)
                    produced += 1
                    if max_results is not None and produced > max_results:
                        raise SearchLimitError(
                            "joining tree enumeration exceeded budget",
                            max_results=max_results,
                        )
                    yield current
            if len(current) >= max_tuples:
                continue
            missing = required_set - current
            budget = max_tuples - len(current)
            if missing:
                # Each missing tuple must be reachable within the remaining
                # budget from at least one member of the current set.
                feasible = True
                for index, tid in enumerate(required):
                    if tid not in missing:
                        continue
                    dmap = distance_maps[index]
                    best = min((dmap.get(member, 1 << 30) for member in current))
                    if best > budget:
                        feasible = False
                        break
                if not feasible:
                    continue
            neighbours: set[TupleId] = set()
            for member in current:
                for other in graph.neighbors(member):
                    if other not in current:
                        neighbours.add(other)
            for other in sorted(neighbours, key=_sort_key):
                next_frontier.add(current | {other})
        frontier = list(next_frontier)
