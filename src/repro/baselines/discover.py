"""DISCOVER-style keyword search: MTJNT semantics.

DISCOVER (Hristidis & Papakonstantinou, VLDB 2002) answers a keyword query
with **Minimal Total Joining Networks of Tuples**:

* *joining network* — a connected set of tuples (joined pairwise through
  foreign keys);
* *total* — every query keyword appears in at least one tuple of the
  network;
* *minimal* — no tuple can be removed such that the rest is still a total
  joining network.

Minimality is defined over the **induced** join graph of the tuple set, not
over the path that produced it: a network may be non-minimal because two of
its tuples join directly even though the generating path went around.  This
is precisely what the paper exploits — for the query ``Smith XML`` the
connections 3, 4, 6 and 7 of its Table 2 are total joining networks but not
minimal, so MTJNT semantics loses them (:func:`lost_connections` checks the
claim mechanically).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import networkx as nx

from repro.core.connections import Connection
from repro.core.matching import KeywordMatch
from repro.core.search import SearchLimits
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import enumerate_joining_trees
from repro.relational.database import TupleId

__all__ = [
    "induced_subgraph",
    "is_connected_set",
    "is_total",
    "is_mtjnt",
    "find_mtjnts",
    "lost_connections",
]


def induced_subgraph(
    data_graph: DataGraph, tids: Iterable[TupleId]
) -> nx.MultiGraph:
    """Subgraph induced on a tuple set, *including* all stored edges.

    This is the structure MTJNT minimality is defined over: a tuple set
    may be connected through edges that are not on the path that
    produced it.
    """
    return data_graph.graph.subgraph(list(tids))


def is_connected_set(data_graph: DataGraph, tids: Iterable[TupleId]) -> bool:
    """True when the induced subgraph on ``tids`` is connected."""
    tids = list(tids)
    if not tids:
        return False
    subgraph = induced_subgraph(data_graph, tids)
    if subgraph.number_of_nodes() != len(set(tids)):
        return False
    return nx.is_connected(nx.Graph(subgraph))


def _keyword_cover(
    tuple_ids: Iterable[TupleId], matches: Sequence[KeywordMatch]
) -> dict[str, set[TupleId]]:
    """Which tuples of the set cover which keyword."""
    members = set(tuple_ids)
    cover: dict[str, set[TupleId]] = {}
    for match in matches:
        cover[match.keyword] = members.intersection(match.tuple_ids)
    return cover


def is_total(
    tuple_ids: Iterable[TupleId], matches: Sequence[KeywordMatch]
) -> bool:
    """True when every keyword occurs in at least one tuple of the set."""
    cover = _keyword_cover(tuple_ids, matches)
    return all(cover[match.keyword] for match in matches)


def is_mtjnt(
    data_graph: DataGraph,
    tuple_ids: Iterable[TupleId],
    matches: Sequence[KeywordMatch],
) -> bool:
    """Exact MTJNT test: connected, total, and single-removal minimal.

    Removing any one tuple must break connectivity (of the induced join
    graph) or totality.  Checking single removals is sufficient: if a
    proper subset were a total joining network, greedily re-adding tuples
    shows some single tuple of the original is removable.
    """
    members = set(tuple_ids)
    if not members:
        return False
    if not is_connected_set(data_graph, members):
        return False
    if not is_total(members, matches):
        return False
    if len(members) == 1:
        return True
    for candidate in members:
        rest = members - {candidate}
        if is_connected_set(data_graph, rest) and is_total(rest, matches):
            return False
    return True


def find_mtjnts(
    data_graph: DataGraph,
    matches: Sequence[KeywordMatch],
    limits: SearchLimits = SearchLimits(),
) -> list[frozenset[TupleId]]:
    """All MTJNTs with at most ``limits.max_tuples`` tuples.

    Exhaustive within the size bound and deterministic (sorted output).
    """
    if not matches:
        raise QueryError("no keywords to search")
    if any(match.is_empty for match in matches):
        return []
    results: set[frozenset[TupleId]] = set()
    seen: set[frozenset[TupleId]] = set()
    for assignment in product(*(match.tuple_ids for match in matches)):
        required = list(dict.fromkeys(assignment))
        for tuple_set in enumerate_joining_trees(
            data_graph, required, limits.max_tuples, max_results=limits.max_networks
        ):
            if tuple_set in seen:
                continue
            seen.add(tuple_set)
            if is_mtjnt(data_graph, tuple_set, matches):
                results.add(tuple_set)
    return sorted(results, key=lambda s: (len(s), sorted(str(t) for t in s)))


def lost_connections(
    data_graph: DataGraph,
    connections: Iterable[Connection],
    matches: Sequence[KeywordMatch],
) -> list[Connection]:
    """Connections whose tuple sets MTJNT semantics would not return.

    A connection is *lost* when its tuple set is not an MTJNT — either
    non-minimal (a smaller total joining network hides inside) or, for
    completeness, not total.  This mechanises the paper's §3 claim.
    """
    return [
        connection
        for connection in connections
        if not is_mtjnt(data_graph, connection.tuple_ids(), matches)
    ]
