"""DISCOVER-style keyword search: candidate networks and MTJNTs.

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

The module also implements schema-level **candidate network** generation
(join trees of keyword-annotated tuple sets) used by the DISCOVER
evaluation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import networkx as nx

from repro.core.connections import Connection
from repro.core.matching import KeywordMatch
from repro.core.search import SearchLimits
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.schema_graph import SchemaGraph
from repro.graph.traversal import enumerate_joining_trees
from repro.relational.database import TupleId

__all__ = [
    "induced_subgraph",
    "is_connected_set",
    "is_total",
    "is_mtjnt",
    "find_mtjnts",
    "lost_connections",
    "CandidateNetwork",
    "candidate_networks",
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


# ----------------------------------------------------------------------
# schema-level candidate networks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateNetwork:
    """A join tree of keyword-annotated tuple sets.

    ``nodes`` are ``(node_id, relation, keywords)`` triples — ``keywords``
    is the (possibly empty) set of query keywords the tuple set must
    contain (empty = a *free* tuple set).  ``edges`` connect node ids and
    each corresponds to one schema foreign key.
    """

    nodes: tuple[tuple[int, str, frozenset[str]], ...]
    edges: tuple[tuple[int, int, str], ...]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def covered_keywords(self) -> frozenset[str]:
        covered: set[str] = set()
        for __, __, keywords in self.nodes:
            covered.update(keywords)
        return frozenset(covered)

    def describe(self) -> str:
        parts = []
        for node_id, relation, keywords in self.nodes:
            rendered = ",".join(sorted(keywords)) if keywords else "free"
            parts.append(f"{node_id}:{relation}^{{{rendered}}}")
        edges = ", ".join(f"{a}-{b}" for a, b, __ in self.edges)
        return " | ".join((" ".join(parts), edges)) if edges else " ".join(parts)


def candidate_networks(
    schema_graph: SchemaGraph,
    keyword_relations: dict[str, frozenset[str]],
    max_size: int,
) -> list[CandidateNetwork]:
    """Enumerate candidate networks up to ``max_size`` tuple sets.

    ``keyword_relations`` maps each keyword to the relations whose tuples
    may contain it (from the index).  Networks are trees over tuple-set
    nodes where

    * each non-free node carries a non-empty keyword set drawn from the
      keywords its relation can contain,
    * every leaf is non-free (DISCOVER's pruning rule — a free leaf could
      be removed, so no evaluation of it can be minimal),
    * all query keywords are covered.

    Networks are deduplicated up to isomorphism of their labelled trees.
    """
    keywords = sorted(keyword_relations)
    if not keywords:
        raise QueryError("no keywords for candidate network generation")

    results: list[CandidateNetwork] = []
    seen: set[frozenset] = set()

    def node_labels(relation: str) -> list[frozenset[str]]:
        possible = [
            keyword
            for keyword in keywords
            if relation in keyword_relations[keyword]
        ]
        labels: list[frozenset[str]] = [frozenset()]
        # Non-empty subsets of the keywords this relation can contain.
        for mask in range(1, 1 << len(possible)):
            labels.append(
                frozenset(
                    keyword
                    for position, keyword in enumerate(possible)
                    if mask & (1 << position)
                )
            )
        return labels

    def canonical(nodes, edges) -> frozenset:
        # Multiset of (relation, keywords) per node plus labelled edges in
        # canonical order — sufficient to dedupe trees of this size.
        rendered_nodes = {nid: (relation, keywords) for nid, relation, keywords in nodes}
        canon_edges = frozenset(
            (min_max := tuple(sorted((a, b))), fk, rendered_nodes[min_max[0]],
             rendered_nodes[min_max[1]])
            for a, b, fk in edges
        )
        return frozenset((frozenset(rendered_nodes.values()), canon_edges))

    def grow(nodes: list, edges: list, covered: frozenset[str]) -> None:
        if covered == frozenset(keywords):
            leaves_ok = True
            if len(nodes) > 1:
                degree: dict[int, int] = {nid: 0 for nid, __, __ in nodes}
                for a, b, __ in edges:
                    degree[a] += 1
                    degree[b] += 1
                for nid, __, node_keywords in nodes:
                    if degree[nid] <= 1 and not node_keywords:
                        leaves_ok = False
                        break
            if leaves_ok:
                key = canonical(nodes, edges)
                if key not in seen:
                    seen.add(key)
                    results.append(
                        CandidateNetwork(tuple(nodes), tuple(edges))
                    )
        if len(nodes) >= max_size:
            return
        for nid, relation, __ in list(nodes):
            for other_relation, fk in sorted(
                schema_graph.neighbours(relation), key=lambda p: (p[0], p[1].name)
            ):
                for label in node_labels(other_relation):
                    if label and label <= covered:
                        continue  # adds nothing new; avoids blowup
                    new_id = len(nodes)
                    grow(
                        nodes + [(new_id, other_relation, label)],
                        edges + [(nid, new_id, fk.name)],
                        covered | label,
                    )

    start_relations = sorted(
        {relation for relations in keyword_relations.values() for relation in relations}
    )
    for relation in start_relations:
        for label in node_labels(relation):
            if not label:
                continue
            grow([(0, relation, label)], [], frozenset(label))

    results.sort(key=lambda cn: (cn.size, cn.describe()))
    return results
