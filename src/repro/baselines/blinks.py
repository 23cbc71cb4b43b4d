"""BLINKS-style indexed keyword search (He, Wang, Yang, Yu — SIGMOD 2007).

BLINKS accelerates BANKS-style search with a **bi-level index**: the graph
is partitioned into blocks, and for each block the index precomputes the
distance from every node to every *keyword* (in the original paper, to
every node/keyword of the block plus block-level summaries).  At query
time, the search consults the index instead of re-running single-source
expansions from scratch.

This implementation keeps the part that matters for comparisons here — a
**keyword-distance index** precomputed per indexed term:

``KeywordDistanceIndex``
    for each indexed keyword (or a chosen vocabulary subset), a map
    ``node -> (distance, successor)`` over the same weighted directed graph
    BANKS uses.  Building it is expensive; queries against indexed
    keywords become a linear scan over candidate roots with O(1) distance
    lookups — no Dijkstra at query time.

``BlinksSearch``
    answers queries whose keywords are indexed, returning exactly the same
    answer trees as :class:`~repro.baselines.banks.BanksSearch` (verified
    by tests), at a different build/query cost trade-off.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Optional, Sequence

from repro.baselines.banks import BanksAnswer, BanksSearch
from repro.core.matching import KeywordMatch
from repro.errors import QueryError
from repro.graph.data_graph import DataGraph
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex

__all__ = ["KeywordDistanceIndex", "BlinksSearch"]


class KeywordDistanceIndex:
    """Precomputed node-to-keyword distances over the BANKS graph.

    ``max_distance`` bounds the precomputation radius (nodes farther from
    every match tuple are simply absent from the map, exactly like BANKS'
    expansion cut-off).
    """

    def __init__(
        self,
        banks: BanksSearch,
        inverted_index: InvertedIndex,
        keywords: Optional[Iterable[str]] = None,
        max_distance: float = 10.0,
    ) -> None:
        self._banks = banks
        self._inverted = inverted_index
        self.max_distance = max_distance
        self._distances: dict[str, dict[TupleId, float]] = {}
        self._successors: dict[str, dict[TupleId, TupleId]] = {}
        if keywords is None:
            keywords = inverted_index.vocabulary()
        for keyword in keywords:
            self.index_keyword(keyword)

    def index_keyword(self, keyword: str) -> None:
        """(Re)build the distance map of one keyword."""
        keyword = keyword.strip().lower()
        sources = self._inverted.matching_tuples(keyword)
        distances: dict[TupleId, float] = {}
        successors: dict[TupleId, TupleId] = {}
        reversed_graph = self._banks.directed_graph.reverse(copy=False)
        heap: list[tuple[float, str, TupleId]] = []
        for tid in sources:
            distances[tid] = 0.0
            heapq.heappush(heap, (0.0, str(tid), tid))
        while heap:
            d, __, node = heapq.heappop(heap)
            if d > distances.get(node, math.inf):
                continue
            for __, neighbour, data in reversed_graph.edges(node, data=True):
                candidate = d + data["weight"]
                if candidate <= self.max_distance and candidate < distances.get(
                    neighbour, math.inf
                ):
                    distances[neighbour] = candidate
                    successors[neighbour] = node
                    heapq.heappush(heap, (candidate, str(neighbour), neighbour))
        self._distances[keyword] = distances
        self._successors[keyword] = successors

    def is_indexed(self, keyword: str) -> bool:
        return keyword.strip().lower() in self._distances

    def distance(self, keyword: str, tid: TupleId) -> float:
        """Distance from ``tid`` to the nearest match of ``keyword``."""
        return self._distances.get(keyword.strip().lower(), {}).get(
            tid, math.inf
        )

    def path(self, keyword: str, tid: TupleId) -> tuple[TupleId, ...]:
        """The stored shortest path from ``tid`` to the keyword's match."""
        keyword = keyword.strip().lower()
        successors = self._successors.get(keyword, {})
        path = [tid]
        while path[-1] in successors:
            path.append(successors[path[-1]])
        return tuple(path)

    def indexed_keywords(self) -> tuple[str, ...]:
        return tuple(sorted(self._distances))

    def size(self) -> int:
        """Total number of stored (keyword, node) distance entries."""
        return sum(len(d) for d in self._distances.values())


class BlinksSearch:
    """Index-backed keyword search with BANKS answer semantics."""

    def __init__(
        self,
        data_graph: DataGraph,
        inverted_index: InvertedIndex,
        keywords: Optional[Iterable[str]] = None,
        max_distance: float = 10.0,
        backward_weight_base: float = 1.0,
    ) -> None:
        self._banks = BanksSearch(
            data_graph, backward_weight_base=backward_weight_base
        )
        self.index = KeywordDistanceIndex(
            self._banks,
            inverted_index,
            keywords=keywords,
            max_distance=max_distance,
        )

    @property
    def directed_graph(self):
        return self._banks.directed_graph

    def search(
        self, matches: Sequence[KeywordMatch], top_k: int = 10
    ) -> list[BanksAnswer]:
        """Top-k answer trees, best first, using only index lookups.

        Keywords missing from the index are indexed on the fly (the
        BLINKS fallback of touching the graph once), so results never
        silently degrade.
        """
        if not matches:
            raise QueryError("no keywords to search")
        if any(match.is_empty for match in matches):
            return []

        keywords = []
        for match in matches:
            keyword = match.keyword.strip().lower()
            keywords.append(keyword)
            if not self.index.is_indexed(keyword):
                self.index.index_keyword(keyword)

        answers = []
        for node in self.directed_graph.nodes:
            total = 0.0
            reachable = True
            for keyword in keywords:
                distance = self.index.distance(keyword, node)
                if math.isinf(distance):
                    reachable = False
                    break
                total += distance
            if not reachable:
                continue
            paths = tuple(
                (match.keyword, self.index.path(keyword, node))
                for match, keyword in zip(matches, keywords)
            )
            answers.append(BanksAnswer(root=node, paths=paths, score=total))

        answers.sort(key=lambda a: (a.score, str(a.root)))
        deduped: list[BanksAnswer] = []
        seen: set[frozenset[TupleId]] = set()
        for answer in answers:
            members = frozenset(answer.tuple_ids())
            if members in seen:
                continue
            seen.add(members)
            deduped.append(answer)
            if len(deduped) >= top_k:
                break
        return deduped
