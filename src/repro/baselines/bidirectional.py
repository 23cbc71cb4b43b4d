"""Bidirectional expansion search, in the spirit of Kacholia et al. (2005).

Pure backward expansion (BANKS) wastes work when a keyword matches many
tuples or sits behind a hub: every iterator floods the graph independently.
Bidirectional search adds **spreading activation**: each keyword origin
starts with activation 1 split over its match tuples; expansion always
grows the most activated frontier node, and activation decays by a factor
``mu`` per edge.  Nodes touched by every keyword's activation become
answer roots, exactly as in BANKS, but exploration order now prefers
regions of the graph that several keywords point at, so good answers
surface after far fewer expansions.

This implementation keeps the answer *semantics* identical to
:class:`~repro.baselines.banks.BanksSearch` (rooted trees, sum-of-paths
score, lower is better) so the two strategies are directly comparable;
only the expansion policy differs, and
:attr:`BidirectionalSearch.expansions` exposes the work counter.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from repro.baselines.banks import BanksAnswer, BanksSearch
from repro.core.matching import KeywordMatch
from repro.errors import QueryError
from repro.relational.database import TupleId

__all__ = ["BidirectionalSearch"]


class BidirectionalSearch:
    """Activation-prioritised variant of backward expanding search."""

    def __init__(
        self,
        data_graph,
        decay: float = 0.5,
        backward_weight_base: float = 1.0,
    ) -> None:
        if not 0.0 < decay < 1.0:
            raise QueryError("activation decay must lie in (0, 1)", decay=decay)
        self.decay = decay
        # Reuse BANKS' directed graph and weights so scores are comparable.
        self._banks = BanksSearch(
            data_graph, backward_weight_base=backward_weight_base
        )
        self.expansions = 0

    @property
    def directed_graph(self):
        return self._banks.directed_graph

    def search(
        self,
        matches: Sequence[KeywordMatch],
        top_k: int = 10,
        max_distance: float = 10.0,
        expansion_budget: Optional[int] = None,
    ) -> list[BanksAnswer]:
        """Top-k answers, best first.

        ``expansion_budget`` caps the number of node expansions (the point
        of the algorithm is to need fewer of them); ``None`` runs to
        completion, which yields exactly BANKS' answer set.
        """
        if not matches:
            raise QueryError("no keywords to search")
        if any(match.is_empty for match in matches):
            return []

        reversed_graph = self.directed_graph.reverse(copy=False)
        keyword_count = len(matches)
        distances: list[dict[TupleId, float]] = [dict() for __ in matches]
        predecessors: list[dict[TupleId, TupleId]] = [dict() for __ in matches]
        activation: list[dict[TupleId, float]] = [dict() for __ in matches]

        # Max-heap on combined activation (negated), tie-broken by distance.
        heap: list[tuple[float, float, str, int, TupleId]] = []
        for index, match in enumerate(matches):
            share = 1.0 / max(1, len(match.tuple_ids))
            for tid in match.tuple_ids:
                distances[index][tid] = 0.0
                activation[index][tid] = share
                heapq.heappush(heap, (-share, 0.0, str(tid), index, tid))

        self.expansions = 0
        while heap:
            if expansion_budget is not None and self.expansions >= expansion_budget:
                break
            neg_act, d, __, index, node = heapq.heappop(heap)
            if d > distances[index].get(node, math.inf):
                continue  # stale entry
            if -neg_act < activation[index].get(node, 0.0):
                continue  # stale activation
            self.expansions += 1
            node_activation = activation[index][node]
            for __, neighbour, data in reversed_graph.edges(node, data=True):
                weight = data["weight"]
                candidate = d + weight
                spread = node_activation * self.decay
                better_distance = candidate < distances[index].get(
                    neighbour, math.inf
                )
                better_activation = spread > activation[index].get(neighbour, 0.0)
                if candidate > max_distance:
                    continue
                if better_distance:
                    distances[index][neighbour] = candidate
                    predecessors[index][neighbour] = node
                if better_activation:
                    activation[index][neighbour] = spread
                if better_distance or better_activation:
                    heapq.heappush(
                        heap,
                        (
                            -activation[index][neighbour],
                            distances[index][neighbour],
                            str(neighbour),
                            index,
                            neighbour,
                        ),
                    )

        answers = []
        for node in self.directed_graph.nodes:
            if not all(node in dist for dist in distances):
                continue
            total = sum(dist[node] for dist in distances)
            paths = []
            for match, dist, pred in zip(matches, distances, predecessors):
                path = [node]
                while path[-1] in pred:
                    path.append(pred[path[-1]])
                paths.append((match.keyword, tuple(path)))
            answers.append(BanksAnswer(root=node, paths=tuple(paths), score=total))

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
