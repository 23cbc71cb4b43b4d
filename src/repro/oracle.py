"""The differential oracle: the paper's answers from the networkx kernels.

:func:`search` answers a query the way a freshly built engine answers a
cache miss — match, plan, execute, rank, cut — except that every pair's
paths and every assignment's joining trees come from the brute-force
enumerations in :mod:`repro.graph.traversal`, which implement the
definitions of a connection and a joining network literally on the
networkx multigraph.  It plans statically and prefetches no distance
rows, so which answers it finds, in which order and where a budget stops
it do not depend on the CSR kernels the engine serves with (a joining
network is still scored on
:meth:`~repro.graph.csr.FrozenGraph.spanning_tree`).

``import repro`` does not import this module; it imports networkx only
when it walks the multigraph.
"""

from __future__ import annotations

from typing import Optional

from repro.core.executor import Executor, SearchResult
from repro.core.matching import match_keywords, parse_query
from repro.core.plan import plan_query
from repro.core.ranking import ClosenessRanker, Ranker
from repro.core.search import SearchLimits
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.relational.database import Database
from repro.relational.index import InvertedIndex

__all__ = ["search"]


class _OracleExecutor(Executor):
    """:class:`Executor` whose enumeration streams walk the multigraph."""

    def _prefetch_distances(self, plan, limits) -> None:
        pass

    def _path_stream(self, source, target, limits):
        return enumerate_simple_paths(
            self.data_graph, source, target, limits.max_rdb_length,
            max_paths=limits.max_paths_per_pair,
        )

    def _tree_stream(self, required, limits):
        return enumerate_joining_trees(
            self.data_graph, list(required), limits.max_tuples,
            max_results=limits.max_networks,
        )


def search(
    database: Database,
    query: str,
    *,
    ranker: Optional[Ranker] = None,
    limits: Optional[SearchLimits] = None,
    top_k: Optional[int] = None,
    semantics: str = "and",
    pushdown: Optional[bool] = None,
) -> list[SearchResult]:
    """Answer ``query`` over ``database``, best answers first: what
    :meth:`KeywordSearchEngine.search
    <repro.core.engine.KeywordSearchEngine.search>` returns with the same
    options, or the same :class:`~repro.errors.SearchLimitError` at the
    same budget point.  Builds the data graph, index and traversal cache
    anew on every call."""
    matches = match_keywords(InvertedIndex(database), parse_query(query))
    plan = plan_query(matches, semantics=semantics, top_k=top_k)
    executor = _OracleExecutor(TraversalCache(DataGraph(database)), adaptive=False)
    return executor.run(
        plan, ranker or ClosenessRanker(), limits or SearchLimits(),
        pushdown=pushdown,
    )
