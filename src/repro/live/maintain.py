"""Incremental maintainers: patch derived structures from a changeset.

Given the :class:`~repro.live.changes.ChangeSet` of an applied batch,
these functions bring each derived structure of an engine up to date *in
place* instead of rebuilding it:

* :func:`apply_to_index` — drops postings of removed/updated tuples and
  (re-)indexes updated/added ones through the inverted index's
  incremental hooks; posting order stays identical to a fresh build.
* :func:`apply_to_graph` — removes/adds nodes and FK edges on the data
  graph exactly as construction would, and (via the patch methods)
  invalidates the cached conceptual view and bumps the graph version.
* :func:`apply_to_traversal_cache` — patches the cache's compiled CSR
  graph in place (tombstone / append / per-row edge deltas).

:func:`affected_tuples` computes the invalidation frontier for the
answer cache: the depth-labelled ball around a changeset's structural
seeds.  Answers are bounded objects — a connection has at most
``max_rdb_length`` edges, a joining network at most ``max_tuples``
tuples — so a changed edge can only create, destroy or reshape an answer
whose matched tuples lie within that many hops of it; everything farther
out keeps its cached answers (value changes and match-set changes are
caught separately by the cache's footprints and keyword fingerprints).
"""

from __future__ import annotations

from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache
from repro.live.changes import ChangeSet
from repro.relational.database import Database, TupleId
from repro.relational.index import InvertedIndex

__all__ = [
    "apply_to_index",
    "apply_to_graph",
    "apply_to_traversal_cache",
    "apply_to_shard_plan",
    "affected_tuples",
    "apply_changeset",
]


def apply_to_index(
    index: InvertedIndex, database: Database, changeset: ChangeSet
) -> None:
    """Patch the inverted index in place from a changeset."""
    before = changeset.before  # what the index posted them under
    for tid in changeset.tuples_removed:
        index.remove_tuple(tid, before.get(tid))
    for tid in changeset.tuples_updated:
        # In-place value update: the store position is unchanged, so the
        # posting position survives the remove/re-add without a scan.
        index.reindex_tuple(database.tuple(tid), before.get(tid))
    for tid in changeset.tuples_replaced:
        # Delete-then-reinsert: the tuple moved to the relation tail, so
        # its posting position must be re-derived.
        index.remove_tuple(tid, before.get(tid))
    # Added and replaced tuples are their stores' tails: they take
    # consecutive tail positions in store order, no relation rescanned.
    for records in changeset.appended(database).values():
        index.append_tuples(records)


def apply_to_graph(
    data_graph: DataGraph, database: Database, changeset: ChangeSet
) -> None:
    """Patch the data graph in place from a changeset.

    Edges are removed before their endpoints disappear and added after
    both endpoints exist, so the graph never holds a dangling edge.
    """
    for edge in changeset.edges_removed:
        data_graph.remove_fk_edge(
            edge.referencing, edge.referenced, edge.foreign_key.name
        )
    for tid in changeset.tuples_removed:
        data_graph.remove_tuple_node(tid)
    for tid in changeset.tuples_added:
        data_graph.add_tuple_node(database.tuple(tid))
    for edge in changeset.edges_added:
        data_graph.add_fk_edge(edge.referencing, edge.referenced, edge.foreign_key)


def apply_to_traversal_cache(cache: TraversalCache, changeset: ChangeSet) -> None:
    """Patch the traversal cache's compiled CSR graph, when built, from
    the changeset's edge deltas (tombstone / append / per-row delta)
    rather than recompiling it."""
    cache.apply_changeset(changeset)


def apply_to_shard_plan(shard_plan, changeset: ChangeSet) -> None:
    """Re-route only the shards a changeset touched.

    Shard assignment is a pure function of connected components, so
    value-only updates change nothing; structural changes reassign
    exactly the affected components (a merged component keeps its lowest
    previous shard, a brand-new one lands on the lightest) and drop only
    the touched shards' extracted graphs.  Run after
    :func:`apply_to_traversal_cache` — the plan reads the *patched*
    compiled graph's components.
    """
    shard_plan.apply_changeset(changeset)


def _ball(seeds, neighbours, reach: int) -> dict:
    """Breadth-first depth labels of everything within ``reach`` edges
    of ``seeds``: ``{node: depth}``, seeds at depth 0."""
    depth_of = dict.fromkeys(seeds, 0)
    frontier = list(depth_of)
    for depth in range(1, reach + 1):
        if not frontier:
            break
        reached = []
        for at in frontier:
            for other in neighbours(at):
                if other not in depth_of:
                    depth_of[other] = depth
                    reached.append(other)
        frontier = reached
    return depth_of


def affected_tuples(
    traversal_cache: TraversalCache, changeset: ChangeSet, reach: int
) -> dict[TupleId, int]:
    """Tuples whose cached answers a changeset's *structural* part may
    have invalidated, labelled with their distance from it.

    One breadth-first sweep of the *patched* graph, ``reach`` levels out
    from the structural seeds (added tuples, endpoints of added/removed
    edges): ``{tuple: hops to the nearest seed}``.  Removed tuples are
    no longer in the graph and report depth 0; their former neighbours
    are seeds through the removed edges.  Why a bounded ball suffices:
    walk any answer the changeset created or destroyed from one of its
    matched tuples — the first changed edge on the way is reached over
    unchanged edges, and those all exist in the patched graph.

    The sweep runs on the compiled CSR rows when the cache holds them
    (never touching networkx) and over the data graph's adjacency
    otherwise.  Value-only updates do not appear here: the answer
    cache tests them against entry footprints.
    """
    seeds = changeset.structural_tuples()
    if not seeds:
        return {}
    frozen = traversal_cache.compiled()
    if frozen is not None:
        nodes = [
            node
            for tid in seeds
            if (node := frozen.node_of(tid)) is not None
        ]
        depth_of = _ball(nodes, frozen.neighbour_row, reach)
        affected = dict(zip(frozen.tids(depth_of), depth_of.values()))
    else:
        graph = traversal_cache.data_graph.graph
        affected = _ball(
            [tid for tid in seeds if tid in graph],
            graph.neighbors,
            reach,
        )
    for tid in changeset.tuples_removed:
        affected[tid] = 0
    return affected


def apply_changeset(
    changeset: ChangeSet,
    database: Database,
    index: InvertedIndex | None = None,
    data_graph: DataGraph | None = None,
    traversal_cache: TraversalCache | None = None,
    shard_plan=None,
) -> None:
    """Apply one changeset to whichever derived structures are given.

    Order matters: the shard plan goes last (it reads the patched
    compiled graph's components).
    """
    if index is not None:
        apply_to_index(index, database, changeset)
    if data_graph is not None:
        apply_to_graph(data_graph, database, changeset)
    if traversal_cache is not None:
        apply_to_traversal_cache(traversal_cache, changeset)
    if shard_plan is not None:
        apply_to_shard_plan(shard_plan, changeset)
