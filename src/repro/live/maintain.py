"""Incremental maintainers: patch derived structures from a changeset.

Given the :class:`~repro.live.changes.ChangeSet` of an applied batch,
these functions bring each derived structure of an engine up to date *in
place* instead of rebuilding it:

* :func:`apply_to_index` — drops postings of removed/updated tuples and
  (re-)indexes updated/added ones through the inverted index's
  incremental hooks; posting order stays identical to a fresh build.
* :func:`apply_to_traversal_cache` — patches the cache's compiled CSR
  graph in place (tombstone / append / per-row edge deltas).

The networkx multigraph is not maintained: it serves only the oracles,
and the engine drops it on every write
(:meth:`~repro.graph.data_graph.DataGraph.invalidate`) so the next
oracle-side read builds it from the patched database.

:func:`affected_tuples` computes the invalidation frontier for the
answer cache: the depth-labelled ball of node ints around a changeset's
structural seeds.  Answers are bounded objects — a connection has at most
``max_rdb_length`` edges, a joining network at most ``max_tuples``
tuples — so a changed edge can only create, destroy or reshape an answer
whose matched tuples lie within that many hops of it; everything farther
out keeps its cached answers (value changes and match-set changes are
caught separately by the cache's footprints and keyword fingerprints).
The ball is swept over the compiled CSR rows; nothing here imports
networkx.
"""

from __future__ import annotations

from repro.durable import fault
from repro.graph.fast_traversal import TraversalCache
from repro.live.changes import ChangeSet
from repro.relational.database import Database
from repro.relational.index import InvertedIndex

__all__ = [
    "apply_to_index",
    "apply_to_traversal_cache",
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
        index.reindex_tuple(tid, database.values(tid), before.get(tid))
    for tid in changeset.tuples_replaced:
        # Delete-then-reinsert: the tuple moved to the relation tail, so
        # its posting position must be re-derived.
        index.remove_tuple(tid, before.get(tid))
    # Added and replaced tuples are their stores' tails: they take
    # consecutive tail positions in store order, no relation rescanned.
    for rows in changeset.appended(database).values():
        index.append_tuples(rows)


def apply_to_traversal_cache(cache: TraversalCache, changeset: ChangeSet) -> None:
    """Patch the traversal cache's compiled CSR graph, when built, from
    the changeset's edge deltas (tombstone / append / per-row delta)
    rather than recompiling it."""
    cache.apply_changeset(changeset)


def affected_tuples(
    traversal_cache: TraversalCache, changeset: ChangeSet, radius: int
) -> dict[int, int]:
    """The nodes near a changeset's *structural* part — where a matched
    tuple's cached answers may have changed — labelled with their
    distance from it.

    One multi-source breadth-first sweep of the *patched* graph,
    ``radius`` levels out from the structural seeds (added tuples,
    endpoints of added/removed edges): ``{node int: hops to the nearest
    seed}`` (:meth:`FrozenGraph.ball <repro.graph.csr.FrozenGraph.ball>`).
    Removed tuples are no longer in the graph and do not appear — their
    former neighbours are seeds through the removed edges, and the
    answer cache drops their entries by footprint.  Why a bounded ball
    suffices: walk any answer the changeset created or destroyed from
    one of its matched tuples — the first changed edge on the way is
    reached over unchanged edges, and those all exist in the patched
    graph.

    The sweep runs on the compiled CSR rows (compiled now, from the
    patched database, when the cache held none) and never touches
    networkx.  Value-only updates do not appear here: the answer
    cache tests them against entry footprints.
    """
    seeds = changeset.structural_tuples()
    if not seeds:
        return {}
    frozen = traversal_cache.frozen()
    nodes = [node for tid in seeds if (node := frozen.node_of(tid)) is not None]
    return frozen.ball(sorted(nodes), radius)


def apply_changeset(
    changeset: ChangeSet,
    database: Database,
    index: InvertedIndex | None = None,
    traversal_cache: TraversalCache | None = None,
) -> None:
    """Apply one changeset to whichever derived structures are given."""
    if index is not None:
        apply_to_index(index, database, changeset)
    fault.maybe("live.maintain")
    if traversal_cache is not None:
        apply_to_traversal_cache(traversal_cache, changeset)
