"""Data graph: tuples as nodes, foreign-key references as edges.

This is the graph BANKS-style systems search over.  Nodes are
:class:`~repro.relational.database.TupleId`; each stored foreign-key
reference contributes one undirected edge carrying:

``foreign_key``
    the :class:`~repro.relational.schema.ForeignKey` behind the edge;
``referencing``
    the :class:`TupleId` on the FK's source side — this orients the edge
    semantically and determines its cardinality when read in a direction.

The *conceptual* view (:meth:`DataGraph.conceptual_graph`) removes tuples of
middle relations and reconnects their neighbours directly with an ``N:M``
edge that remembers the middle tuple.  The paper's ER connection length is
the number of edges of a connection in this view.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.er.cardinality import Cardinality
from repro.errors import PathError
from repro.relational.database import Database, Tuple, TupleId
from repro.relational.schema import ForeignKey

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["DataGraph", "build_tuple_graph"]


def build_tuple_graph(database: Database) -> nx.MultiGraph:
    """Construct the tuple-level multigraph of one database instance.

    Node and edge insertion order is part of the engine's determinism
    contract (multi-edge iteration follows it), so every materialisation
    goes through this one function; the edges are
    :meth:`Database.references`, the same iterator the CSR compile
    reads when no multigraph exists.
    """
    import networkx as nx

    graph = nx.MultiGraph()
    for record in database.all_tuples():
        graph.add_node(record.tid, relation=record.relation)
    for fk in database.schema.foreign_keys:
        for record, target in database.references(fk):
            graph.add_edge(
                record.tid,
                target.tid,
                key=fk.name,
                foreign_key=fk,
                referencing=record.tid,
            )
    return graph


class DataGraph:
    """Tuple-level graph of a database instance.

    The networkx multigraph builds on first :attr:`graph` access: the
    CSR kernels compile, answer path queries, patch and save without
    it (or networkx); the reference core, joining-network metrics and
    instance-level ambiguity trigger the :func:`build_tuple_graph` pass.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._materialized: Optional[nx.MultiGraph] = None
        self._conceptual: Optional[nx.MultiGraph] = None
        #: Monotonically increasing mutation stamp.  Every structural
        #: change (node/edge patch, cache invalidation) bumps it, so
        #: callers holding a derived view can detect staleness.
        self.version = 0

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop cached derived views (the conceptual graph) and bump
        :attr:`version`.

        Call after mutating the graph (or the underlying database) so a
        stale cached conceptual view can never be served.  The patching
        methods below call it themselves.
        """
        self._conceptual = None
        self.version += 1

    # Unmaterialised, the patch methods only bump :attr:`version`: the
    # deferred build reads the *live* database, which the batch already
    # updated, so building later reaches the state patching would.
    def add_tuple_node(self, record: Tuple) -> None:
        """Add one tuple as a node (exactly as construction would)."""
        if self._materialized is not None:
            self._materialized.add_node(record.tid, relation=record.relation)
        self.invalidate_caches()

    def remove_tuple_node(self, tid: TupleId) -> None:
        """Remove one tuple's node together with any incident edges."""
        graph = self._materialized
        if graph is not None and tid in graph:
            graph.remove_node(tid)
        self.invalidate_caches()

    def add_fk_edge(
        self, referencing: TupleId, referenced: TupleId, foreign_key: ForeignKey
    ) -> None:
        """Add the edge of one stored foreign-key reference."""
        if self._materialized is not None:
            self._materialized.add_edge(
                referencing,
                referenced,
                key=foreign_key.name,
                foreign_key=foreign_key,
                referencing=referencing,
            )
        self.invalidate_caches()

    def remove_fk_edge(
        self, referencing: TupleId, referenced: TupleId, foreign_key_name: str
    ) -> None:
        """Remove one foreign-key edge (no-op when absent)."""
        graph = self._materialized
        if graph is not None and graph.has_edge(
            referencing, referenced, key=foreign_key_name
        ):
            graph.remove_edge(referencing, referenced, key=foreign_key_name)
        self.invalidate_caches()

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.MultiGraph:
        """The underlying networkx multigraph (treat as read-only);
        built on first access."""
        if self._materialized is None:
            self._materialized = build_tuple_graph(self.database)
        return self._materialized

    _graph = graph

    @property
    def materialized(self) -> bool:
        """True once the networkx graph was actually built."""
        return self._materialized is not None

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    def has_node(self, tid: TupleId) -> bool:
        return tid in self._graph

    def neighbours(self, tid: TupleId) -> Iterator[tuple[TupleId, str, dict]]:
        """Yield ``(other, edge_key, edge_data)`` for incident edges."""
        if tid not in self._graph:
            raise PathError("tuple is not in the data graph", tid=str(tid))
        for __, other, key, data in self._graph.edges(tid, keys=True, data=True):
            yield other, key, data

    def degree(self, tid: TupleId) -> int:
        if tid not in self._graph:
            raise PathError("tuple is not in the data graph", tid=str(tid))
        return self._graph.degree(tid)

    def edges_between(self, left: TupleId, right: TupleId) -> list[dict]:
        """Edge data dicts of every edge joining two tuples (may be empty)."""
        if not self._graph.has_edge(left, right):
            return []
        return list(self._graph[left][right].values())

    def edge_cardinality(self, edge_data: dict, read_from: TupleId) -> Cardinality:
        """Cardinality of an edge read from one of its endpoints.

        Read from the referenced (target) tuple the edge is ``1:N``; from
        the referencing tuple ``N:1``; unique FKs give ``1:1``.
        """
        fk: ForeignKey = edge_data["foreign_key"]
        if fk.unique:
            return Cardinality.one_to_one()
        if edge_data["referencing"] == read_from:
            return Cardinality.many_to_one()
        return Cardinality.one_to_many()

    def is_middle(self, tid: TupleId) -> bool:
        """True when the tuple belongs to a middle relation."""
        return self.database.schema.relation(tid.relation).is_middle

    # ------------------------------------------------------------------
    # induced subgraphs (MTJNT evaluation needs these)
    # ------------------------------------------------------------------
    def induced_subgraph(self, tids: Iterable[TupleId]) -> nx.MultiGraph:
        """Subgraph induced on a tuple set, *including* all stored edges.

        This is the structure MTJNT minimality is defined over: a tuple set
        may be connected through edges that are not on the path that
        produced it.
        """
        return self._graph.subgraph(list(tids))

    def is_connected_set(self, tids: Iterable[TupleId]) -> bool:
        """True when the induced subgraph on ``tids`` is connected."""
        tids = list(tids)
        if not tids:
            return False
        subgraph = self.induced_subgraph(tids)
        if subgraph.number_of_nodes() != len(set(tids)):
            return False
        import networkx as nx

        return nx.is_connected(nx.Graph(subgraph))

    # ------------------------------------------------------------------
    # conceptual view
    # ------------------------------------------------------------------
    def conceptual_graph(self) -> nx.MultiGraph:
        """The data graph with middle-relation tuples collapsed away.

        Every middle tuple ``m`` referencing tuples ``a`` and ``b`` (via two
        different foreign keys) becomes a direct ``a -- b`` edge with
        ``middle=m`` and many-to-many semantics.  Non-middle edges are kept
        as-is.  The result is cached; the patching methods (and
        :meth:`invalidate_caches`) drop the cache, so mutation through them
        can never serve a stale view.
        """
        if self._conceptual is not None:
            return self._conceptual
        import networkx as nx

        collapsed = nx.MultiGraph()
        for node, data in self._graph.nodes(data=True):
            if not self.is_middle(node):
                collapsed.add_node(node, **data)
        for left, right, key, data in self._graph.edges(keys=True, data=True):
            if self.is_middle(left) or self.is_middle(right):
                continue
            collapsed.add_edge(left, right, key=key, **data)
        for node in self._graph.nodes:
            if not self.is_middle(node):
                continue
            anchors = []
            for __, other, key, data in self._graph.edges(node, keys=True, data=True):
                if self.is_middle(other):
                    continue
                anchors.append((other, data["foreign_key"]))
            for (a, fk_a), (b, fk_b) in combinations(anchors, 2):
                if a == b:
                    continue
                collapsed.add_edge(
                    a,
                    b,
                    key=f"{node}:{fk_a.name}:{fk_b.name}",
                    middle=node,
                    foreign_keys=(fk_a, fk_b),
                )
        self._conceptual = collapsed
        return collapsed

    def conceptual_edge_cardinality(self, edge_data: dict) -> Cardinality:
        """Cardinality of a conceptual edge (collapsed middles are ``N:M``)."""
        if "middle" in edge_data:
            return Cardinality.many_to_many()
        # Plain FK edge retained in the conceptual view; direction-dependent
        # reading is the caller's business via :meth:`edge_cardinality`.
        fk: ForeignKey = edge_data["foreign_key"]
        return Cardinality.one_to_one() if fk.unique else Cardinality.one_to_many()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataGraph(tuples={self.database.count()}, "
            f"materialized={self.materialized})"
        )
