"""Data graph: tuples as nodes, foreign-key references as edges.

This is the graph BANKS-style systems search over.  Nodes are
:class:`~repro.relational.database.TupleId`; each stored foreign-key
reference contributes one undirected edge carrying:

``foreign_key``
    the :class:`~repro.relational.schema.ForeignKey` behind the edge;
``referencing``
    the :class:`TupleId` on the FK's source side — this orients the edge
    semantically and determines its cardinality when read in a direction.

The networkx multigraph is a read-only value for the oracles —
:mod:`repro.oracle`, the baselines and tests — built from the current
database on first use and never patched: a write drops it
(:meth:`DataGraph.invalidate`) and the next read builds it again.  The
engine reads the compiled graph (:class:`~repro.graph.csr.FrozenGraph`)
for every query shape, instance ambiguity and closeness included, and
:meth:`DataGraph.is_middle` / :meth:`DataGraph.edge_cardinality` read
only the schema.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.er.cardinality import Cardinality
from repro.errors import PathError
from repro.relational.database import Database, TupleId
from repro.relational.schema import ForeignKey

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["DataGraph", "build_tuple_graph"]


def build_tuple_graph(database: Database) -> nx.MultiGraph:
    """Construct the tuple-level multigraph of one database instance.

    Node and edge insertion order is part of the engine's determinism
    contract (multi-edge iteration follows it), so every materialisation
    goes through this one function; the edges are
    :meth:`Database.references` — the one definition of a database's
    edges, which the CSR compile reads in bulk, resolving each stored
    key through its node maps, when no multigraph exists.
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
    CSR kernels compile, answer every query shape, patch and save
    without it (or networkx); :mod:`repro.oracle` and the baselines
    trigger the :func:`build_tuple_graph` pass.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._materialized: Optional[nx.MultiGraph] = None

    def invalidate(self) -> None:
        """Drop the multigraph (call after database changes); the next
        :attr:`graph` access builds it from the live database."""
        self._materialized = None

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

    @property
    def materialized(self) -> bool:
        """True once the networkx graph was actually built."""
        return self._materialized is not None

    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def number_of_edges(self) -> int:
        return self.graph.number_of_edges()

    def has_node(self, tid: TupleId) -> bool:
        return tid in self.graph

    def degree(self, tid: TupleId) -> int:
        if tid not in self.graph:
            raise PathError("tuple is not in the data graph", tid=str(tid))
        return self.graph.degree(tid)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataGraph(tuples={self.database.count()}, "
            f"materialized={self.materialized})"
        )
