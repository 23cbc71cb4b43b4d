"""Schema graph: relations as nodes, foreign keys as cardinality edges.

Every foreign key ``R(f) -> S(k)`` contributes one undirected edge between
``R`` and ``S``.  Read from ``S`` to ``R`` the edge is ``1:N`` (one ``S``
tuple, many referencing ``R`` tuples); read from ``R`` to ``S`` it is
``N:1``; a unique foreign key is ``1:1``.  The graph is a multigraph because
two relations may be connected by several foreign keys (e.g. a flight's
origin and destination airports).

DISCOVER's candidate network generation and the reverse-engineering of ER
schemas both run over this structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.er.cardinality import Cardinality
from repro.errors import UnknownRelationError
from repro.relational.schema import DatabaseSchema, ForeignKey

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SchemaGraph"]


class SchemaGraph:
    """Undirected multigraph over the relations of a schema."""

    def __init__(self, schema: DatabaseSchema) -> None:
        import networkx as nx

        self.schema = schema
        graph = nx.MultiGraph()
        for relation in schema.relations:
            graph.add_node(relation.name, is_middle=relation.is_middle)
        for fk in schema.foreign_keys:
            graph.add_edge(fk.source, fk.target, key=fk.name, foreign_key=fk)
        self._graph = graph

    @property
    def graph(self) -> nx.MultiGraph:
        """The underlying networkx multigraph (treat as read-only)."""
        return self._graph

    def edge_cardinality(self, fk: ForeignKey, read_from: str) -> Cardinality:
        """The cardinality of an FK edge read from one of its endpoints.

        ``read_from`` names either the FK's source or its target relation.
        Read from the *target* (referenced) side a plain FK is ``1:N``;
        from the *source* (referencing) side it is ``N:1``; unique foreign
        keys are ``1:1`` either way.
        """
        if fk.unique:
            return Cardinality.one_to_one()
        if read_from == fk.target:
            return Cardinality.one_to_many()
        if read_from == fk.source:
            return Cardinality.many_to_one()
        raise UnknownRelationError(
            "relation is not an endpoint of the foreign key",
            foreign_key=fk.name,
            relation=read_from,
        )

    def neighbours(self, relation_name: str) -> Iterator[tuple[str, ForeignKey]]:
        """Yield ``(other_relation, fk)`` for every incident FK edge."""
        if relation_name not in self._graph:
            raise UnknownRelationError("no such relation", relation=relation_name)
        for __, other, data in self._graph.edges(relation_name, data=True):
            yield other, data["foreign_key"]

    def degree(self, relation_name: str) -> int:
        if relation_name not in self._graph:
            raise UnknownRelationError("no such relation", relation=relation_name)
        return self._graph.degree(relation_name)

    def is_connected(self) -> bool:
        """True when every relation is join-reachable from every other."""
        if self._graph.number_of_nodes() == 0:
            return True
        import networkx as nx

        return nx.is_connected(nx.Graph(self._graph))

    def relation_distance(self, left: str, right: str) -> int:
        """Length of the shortest FK chain between two relations."""
        for name in (left, right):
            if name not in self._graph:
                raise UnknownRelationError("no such relation", relation=name)
        import networkx as nx

        return nx.shortest_path_length(nx.Graph(self._graph), left, right)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemaGraph(relations={self._graph.number_of_nodes()}, "
            f"fk_edges={self._graph.number_of_edges()})"
        )
