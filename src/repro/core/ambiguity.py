"""Instance-level closeness and ambiguity (paper §3 and §4).

Two instance-level refinements of the schema-level close/loose verdict:

* :func:`is_instance_close` — a schema-loose connection is *instance close*
  when the association it implies between its endpoint tuples is
  corroborated by a close connection elsewhere in the instance.  The paper's
  connections 3 and 4 are instance close (John Smith really works on
  project ``p1`` and for department ``d1``); connection 6 is not (Barbara
  Smith never works on project ``p2``).
* :func:`ambiguity_factor` — the paper's "more precise approach": score a
  connection by the *actual number of participating tuples* at each
  transitive-N:M joint.  A joint with fan-in ``a`` and fan-out ``b``
  contributes ``a * b`` alternative endpoint pairs; the factor is the
  product over all loose joints (1 for close connections).

Both read the compiled graph of the connection's traversal cache
(:meth:`~repro.graph.csr.FrozenGraph.neighbours` and the CSR path
kernel), never the networkx multigraph.
"""

from __future__ import annotations

from typing import Optional

from repro.core.associations import loose_joints
from repro.core.connections import ConceptualStep, Connection
from repro.errors import SearchLimitError
from repro.graph.csr import FrozenGraph, csr_enumerate_simple_paths
from repro.graph.fast_traversal import TraversalCache
from repro.relational.database import TupleId

__all__ = [
    "joint_fan_counts",
    "ambiguity_factor",
    "close_connection_exists",
    "is_instance_close",
]


def _related_count(
    frozen: FrozenGraph,
    anchor: TupleId,
    step: ConceptualStep,
    side_relation: str,
) -> int:
    """Number of tuples of ``side_relation`` related to ``anchor`` like ``step``.

    For a plain FK step this counts graph neighbours of ``anchor`` via
    the step's foreign key that live in ``side_relation``; for a collapsed
    ``N:M`` step it counts distinct ``side_relation`` tuples reachable
    through tuples of the step's middle relation.
    """
    if step.middle is not None:
        middle_relation = step.middle.relation
        related: set[TupleId] = set()
        for neighbour, __, __ in frozen.neighbours(anchor):
            if neighbour.relation != middle_relation:
                continue
            for other, __, __ in frozen.neighbours(neighbour):
                if other.relation == side_relation and other != anchor:
                    related.add(other)
        return len(related)
    fk_name = step.edge_steps[0].edge_key
    related = set()
    for neighbour, key, __ in frozen.neighbours(anchor):
        if key == fk_name and neighbour.relation == side_relation:
            related.add(neighbour)
    return len(related)


def joint_fan_counts(
    connection: Connection, joint_position: int
) -> tuple[int, int]:
    """Actual (fan-in, fan-out) tuple counts at one loose joint.

    ``joint_position`` indexes the conceptual step *before* the joint, as in
    :func:`repro.core.associations.loose_joints`.
    """
    steps = connection.conceptual_steps()
    step_in = steps[joint_position]
    step_out = steps[joint_position + 1]
    anchor = step_in.target
    frozen = connection.cache.frozen()
    fan_in = _related_count(frozen, anchor, step_in, step_in.source.relation)
    fan_out = _related_count(frozen, anchor, step_out, step_out.target.relation)
    return fan_in, fan_out


def ambiguity_factor(connection: Connection) -> int:
    """Product of ``fan_in * fan_out`` over all transitive-N:M joints.

    1 for connections without loose joints; larger values mean the joint
    entities associate more endpoint pairs and the connection is vaguer.
    """
    joints = loose_joints(connection.cardinalities())
    factor = 1
    for joint in joints:
        fan_in, fan_out = joint_fan_counts(connection, joint)
        factor *= max(1, fan_in) * max(1, fan_out)
    return factor


def close_connection_exists(
    cache: TraversalCache,
    source: TupleId,
    target: TupleId,
    max_rdb_length: int,
    max_paths: Optional[int] = 10_000,
) -> bool:
    """True when some close connection joins the two tuples.

    Enumerates simple paths up to ``max_rdb_length`` edges and stops at the
    first whose conceptual classification is close.
    """
    try:
        for steps in csr_enumerate_simple_paths(
            cache, source, target, max_rdb_length, max_paths=max_paths
        ):
            if Connection(cache, steps).verdict().is_close:
                return True
    except SearchLimitError:
        # The budget guards pathological graphs; treat as "not shown close".
        return False
    return False


def is_instance_close(
    connection: Connection, max_rdb_length: Optional[int] = None
) -> bool:
    """Paper §3: is a connection close at the *instance* level?

    Schema-close connections are trivially instance close.  A schema-loose
    connection is instance close when a close connection exists between the
    same endpoint tuples within ``max_rdb_length`` edges (default: the
    connection's own RDB length — corroboration may not be farther away
    than the claim).
    """
    if connection.verdict().is_close:
        return True
    if max_rdb_length is None:
        max_rdb_length = connection.rdb_length
    return close_connection_exists(
        connection.cache,
        connection.source,
        connection.target,
        max_rdb_length,
    )
