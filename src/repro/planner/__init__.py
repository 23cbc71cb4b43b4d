"""Cost-based adaptive planning: estimates and enumeration order.

The planner layer turns statistics the engine already collects —
posting lengths, :class:`~repro.relational.statistics.DatabaseStatistics`
fan-outs and CSR distance rows — into one decision:
**selectivity-ordered enumeration**.  Pushdown execution orders
`PairPaths` / `NetworkGrowth` units by an admissible distance bound
instead of plan order, so score lower bounds are reached sooner (see
``core/executor.py``).  :meth:`CostModel.query_cost` stays a public
per-query estimate; nothing routes by it.

The planner learns nothing from the queries it serves, so a read never
writes planner state.  Everything here is advisory: answers stay
bit-identical to the static planner, which remains available via
``adaptive=False``.
"""

from repro.planner.cost import DEFAULT_FANOUT, CostModel, UnitEstimate

__all__ = [
    "DEFAULT_FANOUT",
    "CostModel",
    "UnitEstimate",
]
