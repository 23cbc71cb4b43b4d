"""Cost-based adaptive planning: estimates and routing.

The planner layer turns statistics the engine already collects —
posting lengths, :class:`~repro.relational.statistics.DatabaseStatistics`
fan-outs and CSR distance rows — into two decisions:

* **selectivity-ordered enumeration** — pushdown execution orders
  `PairPaths` / `NetworkGrowth` units by an admissible distance bound
  instead of plan order, so score lower bounds are reached sooner
  (see ``core/executor.py``);
* **cost-routed dispatch** — ``search_batch(jobs=N)`` assigns queries
  to workers by predicted cost (:func:`route_by_cost`) instead of
  contiguous chunking.

The planner learns nothing from the queries it serves, so a read never
writes planner state.  Everything here is advisory: answers stay
bit-identical to the static planner, which remains available via
``adaptive=False``.
"""

from repro.planner.cost import DEFAULT_FANOUT, CostModel, UnitEstimate
from repro.planner.dispatch import route_by_cost

__all__ = [
    "DEFAULT_FANOUT",
    "CostModel",
    "UnitEstimate",
    "route_by_cost",
]
