"""Cost-based adaptive planning: estimates, calibration, and routing.

The planner layer turns statistics the engine already collects —
posting lengths, :class:`~repro.relational.statistics.DatabaseStatistics`
fan-outs, CSR distance rows and observed
:class:`~repro.core.executor.ExecutionStats` — into three decisions:

* **selectivity-ordered enumeration** — pushdown execution orders
  `PairPaths` / `NetworkGrowth` units by an admissible distance bound
  instead of plan order, so score lower bounds are reached sooner
  (see ``core/executor.py``);
* **cost-routed dispatch** — ``search_batch(jobs=N)`` assigns queries
  to workers by predicted cost (:func:`route_by_cost`) instead of
  contiguous chunking;
* **online recalibration** — observed candidate counts feed a
  :class:`CalibrationTable` persisted through the snapshot.

Everything here is advisory: answers stay bit-identical to the static
planner, which remains available via ``adaptive=False`` or the
``REPRO_STATIC_PLAN`` environment variable (:func:`resolve_adaptive`).
"""

from repro.planner.cost import (
    DEFAULT_FANOUT,
    STATIC_PLAN_ENV,
    CalibrationTable,
    CostModel,
    UnitEstimate,
    resolve_adaptive,
)
from repro.planner.dispatch import route_by_cost

__all__ = [
    "DEFAULT_FANOUT",
    "STATIC_PLAN_ENV",
    "CalibrationTable",
    "CostModel",
    "UnitEstimate",
    "resolve_adaptive",
    "route_by_cost",
]
