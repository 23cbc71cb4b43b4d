"""The cost model: per-unit work estimates.

Estimates are deliberately coarse — their only job is *ordering* and
reporting, never correctness.  A ``PairPaths`` op sets up one
enumeration unit per (source, target) tuple pair; a ``NetworkGrowth``
op one unit per required-tuple assignment (the cross product of its
keywords' match lists).  Per-unit work scales with graph fan-out, so
the model multiplies unit counts by the fixed :data:`DEFAULT_FANOUT`.
An estimate depends only on the posting lengths, so every engine over
one database — cold-built, restored, updated — reports the same
estimates, and planning never writes state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.plan import NetworkGrowth, PairPaths, QueryPlan, SingleScan

#: Mean fan-out every estimate assumes per traversed edge.
DEFAULT_FANOUT = 2.0


@dataclass(frozen=True, slots=True)
class UnitEstimate:
    """Predicted work for one plan source op, aligned by position.

    ``units`` counts the enumeration units the op sets up (tuple pairs
    or required-tuple assignments), ``est_candidates`` the candidate
    connections those units are predicted to yield, and ``est_cost``
    the relative work of draining them.
    """

    kind: str  # "scan" | "paths" | "networks"
    units: int
    est_candidates: float
    est_cost: float


class CostModel:
    """Estimates per-op work from the posting lengths of ``index``."""

    __slots__ = ("index",)

    def __init__(self, index) -> None:
        self.index = index

    # -- plan estimates -------------------------------------------------

    def estimate_plan(self, plan: QueryPlan) -> tuple:
        """One :class:`UnitEstimate` per ``plan.sources`` op, in order."""
        sizes = [len(match.tuple_ids) for match in plan.matches]
        return tuple(self._estimate_op(op, sizes) for op in plan.sources)

    def annotate(self, plan: QueryPlan) -> QueryPlan:
        """Return ``plan`` with estimates attached (answers unaffected)."""
        if not plan.sources:
            return plan
        return replace(plan, estimates=self.estimate_plan(plan))

    def _estimate_op(self, op, sizes: Sequence[int]) -> UnitEstimate:
        fanout = DEFAULT_FANOUT
        if isinstance(op, SingleScan):
            units = sum(sizes[index] for index in op.indices)
            # Scans emit exactly their units.
            return UnitEstimate("scan", units, float(units), float(units))
        if isinstance(op, PairPaths):
            units = sizes[op.first] * sizes[op.second]
            candidates = units * fanout
            return UnitEstimate("paths", units, candidates,
                                candidates * fanout)
        if isinstance(op, NetworkGrowth):
            units = 1
            for index in op.indices:
                units *= sizes[index]
            candidates = float(units)
            spread = fanout ** max(1, len(op.indices) - 1)
            return UnitEstimate("networks", units, candidates,
                                candidates * spread)
        return UnitEstimate("scan", 0, 0.0, 0.0)

    # -- whole-query estimate --------------------------------------------

    def query_cost(self, keywords: Sequence[str],
                   semantics: str = "and") -> float:
        """Predicted cost of one query, from posting lengths alone.

        Weighs a query *before* matching runs, so it only touches the
        cheap :meth:`InvertedIndex.posting_length` accessor.
        """
        lengths = [self.index.posting_length(keyword)
                   for keyword in keywords]
        if not lengths:
            return 1.0
        fanout = DEFAULT_FANOUT
        if semantics == "and" and any(length == 0 for length in lengths):
            return 1.0  # provably empty: match() short-circuits
        populated = [length for length in lengths if length > 0]
        if not populated:
            return 1.0
        cost = float(sum(populated))
        count = len(populated)
        if count == 2:
            cost += populated[0] * populated[1] * fanout * fanout
        elif count >= 3:
            if semantics == "or":
                for left in range(count):
                    for right in range(left + 1, count):
                        cost += (populated[left] * populated[right]
                                 * fanout * fanout)
            product = 1.0
            for length in populated:
                product *= length
            cost += product * fanout ** (count - 1)
        return max(cost, 1.0)
