"""Query plans: the IR between keyword matching and answer execution.

Every query the engine can answer — AND or OR semantics, one, two or N
keywords, with or without a top-k cut — compiles to the same small plan
shape, executed by :mod:`repro.core.executor`:

    match → answer sources → merge/coverage → rank → cut

*Match* resolves keywords to tuples (the plan stores the resolved
:class:`~repro.core.matching.KeywordMatch` objects).  *Sources* are the
three enumeration primitives: :class:`SingleScan` (tuples containing
keywords), :class:`PairPaths` (simple tuple paths between two keywords'
matches) and :class:`NetworkGrowth` (joining trees covering one tuple
per keyword).  :class:`Merge` fixes how the source streams combine —
OR semantics orders by keyword coverage before the ranker's score.
:class:`Rank` and :class:`Cut` are the sort and the top-k truncation.

Plans describe *shape*, not execution strategy: the ranker, the
enumeration limits and the traversal kernel are supplied at execution
time, so one plan serves every ranker, the engine and the oracle.  Keeping tuple
ids in the source ops (not keyword spellings) is what lets the executor
share enumeration between different query texts in a batch — two
queries whose pair ops name the same (source, target) tuples share one
path stream regardless of how their keywords were spelled.

:func:`lower_bound_for` lives here because it is plan-level metadata:
the best score any answer of a given RDB length can achieve under a
ranker.  The executor uses it to terminate enumeration early for *any*
plan (pair paths, network growth, OR coverage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

from repro.core.matching import KeywordMatch
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    Ranker,
    RdbLengthRanker,
)
from repro.errors import QueryError

__all__ = [
    "SingleScan",
    "PairPaths",
    "NetworkGrowth",
    "Merge",
    "Cut",
    "QueryPlan",
    "plan_query",
    "lower_bound_for",
]


def lower_bound_for(ranker: Ranker, rdb_length: int) -> Optional[tuple[float, ...]]:
    """Best possible score of any answer with ``rdb_length`` FK edges.

    Holds for connections *and* joining networks (a network's spanning
    tree has ``|tuples| - 1`` edges; collapsing interior middles can at
    most halve them, and loose joints are never negative).  ``None``
    means "no usable bound" and disables early termination.
    """
    if isinstance(ranker, RdbLengthRanker):
        return (float(rdb_length),)
    if isinstance(ranker, ErLengthRanker):
        return (float(math.ceil(rdb_length / 2)),)
    if isinstance(ranker, ClosenessRanker):
        return (0.0, float(math.ceil(rdb_length / 2)))
    return None


@dataclass(frozen=True, slots=True)
class SingleScan:
    """Emit one :class:`SingleTupleAnswer` per distinct matched tuple.

    ``indices`` selects the keyword matches whose tuples are scanned; a
    tuple matching several of them carries the union of their keywords.
    """

    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PairPaths:
    """Enumerate simple tuple paths between two keywords' match tuples.

    ``include_single_tuples`` additionally emits tuples matching both
    keywords (the AND two-keyword shape); OR plans emit singles through
    a dedicated :class:`SingleScan` instead.
    """

    first: int
    second: int
    include_single_tuples: bool = True


@dataclass(frozen=True, slots=True)
class NetworkGrowth:
    """Grow joining networks covering one match tuple per keyword."""

    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Merge:
    """How source streams combine.

    ``coverage_major`` prefixes every score with ``-covered_keywords``
    (OR semantics: answers covering more keywords rank first).
    """

    coverage_major: bool = False


@dataclass(frozen=True, slots=True)
class Cut:
    """Top-k truncation after ranking; ``k=None`` keeps everything."""

    k: Optional[int] = None


PlanSource = Union[SingleScan, PairPaths, NetworkGrowth]


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """One compiled query: resolved matches plus the stage pipeline."""

    keywords: tuple[str, ...]
    semantics: str
    matches: tuple[KeywordMatch, ...]
    sources: tuple[PlanSource, ...]
    merge: Merge
    cut: Cut
    #: Planner cost estimates aligned with ``sources`` by position
    #: (``repro.planner.cost.UnitEstimate``).  Advisory only: attached
    #: on demand (``engine.plan()``, EXPLAIN) by an adaptive engine,
    #: never on a search's plan nor consulted for answer correctness.
    estimates: tuple = ()

    @property
    def is_empty(self) -> bool:
        """True when the plan can produce no answers."""
        return not self.sources

    def distance_sources(self, limits) -> dict:
        """Every tuple whose BFS distance row this plan's enumeration
        units will request, mapped to the radius they request it at,
        deduplicated, in plan order.

        The executor prefetches these rows before streaming.  Pair bounds
        meet in the middle: one side's rows reach ⌈``max_rdb_length``/2⌉
        levels and a per-query ball around each tuple of the other side
        the other ⌊``max_rdb_length``/2⌋
        (:meth:`~repro.graph.csr.QueryRows.distance`).  The rows go to
        the pair op's *shorter* match list — the second on a tie — and
        the balls to the longer one, so each pair op contributes its
        shorter list's tuples at radius ⌈``max_rdb_length``/2⌉; network
        growth prunes against every required tuple's row up to
        ``max_tuples - 1``.  A tuple both kinds use takes the wider
        radius (a wider row serves the narrower request).  Single scans
        enumerate no structure and need no rows.
        """
        wanted: dict = {}
        for source in self.sources:
            if isinstance(source, PairPaths):
                budget = limits.max_rdb_length
                radius = budget - budget // 2
                # The shorter list; ``min`` keeps the second on a tie.
                tids = min(self.matches[source.second].tuple_ids,
                           self.matches[source.first].tuple_ids, key=len)
            elif isinstance(source, NetworkGrowth):
                radius = limits.max_tuples - 1
                tids = tuple(
                    tid
                    for index in source.indices
                    for tid in self.matches[index].tuple_ids
                )
            else:
                continue
            for tid in tids:
                wanted[tid] = max(wanted.get(tid, radius), radius)
        return wanted

    def describe(self) -> str:
        """Human-readable stage listing (CLI / debugging aid)."""
        lines = [
            f"match      {', '.join(self.keywords)} "
            f"[{self.semantics}] -> "
            + ", ".join(str(len(match)) for match in self.matches)
            + " tuples"
        ]
        for position, source in enumerate(self.sources):
            if isinstance(source, SingleScan):
                line = f"scan       singles over matches {source.indices}"
            elif isinstance(source, PairPaths):
                singles = "+singles" if source.include_single_tuples else ""
                line = (
                    f"paths      matches ({source.first}, {source.second})"
                    f" {singles}".rstrip()
                )
            else:
                line = f"networks   matches {source.indices}"
            if position < len(self.estimates):
                estimate = self.estimates[position]
                line += (
                    f"  [{estimate.units} units,"
                    f" ~{estimate.est_candidates:g} cands,"
                    f" ~{estimate.est_cost:g} cost]"
                )
            lines.append(line)
        if self.estimates:
            lines.append(
                "order      adaptive: pushdown drains units cheapest "
                "distance bound first"
            )
        mode = "coverage-major" if self.merge.coverage_major else "score"
        lines.append(f"merge      {mode}")
        lines.append("rank       ranker score, render tie-break")
        lines.append(
            f"cut        top-{self.cut.k}" if self.cut.k is not None else "cut        none"
        )
        return "\n".join(lines)


def plan_query(
    matches: Sequence[KeywordMatch],
    semantics: str = "and",
    top_k: Optional[int] = None,
) -> QueryPlan:
    """Compile resolved keyword matches into one :class:`QueryPlan`.

    AND: every keyword must be covered — one keyword scans singles, two
    enumerate pair paths (singles included), three or more grow joining
    networks; an unmatched keyword empties the plan.

    OR: any non-empty keyword subset may be covered — singles over every
    populated keyword, pair paths for each populated pair, plus network
    growth when three or more keywords are populated; the merge becomes
    coverage-major.  Keywords without matches are simply dropped.
    """
    if semantics not in ("and", "or"):
        raise QueryError("semantics must be 'and' or 'or'", got=semantics)
    if top_k is not None and top_k < 0:
        raise QueryError("top_k must not be negative", got=top_k)
    if not matches:
        raise QueryError("no keywords to plan")
    matches = tuple(matches)
    keywords = tuple(match.keyword for match in matches)
    cut = Cut(top_k)

    if semantics == "and":
        sources: tuple[PlanSource, ...]
        if any(match.is_empty for match in matches):
            sources = ()
        elif len(matches) == 1:
            sources = (SingleScan((0,)),)
        elif len(matches) == 2:
            sources = (PairPaths(0, 1, include_single_tuples=True),)
        else:
            sources = (NetworkGrowth(tuple(range(len(matches)))),)
        return QueryPlan(
            keywords=keywords,
            semantics=semantics,
            matches=matches,
            sources=sources,
            merge=Merge(coverage_major=False),
            cut=cut,
        )

    populated = tuple(
        index for index, match in enumerate(matches) if not match.is_empty
    )
    or_sources: list[PlanSource] = []
    if populated:
        or_sources.append(SingleScan(populated))
        or_sources.extend(
            PairPaths(first, second, include_single_tuples=False)
            for first, second in combinations(populated, 2)
        )
        if len(populated) >= 3:
            or_sources.append(NetworkGrowth(populated))
    return QueryPlan(
        keywords=keywords,
        semantics=semantics,
        matches=matches,
        sources=tuple(or_sources),
        merge=Merge(coverage_major=True),
        cut=cut,
    )
