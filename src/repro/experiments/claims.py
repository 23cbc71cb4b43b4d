"""Mechanised verification of the paper's two §3 claims.

* :func:`mtjnt_loss` — "In the previous example connections 3, 4, 6 and 7
  are lost, if the MTJNT approach were followed": the MTJNTs for ``Smith
  XML`` are exactly the tuple sets of connections 1, 2 and 5, and the
  minimality test rejects connections 3, 4, 6 and 7.
* :func:`ranking_comparison` — ranking by RDB length puts connections 1
  and 5 best and 4 and 7 worst, while the paper's closeness-first order
  puts 1, 2 and 5 best and 3 and 6 worst, promoting 4 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.discover import find_mtjnts, is_mtjnt
from repro.core.engine import KeywordSearchEngine
from repro.core.matching import match_keywords
from repro.core.ranking import ClosenessRanker, RdbLengthRanker, rank_connections
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.experiments.report import ReproductionMismatch
from repro.experiments.tables import paper_connections

__all__ = ["MtjntLossResult", "RankingComparisonResult", "mtjnt_loss",
           "ranking_comparison"]


@dataclass(frozen=True)
class MtjntLossResult:
    """Outcome of the MTJNT-loss check."""

    mtjnt_rows: tuple[int, ...]
    lost_rows: tuple[int, ...]
    mtjnt_count: int


@dataclass(frozen=True)
class RankingComparisonResult:
    """Row numbers grouped by rank under the two ranking strategies."""

    rdb_best: tuple[int, ...]
    rdb_worst: tuple[int, ...]
    closeness_best: tuple[int, ...]
    closeness_worst: tuple[int, ...]
    rdb_order: tuple[int, ...]
    closeness_order: tuple[int, ...]


def mtjnt_loss() -> MtjntLossResult:
    """Check which of Table 2's connections 1–7 survive MTJNT semantics."""
    engine = KeywordSearchEngine(build_company_database())
    matches = match_keywords(engine.index, ("XML", "Smith"))
    connections = paper_connections(engine)

    mtjnts = find_mtjnts(
        engine.data_graph, matches, SearchLimits(max_tuples=5)
    )
    mtjnt_sets = set(mtjnts)

    surviving = []
    lost = []
    for number in range(1, 8):
        members = frozenset(connections[number].tuple_ids())
        if members in mtjnt_sets and is_mtjnt(engine.data_graph, members, matches):
            surviving.append(number)
        else:
            lost.append(number)

    if tuple(surviving) != (1, 2, 5):
        raise ReproductionMismatch(
            "MTJNT survivors deviate (paper: connections 1, 2, 5)",
            got=surviving,
        )
    # Conversely, every found MTJNT must be one of the surviving tuple sets:
    # the paper's example has exactly three MTJNTs.
    expected_sets = {
        frozenset(connections[number].tuple_ids()) for number in (1, 2, 5)
    }
    if mtjnt_sets != expected_sets:
        raise ReproductionMismatch(
            "MTJNT set deviates from connections 1, 2, 5",
            got=sorted(sorted(str(t) for t in s) for s in mtjnt_sets),
        )
    return MtjntLossResult(
        mtjnt_rows=tuple(surviving),
        lost_rows=tuple(lost),
        mtjnt_count=len(mtjnts),
    )


def ranking_comparison() -> RankingComparisonResult:
    """Compare RDB-length ranking with the paper's closeness ranking."""
    connections = paper_connections()
    numbered = {connections[number]: number for number in range(1, 8)}

    rdb_ranked = rank_connections(list(numbered), RdbLengthRanker())
    closeness_ranked = rank_connections(list(numbered), ClosenessRanker())

    def groups(ranked):
        best_score = ranked[0][1]
        worst_score = ranked[-1][1]
        best = tuple(
            sorted(numbered[answer] for answer, score in ranked if score == best_score)
        )
        worst = tuple(
            sorted(numbered[answer] for answer, score in ranked if score == worst_score)
        )
        order = tuple(numbered[answer] for answer, __ in ranked)
        return best, worst, order

    rdb_best, rdb_worst, rdb_order = groups(rdb_ranked)
    closeness_best, closeness_worst, closeness_order = groups(closeness_ranked)

    if rdb_best != (1, 5) or rdb_worst != (4, 7):
        raise ReproductionMismatch(
            "RDB-length ranking deviates (paper: best 1,5; worst 4,7)",
            best=rdb_best,
            worst=rdb_worst,
        )
    if closeness_best != (1, 2, 5) or closeness_worst != (3, 6):
        raise ReproductionMismatch(
            "closeness ranking deviates (paper: best 1,2,5; worst 3,6)",
            best=closeness_best,
            worst=closeness_worst,
        )
    return RankingComparisonResult(
        rdb_best=rdb_best,
        rdb_worst=rdb_worst,
        closeness_best=closeness_best,
        closeness_worst=closeness_worst,
        rdb_order=rdb_order,
        closeness_order=closeness_order,
    )
