"""Ranking strategies for keyword-search answers (paper §3 and §4).

A ranker maps an answer (a :class:`~repro.core.connections.Connection`, a
:class:`~repro.core.search.JoiningNetwork` or a
:class:`~repro.core.search.SingleTupleAnswer`) to a score tuple; **lower
scores rank better** and ties are broken deterministically by the answer's
rendered form.

Implemented strategies:

:class:`RdbLengthRanker`
    the traditional baseline the paper criticises: number of FK joins;
:class:`ErLengthRanker`
    the paper's conceptual length: middle relations do not count;
:class:`ClosenessRanker`
    the paper's proposal: fewest transitive-N:M joints first, conceptual
    length second — reproduces the order ``{1,2,5} ≻ {4,7} ≻ {3,6}`` for
    the running example;
:class:`InstanceAmbiguityRanker`
    the future-work refinement: replace the joint *count* with the actual
    number of participating tuples at each joint;
:class:`WeightedRanker`
    a linear combination for ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from repro.core import ambiguity as ambiguity_module
from repro.core.connections import Connection

__all__ = [
    "Answer",
    "Ranker",
    "RdbLengthRanker",
    "ErLengthRanker",
    "ClosenessRanker",
    "InstanceAmbiguityRanker",
    "WeightedRanker",
    "rank_connections",
]


class Answer(Protocol):
    """The interface every rankable answer exposes."""

    rdb_length: int
    er_length: int

    def render(self) -> str: ...


def _loose_joint_count(answer: object) -> int:
    if isinstance(answer, Connection):
        return answer.verdict().loose_joint_count
    return answer.loose_joint_count()  # type: ignore[attr-defined]


def _ambiguity_factor(answer: object) -> int:
    if isinstance(answer, Connection):
        return ambiguity_module.ambiguity_factor(answer)
    return answer.ambiguity_factor()  # type: ignore[attr-defined]


class Ranker(Protocol):
    """Scoring strategy: lower score tuples rank first."""

    name: str

    def score(self, answer: Answer) -> tuple[float, ...]: ...


@dataclass(frozen=True)
class RdbLengthRanker:
    """Rank by number of FK joins (the approach the paper criticises)."""

    name: str = "rdb-length"

    def score(self, answer: Answer) -> tuple[float, ...]:
        return (float(answer.rdb_length),)


@dataclass(frozen=True)
class ErLengthRanker:
    """Rank by conceptual (ER) length — middle relations do not count."""

    name: str = "er-length"

    def score(self, answer: Answer) -> tuple[float, ...]:
        return (float(answer.er_length),)


@dataclass(frozen=True)
class ClosenessRanker:
    """The paper's proposal: loose joints first, then conceptual length."""

    name: str = "closeness"

    def score(self, answer: Answer) -> tuple[float, ...]:
        return (float(_loose_joint_count(answer)), float(answer.er_length))


@dataclass(frozen=True)
class InstanceAmbiguityRanker:
    """Future-work refinement: actual tuple participation at loose joints.

    The primary component is the instance ambiguity factor (1 for close
    connections); conceptual length breaks ties.
    """

    name: str = "instance-ambiguity"
    #: Fan counts read the tuples *around* an answer's joints, so an
    #: edge beside an answer moves its score: the answer cache may not
    #: bound this ranker's dependencies by the answers' own tuples.
    reads_neighbourhood = True

    def score(self, answer: Answer) -> tuple[float, ...]:
        return (float(_ambiguity_factor(answer)), float(answer.er_length))


@dataclass(frozen=True)
class WeightedRanker:
    """Linear combination of the individual criteria, for ablations.

    ``score = w_joints * joints + w_er * er_length + w_rdb * rdb_length
    + w_ambiguity * (ambiguity_factor - 1)``
    """

    w_joints: float = 1.0
    w_er: float = 0.1
    w_rdb: float = 0.0
    w_ambiguity: float = 0.0
    name: str = "weighted"

    @property
    def reads_neighbourhood(self) -> bool:
        """See :attr:`InstanceAmbiguityRanker.reads_neighbourhood`."""
        return bool(self.w_ambiguity)

    def score(self, answer: Answer) -> tuple[float, ...]:
        total = (
            self.w_joints * _loose_joint_count(answer)
            + self.w_er * answer.er_length
            + self.w_rdb * answer.rdb_length
        )
        if self.w_ambiguity:
            total += self.w_ambiguity * (_ambiguity_factor(answer) - 1)
        return (total,)


def rank_connections(
    answers: Iterable[Answer], ranker: Ranker
) -> list[tuple[Answer, tuple[float, ...]]]:
    """Sort answers by a ranker, best first, with deterministic ties.

    Returns ``(answer, score)`` pairs; ties on the score tuple are broken
    by the rendered answer text so that repeated runs produce identical
    orders.
    """
    scored = [(answer, ranker.score(answer)) for answer in answers]
    scored.sort(key=lambda pair: (pair[1], pair[0].render()))
    return scored
