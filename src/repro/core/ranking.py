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

A ranker whose score reads only the schema along an answer — the
relations, foreign keys, directions and middle flags, never a tuple
value — declares ``schema_level``: it scores an answer from its
:class:`ShapeFacts` (``score_shape``), and the executor looks those up
by the answer's shape in the engine's :class:`ShapeMemo`, so every
shape is scored once.  The first four rankers above are schema-level,
and :class:`WeightedRanker` while ``w_ambiguity == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol

from repro.core import ambiguity as ambiguity_module
from repro.core.connections import Connection

__all__ = [
    "Answer",
    "Ranker",
    "ShapeFacts",
    "ShapeMemo",
    "shape_facts",
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

    def shape_key(self) -> tuple: ...


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


class ShapeFacts(NamedTuple):
    """What a schema-level ranker reads of an answer."""

    #: Transitive-N:M joints (paper Table 1), summed over a network's
    #: keyword-pair paths.
    loose_joints: int
    er_length: int
    rdb_length: int


def shape_facts(answer: Answer) -> ShapeFacts:
    """An answer's :class:`ShapeFacts` from their definitions
    (:meth:`Connection.verdict`, ``loose_joint_count()``, ``er_length``)."""
    return ShapeFacts(
        _loose_joint_count(answer), answer.er_length, answer.rdb_length
    )


class ShapeMemo:
    """Answer shape key -> :class:`ShapeFacts`, filled on first sight.

    An answer's ``shape_key()`` encodes everything its facts read — the
    relations, foreign keys, directions and middle flags along a path,
    or a network's labelled spanning tree — so equal keys have equal
    facts, and a miss computes them with :func:`shape_facts`.  The
    schema never changes under an engine, so one memo serves it for its
    lifetime.  ``scored`` counts lookups, ``shapes`` the shapes held.
    """

    def __init__(self) -> None:
        self._facts: dict[tuple, ShapeFacts] = {}
        self.scored = 0

    @property
    def shapes(self) -> int:
        return len(self._facts)

    def facts(self, answer: Answer) -> ShapeFacts:
        self.scored += 1
        key = answer.shape_key()
        facts = self._facts.get(key)
        if facts is None:
            facts = self._facts[key] = shape_facts(answer)
        return facts


class _SchemaLevel:
    """A ranker that scores an answer from its :class:`ShapeFacts` alone."""

    schema_level = True

    def score(self, answer: Answer) -> tuple[float, ...]:
        return self.score_shape(shape_facts(answer))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RdbLengthRanker(_SchemaLevel):
    """Rank by number of FK joins (the approach the paper criticises)."""

    name: str = "rdb-length"

    def score_shape(self, facts: ShapeFacts) -> tuple[float, ...]:
        return (float(facts.rdb_length),)


@dataclass(frozen=True)
class ErLengthRanker(_SchemaLevel):
    """Rank by conceptual (ER) length — middle relations do not count."""

    name: str = "er-length"

    def score_shape(self, facts: ShapeFacts) -> tuple[float, ...]:
        return (float(facts.er_length),)


@dataclass(frozen=True)
class ClosenessRanker(_SchemaLevel):
    """The paper's proposal: loose joints first, then conceptual length."""

    name: str = "closeness"

    def score_shape(self, facts: ShapeFacts) -> tuple[float, ...]:
        return (float(facts.loose_joints), float(facts.er_length))


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

    @property
    def schema_level(self) -> bool:
        """Fan counts read tuples, so only ``w_ambiguity == 0`` is."""
        return not self.w_ambiguity

    def score(self, answer: Answer) -> tuple[float, ...]:
        score = self.score_shape(shape_facts(answer))
        if self.w_ambiguity:
            return (score[0] + self.w_ambiguity * (_ambiguity_factor(answer) - 1),)
        return score

    def score_shape(self, facts: ShapeFacts) -> tuple[float, ...]:
        """The schema-level part of the score."""
        return (
            self.w_joints * facts.loose_joints
            + self.w_er * facts.er_length
            + self.w_rdb * facts.rdb_length,
        )


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
