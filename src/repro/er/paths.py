"""Schema-level paths through an ER schema.

A *transitive relationship* in the paper is a path of relationships through
middle entity types — e.g. ``department 1:N employee 1:N dependent``.  This
module models such paths (:class:`ERPath` built from :class:`ERStep`) and
enumerates them between entity types.  The close/loose verdicts over these
paths live in :mod:`repro.core.associations`; here we only provide the
structure and the cardinality sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.er.cardinality import Cardinality, compose_path
from repro.er.model import ERSchema, RelationshipType
from repro.errors import PathError

__all__ = ["ERStep", "ERPath", "enumerate_paths"]


@dataclass(frozen=True)
class ERStep:
    """One relationship traversed in a concrete direction.

    ``source`` and ``target`` are entity type names; ``cardinality`` is the
    constraint read from ``source`` to ``target`` (so a ``DEPARTMENT 1:N
    EMPLOYEE`` relationship traversed from the employee side has cardinality
    ``N:1``).
    """

    relationship: RelationshipType
    source: str
    target: str

    def __post_init__(self) -> None:
        ends = {self.relationship.left, self.relationship.right}
        if self.source not in ends or self.target not in ends:
            raise PathError(
                "step endpoints do not match relationship",
                relationship=self.relationship.name,
                source=self.source,
                target=self.target,
            )
        if (
            not self.relationship.is_reflexive
            and self.source == self.target
        ):
            raise PathError(
                "non-reflexive relationship cannot loop",
                relationship=self.relationship.name,
            )

    @classmethod
    def forward(cls, relationship: RelationshipType) -> "ERStep":
        """The step reading the relationship left-to-right as declared."""
        return cls(relationship, relationship.left, relationship.right)

    @classmethod
    def backward(cls, relationship: RelationshipType) -> "ERStep":
        """The step reading the relationship right-to-left."""
        return cls(relationship, relationship.right, relationship.left)

    @property
    def cardinality(self) -> Cardinality:
        """Constraint read from :attr:`source` to :attr:`target`."""
        return self.relationship.cardinality_from(self.source)

    def reversed(self) -> "ERStep":
        return ERStep(self.relationship, self.target, self.source)

    def __str__(self) -> str:
        return f"{self.source} {self.cardinality} {self.target}"


class ERPath:
    """A non-empty sequence of connected :class:`ERStep` objects.

    The path ``department 1:N employee 1:N dependent`` (paper Table 1 row 3)
    has two steps; its :meth:`cardinalities` are ``(1:N, 1:N)`` and its
    :meth:`composed` end-to-end constraint is ``1:N``.
    """

    def __init__(self, steps: Sequence[ERStep]) -> None:
        if not steps:
            raise PathError("an ER path needs at least one step")
        for previous, step in zip(steps, steps[1:]):
            if previous.target != step.source:
                raise PathError(
                    "disconnected ER path",
                    after=previous.target,
                    next_source=step.source,
                )
        self._steps = tuple(steps)

    @classmethod
    def from_relationships(
        cls, schema: ERSchema, entity_names: Sequence[str]
    ) -> "ERPath":
        """Build a path from a sequence of entity type names.

        Every consecutive pair must be connected by exactly one relationship
        in ``schema``; ambiguity (parallel relationships) raises
        :class:`~repro.errors.PathError` — use explicit steps in that case.
        """
        if len(entity_names) < 2:
            raise PathError("need at least two entity names", names=entity_names)
        steps = []
        for source, target in zip(entity_names, entity_names[1:]):
            candidates = schema.relationships_between(source, target)
            if not candidates:
                raise PathError(
                    "no relationship between entities", source=source, target=target
                )
            if len(candidates) > 1:
                raise PathError(
                    "ambiguous relationship between entities",
                    source=source,
                    target=target,
                    candidates=[r.name for r in candidates],
                )
            steps.append(ERStep(candidates[0], source, target))
        return cls(steps)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def steps(self) -> tuple[ERStep, ...]:
        return self._steps

    @property
    def source(self) -> str:
        return self._steps[0].source

    @property
    def target(self) -> str:
        return self._steps[-1].target

    @property
    def length(self) -> int:
        """Number of relationships on the path (the paper's ER length)."""
        return len(self._steps)

    @property
    def is_immediate(self) -> bool:
        """True for a single-relationship path (paper: always close)."""
        return len(self._steps) == 1

    def entities(self) -> tuple[str, ...]:
        """Entity names visited, endpoints included."""
        return (self._steps[0].source,) + tuple(s.target for s in self._steps)

    def cardinalities(self) -> tuple[Cardinality, ...]:
        """The constraint sequence ``X1:Y1, ..., Xn:Yn`` of the paper."""
        return tuple(step.cardinality for step in self._steps)

    def composed(self) -> Cardinality:
        """End-to-end cardinality of the transitive relationship."""
        return compose_path(self.cardinalities())

    def reversed(self) -> "ERPath":
        return ERPath([step.reversed() for step in reversed(self._steps)])

    def subpath(self, start: int, stop: int) -> "ERPath":
        """The path over steps ``start:stop`` (Python slice semantics)."""
        return ERPath(self._steps[start:stop])

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self._steps[0].source]
        for step in self._steps:
            parts.append(str(step.cardinality))
            parts.append(step.target)
        return " ".join(parts)

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``department 1:N employee 1:N dependent``."""
        return str(self)

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[ERStep]:
        return iter(self._steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ERPath) and other._steps == self._steps

    def __hash__(self) -> int:
        return hash(self._steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ERPath({str(self)!r})"


def enumerate_paths(
    schema: ERSchema,
    source: str,
    target: str,
    max_length: int,
    allow_revisits: bool = False,
) -> Iterator[ERPath]:
    """Yield every ER path from ``source`` to ``target`` up to ``max_length``.

    Paths are simple in entity types by default (no entity type visited
    twice) which matches how the paper enumerates transitive relationships;
    pass ``allow_revisits=True`` to relax that (each relationship is still
    used at most once per path to keep the enumeration finite).

    Results are yielded in deterministic order: shorter paths first, ties
    broken by the relationship names along the path.
    """
    schema.entity_type(source)
    schema.entity_type(target)
    if max_length < 1:
        return

    found: list[ERPath] = []

    def extend(current: list[ERStep], visited_entities: set[str],
               used_relationships: set[str]) -> None:
        at = current[-1].target if current else source
        if current and at == target:
            found.append(ERPath(current))
            if not allow_revisits:
                # A simple path ends the first time it reaches the target;
                # continuing would visit the target entity type twice.
                return
        if len(current) >= max_length:
            return
        neighbours = sorted(
            schema.neighbours(at), key=lambda pair: (pair[0].name, pair[1])
        )
        for relationship, other in neighbours:
            if relationship.name in used_relationships:
                continue
            if not allow_revisits and other in visited_entities:
                continue
            step = ERStep(relationship, at, other)
            extend(
                current + [step],
                visited_entities | {other},
                used_relationships | {relationship.name},
            )

    extend([], {source} if source != target else set(), set())
    found.sort(key=lambda p: (p.length, tuple(s.relationship.name for s in p.steps)))
    yield from found
