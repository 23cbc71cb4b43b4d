"""Tuple connections and their two lengths (paper §3, Tables 2 and 3).

A :class:`Connection` is a path of joined tuples between two keyword
tuples.  It exposes both length notions the paper contrasts:

* **RDB length** — the number of foreign-key edges on the path;
* **ER length** — the number of *conceptual* steps after collapsing middle
  relation tuples: a middle tuple sitting between two entity tuples merges
  its two FK edges into one ``N:M`` step ("in conceptual approach middle
  relations should not be taken into account when calculating the length of
  a connection").

The conceptual step sequence also carries the cardinalities that drive the
close/loose verdict, so a connection can be classified exactly like a
schema-level ER path.

Middle tuples at the *ends* of a path (a keyword matching the payload of a
middle relation, e.g. ``HOURS``) cannot be collapsed and count as ordinary
steps; only interior middle tuples flanked by entity tuples merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.associations import AssociationVerdict, classify_cardinalities
from repro.er.cardinality import Cardinality
from repro.errors import PathError
from repro.graph.fast_traversal import TraversalCache
from repro.graph.traversal import TuplePathStep
from repro.relational.database import TupleId

__all__ = ["ConceptualStep", "Connection"]


@dataclass(frozen=True)
class ConceptualStep:
    """One step of a connection at the conceptual (ER) level.

    ``middle`` is the collapsed middle-relation tuple for ``N:M`` steps and
    ``None`` for plain foreign-key steps.  ``cardinality`` is read from
    ``source`` to ``target``.  ``edge_steps`` keeps the underlying stored
    edges (one for a plain step, two for a collapsed middle) so the
    instance-level ambiguity analysis can count actual participating
    tuples.
    """

    source: TupleId
    target: TupleId
    cardinality: Cardinality
    middle: Optional[TupleId] = None
    edge_steps: tuple[TuplePathStep, ...] = ()

    def __str__(self) -> str:
        return f"{self.source} {self.cardinality} {self.target}"


class Connection:
    """A path of joined tuples between two keyword-matching endpoints.

    ``cache`` is the :class:`TraversalCache` the path was found on (or
    built from): its data graph reads the schema and renders the path,
    and its compiled graph answers the instance-level questions of
    :mod:`repro.core.ambiguity`.
    """

    def __init__(
        self,
        cache: TraversalCache,
        steps: Sequence[TuplePathStep],
        keyword_matches: Optional[Mapping[TupleId, frozenset[str]]] = None,
    ) -> None:
        if not steps:
            raise PathError("a connection needs at least one step")
        for previous, step in zip(steps, steps[1:]):
            if previous.target != step.source:
                raise PathError(
                    "disconnected connection",
                    after=str(previous.target),
                    next_source=str(step.source),
                )
        self.cache = cache
        self._steps = tuple(steps)
        self.keyword_matches: dict[TupleId, frozenset[str]] = {
            tid: frozenset(keywords)
            for tid, keywords in (keyword_matches or {}).items()
        }
        self._conceptual: Optional[tuple[ConceptualStep, ...]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuple_ids(
        cls,
        cache: TraversalCache,
        tids: Sequence[TupleId],
        keyword_matches: Optional[Mapping[TupleId, frozenset[str]]] = None,
    ) -> "Connection":
        """Build a connection from consecutive tuple ids.

        Every consecutive pair must be joined by exactly one stored edge
        of the compiled graph; parallel edges make the path ambiguous and
        raise :class:`~repro.errors.PathError` (build from explicit steps
        then).
        """
        if len(tids) < 2:
            raise PathError("a connection needs at least two tuples")
        frozen = cache.frozen()
        steps = []
        for source, target in zip(tids, tids[1:]):
            candidates = [
                (key, data)
                for other, key, data in frozen.neighbours(source)
                if other == target
            ]
            if not candidates:
                raise PathError(
                    "tuples are not joined", source=str(source), target=str(target)
                )
            if len(candidates) > 1:
                raise PathError(
                    "tuples are joined by several foreign keys",
                    source=str(source),
                    target=str(target),
                )
            steps.append(TuplePathStep(source, target, *candidates[0]))
        return cls(cache, steps, keyword_matches)

    @classmethod
    def from_labels(
        cls,
        cache: TraversalCache,
        labels: Sequence[str],
        keyword_matches: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> "Connection":
        """Build a connection from tuple display labels (test convenience).

        ``keyword_matches`` maps labels to keyword iterables.
        """
        database = cache.data_graph.database
        tids = [database.by_label(label).tid for label in labels]
        matches = None
        if keyword_matches:
            matches = {
                database.by_label(label).tid: frozenset(keywords)
                for label, keywords in keyword_matches.items()
            }
        return cls.from_tuple_ids(cache, tids, matches)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def steps(self) -> tuple[TuplePathStep, ...]:
        return self._steps

    def tuple_ids(self) -> tuple[TupleId, ...]:
        """Tuples on the path, endpoints included, in order."""
        return (self._steps[0].source,) + tuple(s.target for s in self._steps)

    @property
    def source(self) -> TupleId:
        return self._steps[0].source

    @property
    def target(self) -> TupleId:
        return self._steps[-1].target

    @property
    def endpoints(self) -> tuple[TupleId, TupleId]:
        return (self.source, self.target)

    @property
    def rdb_length(self) -> int:
        """Number of foreign-key edges (the traditional length)."""
        return len(self._steps)

    def middle_tuples(self) -> tuple[TupleId, ...]:
        """Interior middle-relation tuples that collapse away."""
        return tuple(
            step.middle for step in self.conceptual_steps() if step.middle is not None
        )

    # ------------------------------------------------------------------
    # conceptual view
    # ------------------------------------------------------------------
    def conceptual_steps(self) -> tuple[ConceptualStep, ...]:
        """The connection after collapsing interior middle tuples."""
        if self._conceptual is not None:
            return self._conceptual
        graph = self.cache.data_graph
        steps: list[ConceptualStep] = []
        index = 0
        edge_count = len(self._steps)
        while index < edge_count:
            step = self._steps[index]
            target_is_interior = index + 1 < edge_count
            if target_is_interior and graph.is_middle(step.target) and not (
                graph.is_middle(step.source)
                or graph.is_middle(self._steps[index + 1].target)
            ):
                steps.append(
                    ConceptualStep(
                        source=step.source,
                        target=self._steps[index + 1].target,
                        cardinality=Cardinality.many_to_many(),
                        middle=step.target,
                        edge_steps=(step, self._steps[index + 1]),
                    )
                )
                index += 2
                continue
            steps.append(
                ConceptualStep(
                    source=step.source,
                    target=step.target,
                    cardinality=graph.edge_cardinality(step.edge_data, step.source),
                    edge_steps=(step,),
                )
            )
            index += 1
        self._conceptual = tuple(steps)
        return self._conceptual

    @property
    def er_length(self) -> int:
        """Number of conceptual steps (the paper's proposed length)."""
        return len(self.conceptual_steps())

    def cardinalities(self) -> tuple[Cardinality, ...]:
        """Conceptual cardinality sequence, read source-to-target."""
        return tuple(step.cardinality for step in self.conceptual_steps())

    def verdict(self) -> AssociationVerdict:
        """Close/loose classification of the conceptual step sequence."""
        return classify_cardinalities(self.cardinalities())

    # ------------------------------------------------------------------
    # rendering (paper notation)
    # ------------------------------------------------------------------
    def _label(self, tid: TupleId) -> str:
        label = self.cache.data_graph.database.label(tid)
        keywords = self.keyword_matches.get(tid)
        if keywords:
            rendered = ",".join(sorted(keywords))
            return f"{label}({rendered})"
        return label

    def render(self) -> str:
        """Paper Table 2 notation, e.g. ``d1(XML) – e1(Smith)``."""
        return " – ".join(self._label(tid) for tid in self.tuple_ids())

    def render_with_cardinalities(self) -> str:
        """Paper Table 3 notation: RDB path with per-edge cardinalities.

        Each stored FK edge is rendered with its own cardinality (middle
        tuples stay visible), e.g.
        ``p1(XML) 1:N w_f1 N:1 e1(Smith)``.
        """
        parts = [self._label(self._steps[0].source)]
        for step in self._steps:
            cardinality = self.cache.data_graph.edge_cardinality(
                step.edge_data, step.source
            )
            parts.append(str(cardinality))
            parts.append(self._label(step.target))
        return " ".join(parts)

    def render_conceptual(self) -> str:
        """Conceptual rendering with middles collapsed to ``N:M`` steps."""
        steps = self.conceptual_steps()
        parts = [self._label(steps[0].source)]
        for step in steps:
            parts.append(str(step.cardinality))
            parts.append(self._label(step.target))
        return " ".join(parts)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        mine = [(s.source, s.target, s.edge_key) for s in self._steps]
        theirs = [(s.source, s.target, s.edge_key) for s in other._steps]
        return mine == theirs

    def __hash__(self) -> int:
        return hash(tuple((s.source, s.target, s.edge_key) for s in self._steps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Connection({self.render()!r})"
