"""Instance statistics: foreign-key fan-outs and relation cardinalities.

The paper's §4 suggests refining looseness "by analyzing the actual number
of participating entities (tuples) in a database instance".  The exact
per-joint analysis lives in :mod:`repro.core.ambiguity`; this module
provides the *aggregate* statistics that make a cheaper, schema-driven
approximation possible (see
:class:`repro.core.ranking_stats.StatisticalAmbiguityRanker`):

* per foreign key: how many source tuples reference an average / maximal
  target tuple (the fan-out a ``1:N`` edge contributes);
* per middle relation: the average fan-outs of its two legs (what an
  ``N:M`` conceptual step contributes on each side);
* relation cardinalities.

Statistics are computed once per database snapshot; recompute after bulk
mutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.relational.database import Database
from repro.relational.schema import ForeignKey

__all__ = ["FanOut", "DatabaseStatistics"]


@dataclass(frozen=True)
class FanOut:
    """Fan-out distribution summary of one foreign key.

    ``mean`` and ``maximum`` are over *referenced* tuples that have at
    least one referencing tuple; ``coverage`` is the fraction of target
    tuples referenced at all.  An unreferenced foreign key reports zeros.
    """

    foreign_key: str
    mean: float
    maximum: int
    coverage: float

    @property
    def is_effectively_functional(self) -> bool:
        """True when no target tuple has more than one referencing tuple."""
        return self.maximum <= 1


class DatabaseStatistics:
    """Aggregate instance statistics over one database snapshot."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._fanouts: dict[str, FanOut] = {}
        self._cardinalities: dict[str, int] = {}
        self._compute()

    def _compute(self) -> None:
        for relation in self.database.schema.relations:
            self._cardinalities[relation.name] = self.database.count(
                relation.name
            )
        for fk in self.database.schema.foreign_keys:
            counts: Counter = Counter()
            for record in self.database.tuples(fk.source):
                key = tuple(record.values[c] for c in fk.source_columns)
                if any(part is None for part in key):
                    continue
                counts[key] += 1
            target_count = self._cardinalities[fk.target]
            if counts:
                mean = sum(counts.values()) / len(counts)
                maximum = max(counts.values())
            else:
                mean = 0.0
                maximum = 0
            coverage = len(counts) / target_count if target_count else 0.0
            self._fanouts[fk.name] = FanOut(
                foreign_key=fk.name,
                mean=mean,
                maximum=maximum,
                coverage=coverage,
            )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def cardinality(self, relation_name: str) -> int:
        """Tuple count of one relation (0 for unknown names is an error)."""
        return self._cardinalities[relation_name]

    def fanout(self, foreign_key: ForeignKey | str) -> FanOut:
        """Fan-out summary of one foreign key."""
        name = foreign_key if isinstance(foreign_key, str) else foreign_key.name
        return self._fanouts[name]

    def fanouts(self) -> dict[str, FanOut]:
        """All fan-out summaries keyed by foreign-key name (a copy)."""
        return dict(self._fanouts)

    def expected_joint_ambiguity(
        self, fk_in: ForeignKey | str, fk_out: ForeignKey | str
    ) -> float:
        """Expected ``fan_in * fan_out`` of a joint between two FK edges.

        This is the statistical stand-in for
        :func:`repro.core.ambiguity.joint_fan_counts`: instead of counting
        the actual tuples around one specific joint entity, multiply the
        average fan-outs of the two edges meeting there.
        """
        fan_in = max(1.0, self.fanout(fk_in).mean)
        fan_out = max(1.0, self.fanout(fk_out).mean)
        return fan_in * fan_out

    def describe(self) -> str:
        """Printable statistics report."""
        lines = [f"statistics for {self.database.schema.name}"]
        for name, count in sorted(self._cardinalities.items()):
            lines.append(f"  |{name}| = {count}")
        for name, fanout in sorted(self._fanouts.items()):
            lines.append(
                f"  {name}: mean fan-out {fanout.mean:.2f}, "
                f"max {fanout.maximum}, coverage {fanout.coverage:.0%}"
            )
        return "\n".join(lines)
