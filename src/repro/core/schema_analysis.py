"""Schema-level closeness analysis.

The paper's classification runs over *schema-level* paths (Table 1) before
any instance is consulted.  This module precomputes that analysis for a
whole schema (``repro analyze`` prints it):

* :class:`SchemaAnalyzer` — enumerate and classify every ER path up to a
  length bound between every pair of entity types; expose the *closeness
  matrix* (can these two entity types be closely associated at all?);
* :func:`analyze_relational_schema` — the same analysis for a plain
  relational schema via reverse engineering (middle relations collapse to
  one conceptual step, exactly like instance-level ER length).

The analyzer is deterministic and cached per (source, target).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from repro.core.associations import AssociationVerdict, classify_er_path
from repro.er.model import ERSchema
from repro.er.paths import ERPath, enumerate_paths
from repro.er.reverse import reverse_engineer
from repro.relational.schema import DatabaseSchema

__all__ = ["SchemaPathSummary", "SchemaAnalyzer", "analyze_relational_schema"]


@dataclass(frozen=True)
class SchemaPathSummary:
    """One classified schema path."""

    path: ERPath
    verdict: AssociationVerdict

    @property
    def er_length(self) -> int:
        return self.path.length

    def describe(self) -> str:
        return f"{self.path}  ->  {self.verdict.describe()}"


class SchemaAnalyzer:
    """Exhaustive close/loose analysis of an ER schema up to a path bound."""

    def __init__(self, er_schema: ERSchema, max_length: int = 4) -> None:
        self.er_schema = er_schema
        self.max_length = max_length
        self._cache: dict[tuple[str, str], tuple[SchemaPathSummary, ...]] = {}

    # ------------------------------------------------------------------
    # path-level analysis
    # ------------------------------------------------------------------
    def paths_between(self, source: str, target: str) -> tuple[SchemaPathSummary, ...]:
        """Every classified path between two entity types (cached)."""
        key = (source, target)
        if key not in self._cache:
            summaries = tuple(
                SchemaPathSummary(path=path, verdict=classify_er_path(path))
                for path in enumerate_paths(
                    self.er_schema, source, target, self.max_length
                )
            )
            self._cache[key] = summaries
        return self._cache[key]

    def close_paths(self, source: str, target: str) -> tuple[SchemaPathSummary, ...]:
        return tuple(
            s for s in self.paths_between(source, target) if s.verdict.is_close
        )

    # ------------------------------------------------------------------
    # matrix view
    # ------------------------------------------------------------------
    def closeness_matrix(self) -> dict[tuple[str, str], str]:
        """For every unordered entity pair: 'close', 'loose', 'both' or 'none'.

        'close' — every path within the bound is close; 'loose' — every
        path is loose; 'both' — the pair has close and loose paths (the
        interesting case: ranking must discriminate); 'none' — no path
        within the bound.
        """
        names = sorted(entity.name for entity in self.er_schema.entity_types)
        matrix: dict[tuple[str, str], str] = {}
        for source, target in combinations_with_replacement(names, 2):
            if source == target:
                continue
            paths = self.paths_between(source, target)
            if not paths:
                matrix[(source, target)] = "none"
                continue
            close = sum(1 for s in paths if s.verdict.is_close)
            if close == len(paths):
                matrix[(source, target)] = "close"
            elif close == 0:
                matrix[(source, target)] = "loose"
            else:
                matrix[(source, target)] = "both"
        return matrix

    def report(self) -> str:
        """Printable per-pair analysis (Table 1 generalised to the schema)."""
        lines = [f"schema closeness analysis (paths up to {self.max_length})"]
        for (source, target), verdict in sorted(self.closeness_matrix().items()):
            lines.append(f"  {source} -- {target}: {verdict}")
            for summary in self.paths_between(source, target):
                closeness = "close" if summary.verdict.is_close else "loose"
                lines.append(f"    [{closeness}] {summary.path}")
        return "\n".join(lines)


def analyze_relational_schema(
    schema: DatabaseSchema, max_length: int = 4
) -> SchemaAnalyzer:
    """Analyze a relational schema's conceptual view.

    Reverse-engineers the ER view (middle relations become ``N:M``
    relationships, so conceptual path lengths match instance-level ER
    lengths) and wraps it in a :class:`SchemaAnalyzer`.
    """
    result = reverse_engineer(schema)
    return SchemaAnalyzer(result.er_schema, max_length=max_length)
