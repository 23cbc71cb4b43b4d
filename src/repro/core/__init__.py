"""The paper's contribution: close/loose association analysis for keyword search.

* :mod:`repro.core.associations` — classify (transitive) relationships by
  their cardinality constraints (paper section 2, Table 1);
* :mod:`repro.core.connections` — tuple connections with RDB and conceptual
  (ER) lengths (paper section 3, Tables 2 and 3);
* :mod:`repro.core.matching` — keyword-to-tuple matching;
* :mod:`repro.core.search` — enumeration of connections / joining networks;
* :mod:`repro.core.ranking` — ranking strategies, including the paper's
  closeness-first proposal and the instance-level refinement its future
  work sketches;
* :mod:`repro.core.plan` — the query plan IR and planner (every query
  shape compiles to one plan);
* :mod:`repro.core.executor` — streaming plan execution with generalized
  top-k pushdown;
* :mod:`repro.core.engine` — the :class:`KeywordSearchEngine` facade.
"""

from repro.core.associations import (
    AssociationKind,
    AssociationVerdict,
    classify_cardinalities,
    classify_er_path,
    loose_joints,
)
from repro.core.connections import Connection, ConceptualStep
from repro.core.matching import KeywordMatch, match_keywords
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    Ranker,
    RdbLengthRanker,
    rank_connections,
)
from repro.core.executor import ExecutionStats, Executor
from repro.core.plan import QueryPlan, lower_bound_for, plan_query
from repro.core.engine import KeywordSearchEngine, SearchResult

__all__ = [
    "AssociationKind",
    "AssociationVerdict",
    "ClosenessRanker",
    "ConceptualStep",
    "Connection",
    "ErLengthRanker",
    "ExecutionStats",
    "Executor",
    "InstanceAmbiguityRanker",
    "KeywordMatch",
    "KeywordSearchEngine",
    "QueryPlan",
    "Ranker",
    "RdbLengthRanker",
    "SearchResult",
    "classify_cardinalities",
    "classify_er_path",
    "loose_joints",
    "lower_bound_for",
    "match_keywords",
    "plan_query",
    "rank_connections",
]
