"""Close and Loose Associations in Keyword Search from Structural Data.

A full reproduction of Vainio, Junkkari and Kekäläinen (EDBT/ICDT 2017
workshops): keyword search over relational data with ranking driven by the
*closeness* of the conceptual association between the matched tuples.

Quickstart::

    from repro import KeywordSearchEngine, build_company_database

    engine = KeywordSearchEngine(build_company_database())
    for result in engine.search("Smith XML"):
        print(engine.explain(result))

Package map
-----------
``repro.er``          cardinality algebra, ER model, mapping
``repro.relational``  in-memory relational engine with keyword index
``repro.graph``       data (tuple) graphs and the compiled CSR kernel
``repro.core``        association classification, search, ranking
``repro.oracle``      the networkx differential oracle (import explicitly)
``repro.baselines``   DISCOVER (MTJNT), the semantics the paper argues against
``repro.datasets``    the paper's example plus synthetic generators
``repro.experiments`` regeneration of every table, figure and claim
"""

from repro.core.engine import KeywordSearchEngine, SearchResult
from repro.core.associations import (
    AssociationKind,
    AssociationVerdict,
    classify_cardinalities,
    classify_er_path,
)
from repro.core.connections import Connection
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)
from repro.core.presentation import group_results, larger_context
from repro.core.schema_analysis import SchemaAnalyzer, analyze_relational_schema
from repro.core.search import SearchLimits
from repro.datasets.company import (
    build_company_database,
    build_company_er_schema,
    build_company_schema,
)
from repro.er.cardinality import Cardinality
from repro.graph.fast_traversal import TraversalCache
from repro.live.changes import ChangeSet, Delete, Insert, Update
from repro.live.result_cache import ResultCache
from repro.relational.database import Database
from repro.scale.snapshot import Snapshot

__version__ = "1.0.0"

__all__ = [
    "AssociationKind",
    "AssociationVerdict",
    "Cardinality",
    "ChangeSet",
    "ClosenessRanker",
    "Connection",
    "Database",
    "Delete",
    "ErLengthRanker",
    "InstanceAmbiguityRanker",
    "Insert",
    "KeywordSearchEngine",
    "RdbLengthRanker",
    "ResultCache",
    "SchemaAnalyzer",
    "SearchLimits",
    "SearchResult",
    "Snapshot",
    "TraversalCache",
    "Update",
    "analyze_relational_schema",
    "build_company_database",
    "build_company_er_schema",
    "build_company_schema",
    "classify_cardinalities",
    "classify_er_path",
    "group_results",
    "larger_context",
    "__version__",
]
