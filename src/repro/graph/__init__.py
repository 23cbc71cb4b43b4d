"""Graph views over schemas and database instances.

* :mod:`repro.graph.schema_graph` — relations as nodes, foreign keys as
  edges annotated with the cardinality they implement;
* :mod:`repro.graph.data_graph` — tuples as nodes (the BANKS view of a
  database) plus the *conceptual* collapse that removes middle-relation
  tuples;
* :mod:`repro.graph.traversal` — bounded brute-force enumeration of
  paths and joining trees: the ``reference`` core and test oracle;
* :mod:`repro.graph.csr` — the compiled integer-interned CSR kernel
  (the engine's default core), bit-identical to the oracle and patched
  in place by live updates;
* :mod:`repro.graph.fast_traversal` — the engine's
  :class:`TraversalCache`, which holds the compiled graph.
"""

from repro.graph.schema_graph import SchemaGraph
from repro.graph.csr import FrozenGraph, resolve_core
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache

__all__ = [
    "DataGraph",
    "FrozenGraph",
    "SchemaGraph",
    "TraversalCache",
    "resolve_core",
]
