"""Graph views over database instances.

* :mod:`repro.graph.data_graph` — tuples as nodes (the BANKS view of a
  database) plus the *conceptual* collapse that removes middle-relation
  tuples;
* :mod:`repro.graph.traversal` — bounded brute-force enumeration of
  paths and joining trees: the networkx kernels :mod:`repro.oracle`
  runs;
* :mod:`repro.graph.csr` — the compiled integer-interned CSR kernel
  every engine query runs on, bit-identical to the oracle and patched
  in place by live updates;
* :mod:`repro.graph.fast_traversal` — the engine's
  :class:`TraversalCache`, which holds the compiled graph.
"""

from repro.graph.csr import FrozenGraph
from repro.graph.data_graph import DataGraph
from repro.graph.fast_traversal import TraversalCache

__all__ = [
    "DataGraph",
    "FrozenGraph",
    "TraversalCache",
]
