"""The executor's joining-network source, called on its own.

Full mode grows joining networks through ``Executor._iter_networks``
with one ``NetworkGrowth`` op over every keyword; tests that look at
the networks of a query, before any ranking or cut, call that source
here.  pytest puts ``tests/`` on ``sys.path``, so test modules import
this one as ``network_source``.
"""

from repro.core.executor import Executor
from repro.core.plan import NetworkGrowth
from repro.core.search import SearchLimits
from repro.graph.fast_traversal import TraversalCache


def joining_networks(data_graph, matches, limits=SearchLimits(), *, cache=None):
    """Every joining network covering one match tuple per keyword, in the
    order full mode enumerates them; ``cache`` defaults to a fresh
    :class:`TraversalCache` over ``data_graph``."""
    if cache is None:
        cache = TraversalCache(data_graph)
    return Executor(cache)._iter_networks(
        matches, NetworkGrowth(tuple(range(len(matches)))), limits
    )
