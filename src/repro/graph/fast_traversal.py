"""The engine's traversal cache: one compiled CSR graph shared by queries.

:class:`TraversalCache` owns the lazily compiled
:class:`~repro.graph.csr.FrozenGraph` the CSR kernels run on, so one
compilation serves every query, batch and stream an engine answers, and
it counts distance-row reuse and enumeration output.  The kernels
themselves live in :mod:`repro.graph.csr`; the networkx oracle they are
differentially tested against lives in :mod:`repro.graph.traversal`.

The module keeps its historical name because the end-to-end benchmark's
span table imports ``TraversalCache`` from this path.

One :class:`TraversalCache` is owned by
:class:`~repro.core.engine.KeywordSearchEngine` and replaced by
``rebuild()``; the cache never observes database mutations on its own.
Callers that mutate tuples either rebuild, or route mutations through
``engine.apply`` — the live-update subsystem (:mod:`repro.live`) then
calls :meth:`TraversalCache.apply_changeset`, which patches the compiled
graph in place.
"""

from __future__ import annotations

from repro.graph.data_graph import DataGraph
from repro.obs import trace as obs_trace

__all__ = ["TraversalCache"]


class TraversalCache:
    """The compiled graph of one :class:`DataGraph`, shared across queries.

    The compiled graph is built lazily and stays valid exactly as long
    as the data graph does.  ``invalidate()`` drops it; the engine
    replaces the whole cache on ``rebuild()`` with its
    :meth:`successor`.  ``hits`` / ``misses`` count distance-row lookups
    so benchmarks and tests can observe reuse, and ``dense_builds`` the
    dense rows rebuilt from held balls.
    """

    def __init__(self, data_graph: DataGraph) -> None:
        self.data_graph = data_graph
        self._frozen = None
        self.hits = 0
        self.misses = 0
        self.dense_builds = 0
        #: Enumeration counters: paths / joining trees yielded through this
        #: cache.  Benchmarks compare them between pushdown and full runs
        #: to observe how much enumeration early termination skipped.
        self.paths_enumerated = 0
        self.trees_enumerated = 0
        #: Where the next compiled graph's ``compactions`` count starts.
        self._compactions = 0

    def successor(self, data_graph: DataGraph) -> "TraversalCache":
        """A fresh cache over ``data_graph`` whose counters, and its
        compiled graph's ``compactions``, continue from this one's, so
        they never run backwards.  This cache is left as it is: answers
        built on it keep reading it."""
        fresh = TraversalCache(data_graph)
        for name in ("hits", "misses", "dense_builds",
                     "paths_enumerated", "trees_enumerated"):
            setattr(fresh, name, getattr(self, name))
        fresh._compactions = (
            self._compactions if self._frozen is None else self._frozen.compactions
        )
        return fresh

    def invalidate(self) -> None:
        """Drop the compiled graph (call after graph changes)."""
        self._frozen = None

    def frozen(self):
        """The compiled :class:`~repro.graph.csr.FrozenGraph` of this
        cache's data graph, built lazily on first demand.

        It lives here so one compilation is shared by every query, batch
        and stream the engine answers, and so the live-update path
        (:meth:`apply_changeset`) can patch it in place instead of
        recompiling.
        """
        if self._frozen is None:
            from repro.graph.csr import FrozenGraph

            with obs_trace.span("csr.compile"):
                self._frozen = FrozenGraph(self.data_graph, counters=self)
            self._frozen.compactions = self._compactions
        return self._frozen

    def apply_changeset(self, changeset) -> None:
        """Patch the compiled graph, when built, with one applied
        changeset (tombstone/append + per-row edge deltas), so the next
        query pays no recompilation."""
        if self._frozen is not None:
            self._frozen.apply_changeset(changeset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraversalCache(compiled={self._frozen is not None}, "
            f"hits={self.hits}, misses={self.misses})"
        )
