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

from typing import Optional

from repro.graph.data_graph import DataGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["TraversalCache"]


class TraversalCache:
    """The compiled graph of one :class:`DataGraph`, shared across queries.

    The compiled graph is built lazily and stays valid exactly as long
    as the data graph does.  ``invalidate()`` drops it; the engine
    replaces the whole cache on ``rebuild()``.  ``hits`` / ``misses``
    count distance-row lookups so benchmarks and tests can observe reuse.
    """

    def __init__(
        self, data_graph: DataGraph, vector: Optional[bool] = None
    ) -> None:
        self.data_graph = data_graph
        #: Vector-backend override threaded into the compiled CSR graph
        #: (``None`` = import-time default, ``False`` = force stdlib).
        self.vector = vector
        self._frozen = None
        self.hits = 0
        self.misses = 0
        #: Enumeration counters: paths / joining trees yielded through this
        #: cache.  Benchmarks compare them between pushdown and full runs
        #: to observe how much enumeration early termination skipped.
        self.paths_enumerated = 0
        self.trees_enumerated = 0

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

            with obs_trace.span("csr.compile") as compile_span:
                self._frozen = FrozenGraph(
                    self.data_graph, counters=self, vector=self.vector
                )
                if compile_span is not None:
                    compile_span.tag(backend=self._frozen.backend_name)
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.compiles")
        return self._frozen

    def compiled(self):
        """The compiled graph when one is held, else ``None`` — for
        callers that use it if present but must not trigger a build."""
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
