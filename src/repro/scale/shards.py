"""Component-based sharding of the compiled graph.

Every answer the engine can produce — a path, a joining network, a
single tuple — lives entirely inside one connected component of the
data graph: a path cannot jump between components and a joining tree is
connected by definition.  Partitioning the graph along component
boundaries is therefore *lossless*: executing a query shard by shard
enumerates exactly the global answer set, and a (source, target) pair
or required-tuple assignment whose tuples sit in different shards can
be skipped without touching the graph at all.  That skip is the serving
win: with matches spread over K shards, a pair source drops from
``|A|·|B|`` enumeration set-ups to the same-shard subset, and an
N-keyword assignment product shrinks geometrically.

:class:`ShardPlan` owns the partition: a dense ``array('i')`` mapping
every interned node to its shard, built by greedily packing connected
components (largest first) onto the lightest shard — deterministic and
balanced within one component's size.  Each shard lazily compiles its
own :class:`~repro.graph.csr.FrozenGraph` with *local* dense interning
(global↔local maps via the shared :class:`TupleId` objects), so
per-query scratch state — BFS distance rows, visited bytes — is
proportional to the shard, not the database.  :class:`KeywordRouter`
answers "which shards can this query touch" straight from inverted-
index postings.

Plans survive live updates: :meth:`ShardPlan.apply_changeset` reassigns
exactly the components a changeset touched (new components go to the
lightest shard, merged components keep the lowest previous shard id)
and drops only the affected shard graphs.  A compaction of the global
graph renumbers the interning; the plan detects the stamp change and
rebuilds itself.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from repro.errors import QueryError
from repro.graph.csr import FrozenGraph
from repro.graph.fast_traversal import TraversalCache
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex

__all__ = ["CROSS_SHARD", "ShardPlan", "ShardCache", "KeywordRouter"]

#: Sentinel returned by :meth:`ShardPlan.shard_of_all` when the tuples
#: provably lie in different shards — the enumeration unit can be
#: skipped because no connected answer can cover them.
CROSS_SHARD = object()


class ShardCache:
    """A :class:`TraversalCache`-shaped adapter serving one shard.

    The CSR kernels take a cache, read its ``data_graph`` (identity
    check), call ``frozen()`` and bump its enumeration counters.  This
    adapter hands them the shard's compiled graph while forwarding every
    counter to the engine's real cache, so observability stays global.
    """

    __slots__ = ("_plan", "_shard_id", "_parent")

    def __init__(self, plan: "ShardPlan", shard_id: int, parent: TraversalCache):
        self._plan = plan
        self._shard_id = shard_id
        self._parent = parent

    @property
    def data_graph(self):
        return self._parent.data_graph

    def frozen(self) -> FrozenGraph:
        return self._plan.graph_for(self._shard_id)

    @property
    def paths_enumerated(self) -> int:
        return self._parent.paths_enumerated

    @paths_enumerated.setter
    def paths_enumerated(self, value: int) -> None:
        self._parent.paths_enumerated = value

    @property
    def trees_enumerated(self) -> int:
        return self._parent.trees_enumerated

    @trees_enumerated.setter
    def trees_enumerated(self, value: int) -> None:
        self._parent.trees_enumerated = value


class ShardPlan:
    """Partition of one compiled graph into K component-aligned shards."""

    def __init__(self, cache: TraversalCache, shard_count: int) -> None:
        if shard_count < 1:
            raise QueryError("shard_count must be positive", got=shard_count)
        self.cache = cache
        self.shard_count = shard_count
        #: Bumped whenever the assignment changes (partition, patch,
        #: rebuild) — snapshot/parallel state can key on it.
        self.version = 0
        self._assignment = array("i")
        self._stamp = -1
        self._graphs: dict[int, FrozenGraph] = {}
        self._caches: dict[int, ShardCache] = {}
        self._partition()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls, cache: TraversalCache, shard_count: int, assignment: Iterable[int]
    ) -> "ShardPlan":
        """Rebuild a plan from a snapshot's assignment section.

        The assignment indexes the snapshot's interning, so it is only
        valid against the freshly restored graph; a length mismatch
        falls back to re-partitioning.
        """
        plan = cls.__new__(cls)
        plan.cache = cache
        plan.shard_count = max(1, shard_count)
        plan.version = 0
        plan._graphs = {}
        plan._caches = {}
        frozen = cache.frozen()
        restored = array("i", assignment)
        if len(restored) == frozen.capacity:
            plan._assignment = restored
            plan._stamp = frozen.compile_stamp
        else:  # stale section: interning moved on — rebuild
            plan._assignment = array("i")
            plan._stamp = -1
            plan._partition()
        return plan

    def _partition(self) -> None:
        """(Re)assign every component, largest first onto the lightest shard."""
        frozen = self.cache.frozen()
        components = frozen.components()
        alive = frozen._alive
        sizes: dict[int, int] = {}
        for node in range(frozen.capacity):
            if alive[node]:
                sizes[components[node]] = sizes.get(components[node], 0) + 1
        loads = [0] * self.shard_count
        shard_of_component: dict[int, int] = {}
        for component, size in sorted(
            sizes.items(), key=lambda item: (-item[1], item[0])
        ):
            target = min(range(self.shard_count), key=lambda s: (loads[s], s))
            shard_of_component[component] = target
            loads[target] += size
        assignment = array("i", [-1]) * frozen.capacity
        for node in range(frozen.capacity):
            if alive[node]:
                assignment[node] = shard_of_component[components[node]]
        self._assignment = assignment
        self._stamp = frozen.compile_stamp
        self._graphs.clear()
        self._caches.clear()
        self.version += 1

    def _refresh_if_stale(self) -> None:
        """Re-partition after the global graph was recompiled (compaction
        renumbers the interning, invalidating the whole assignment)."""
        frozen = self.cache.frozen()
        if frozen.compile_stamp != self._stamp:
            self._partition()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def shard_of(self, tid: TupleId) -> Optional[int]:
        """Shard of one tuple; ``None`` when it is not in the plan."""
        self._refresh_if_stale()
        node = self.cache.frozen().node_of(tid)
        if node is None or node >= len(self._assignment):
            return None
        shard = self._assignment[node]
        return shard if shard >= 0 else None

    def shard_of_all(self, tids: Iterable[TupleId]):
        """Shared shard of a tuple group.

        Returns the shard id when every tuple maps to the same shard,
        ``None`` when any tuple is unknown to the plan (callers must
        fall back to global execution — never skip), and
        :data:`CROSS_SHARD` when two tuples provably live in different
        shards (no connected answer can cover the group).
        """
        shard: Optional[int] = None
        for tid in tids:
            current = self.shard_of(tid)
            if current is None:
                return None
            if shard is None:
                shard = current
            elif current != shard:
                return CROSS_SHARD
        return shard

    def sizes(self) -> list[int]:
        """Live tuple count per shard (balance diagnostic)."""
        self._refresh_if_stale()
        frozen = self.cache.frozen()
        alive = frozen._alive
        counts = [0] * self.shard_count
        for node, shard in enumerate(self._assignment):
            if shard >= 0 and node < len(alive) and alive[node]:
                counts[shard] += 1
        return counts

    def assignment_bytes(self) -> bytes:
        """Raw assignment array (the snapshot's shard section)."""
        self._refresh_if_stale()
        return self._assignment.tobytes()

    def describe(self) -> str:
        sizes = self.sizes()
        rendered = ", ".join(f"s{index}={size}" for index, size in enumerate(sizes))
        return f"{self.shard_count} shards ({rendered})"

    # ------------------------------------------------------------------
    # shard graphs
    # ------------------------------------------------------------------
    def graph_for(self, shard_id: int) -> FrozenGraph:
        """The shard's compiled graph with local dense interning.

        Extracted lazily from the global graph's rows: local ints keep
        the global ``_sort_key`` order (so expansion order is
        unchanged), and every CSR target stays inside the shard because
        components are never split.  Distance rows and visited scratch
        on this graph are O(shard), the locality that makes a serving
        worker's per-query state independent of total database size.
        """
        self._refresh_if_stale()
        cached = self._graphs.get(shard_id)
        if cached is not None:
            return cached
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        with obs_trace.span("shards.extract", shard=shard_id) as extract_span:
            shard_graph = self._extract_graph(shard_id)
            if extract_span is not None:
                extract_span.add(nodes=shard_graph.capacity)
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.inc("shards.extracted")
        self._graphs[shard_id] = shard_graph
        return shard_graph

    def _extract_graph(self, shard_id: int) -> FrozenGraph:
        frozen = self.cache.frozen()
        assignment = self._assignment
        alive = frozen._alive
        members = frozen._sort_ints(
            node
            for node in range(frozen.capacity)
            if node < len(assignment)
            and assignment[node] == shard_id
            and alive[node]
        )
        local_of = {node: local for local, node in enumerate(members)}
        tids = [frozen.tid_of(node) for node in members]
        offsets = array("i", [0])
        targets = array("i")
        edge_keys: list[str] = []
        edge_data: list[dict] = []
        for node in members:
            row_targets, row_keys, row_datas, start, end = frozen._row(node)
            for position in range(start, end):
                targets.append(local_of[row_targets[position]])
                edge_keys.append(row_keys[position])
                edge_data.append(row_datas[position])
            offsets.append(len(targets))
        shard_graph = FrozenGraph.from_parts(
            self.cache.data_graph,
            tids,
            offsets,
            targets,
            edge_keys,
            edge_data,
            counters=self.cache,
        )
        return shard_graph

    def cache_for(self, shard_id: int) -> ShardCache:
        """Kernel-facing cache adapter for one shard (memoised)."""
        cached = self._caches.get(shard_id)
        if cached is None:
            cached = ShardCache(self, shard_id, self.cache)
            self._caches[shard_id] = cached
        return cached

    # ------------------------------------------------------------------
    # live maintenance
    # ------------------------------------------------------------------
    def apply_changeset(self, changeset) -> None:
        """Patch the assignment in place from one applied changeset.

        Call after the compiled graph itself was patched.  Appended
        nodes extend the assignment; every component containing a
        structurally changed tuple is reassigned as a whole — to the
        lowest shard its members previously occupied (merge keeps data
        where most of it was routable before) or, for brand-new
        components, to the currently lightest shard.  Only the touched
        shards' extracted graphs are dropped.
        """
        frozen = self.cache.frozen()
        if frozen.compile_stamp != self._stamp:
            # The patch triggered a compaction: interning was renumbered,
            # so targeted repair is impossible — rebuild wholesale.
            self._partition()
            return
        assignment = self._assignment
        while len(assignment) < frozen.capacity:
            assignment.append(-1)
        alive = frozen._alive
        removed_shards: set[int] = set()
        if changeset.tuples_removed:
            # Removed tuples are already tombstoned (their node_of entry
            # is gone), so sweep stale assignments out by liveness — a
            # dead slot left assigned would leak into its shard's next
            # extraction.
            for node in range(frozen.capacity):
                if assignment[node] >= 0 and not alive[node]:
                    removed_shards.add(assignment[node])
                    assignment[node] = -1
        changed_nodes = [
            node
            for tid in changeset.structural_tuples()
            if (node := frozen.node_of(tid)) is not None
        ]
        if not changed_nodes and not removed_shards:
            return
        if not changed_nodes:
            for shard in removed_shards:
                self._graphs.pop(shard, None)
            self.version += 1
            return
        components = frozen.components()
        affected = {components[node] for node in changed_nodes}
        members_of: dict[int, list[int]] = {component: [] for component in affected}
        loads = [0] * self.shard_count
        for node in range(frozen.capacity):
            if not alive[node]:
                continue
            component = components[node]
            if component in members_of:
                members_of[component].append(node)
            elif assignment[node] >= 0:
                loads[assignment[node]] += 1
        touched_shards: set[int] = set(removed_shards)
        for component in sorted(
            affected, key=lambda c: (-len(members_of[c]), c)
        ):
            members = members_of[component]
            previous = {
                assignment[node] for node in members if assignment[node] >= 0
            }
            if previous:
                target = min(previous)
            else:
                target = min(range(self.shard_count), key=lambda s: (loads[s], s))
            for node in members:
                if assignment[node] != target and assignment[node] >= 0:
                    touched_shards.add(assignment[node])
                assignment[node] = target
            touched_shards.add(target)
            loads[target] += len(members)
        for shard in touched_shards:
            self._graphs.pop(shard, None)
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardPlan({self.describe()})"


class KeywordRouter:
    """Route keywords to the shards holding their matches.

    Built straight from inverted-index postings: a keyword's shard set
    is the set of shards containing its matching tuples.  Under AND
    semantics a shard can only produce answers when *every* keyword has
    a match in it (connected answers cover all keywords inside one
    component), so the route is the intersection; under OR semantics any
    covered subset qualifies, so it is the union.
    """

    def __init__(self, plan: ShardPlan, index: InvertedIndex) -> None:
        self.plan = plan
        self.index = index

    def shards_for(self, keyword: str) -> frozenset[int]:
        """Shards containing at least one match of one keyword."""
        shards = set()
        for tid in self.index.matching_tuples(keyword):
            shard = self.plan.shard_of(tid)
            if shard is not None:
                shards.add(shard)
        return frozenset(shards)

    def route(
        self, keywords: Sequence[str], semantics: str = "and"
    ) -> frozenset[int]:
        """Shards a query must touch; empty means no shard can answer."""
        if semantics not in ("and", "or"):
            raise QueryError("semantics must be 'and' or 'or'", got=semantics)
        sets = [self.shards_for(keyword) for keyword in keywords]
        if not sets:
            return frozenset()
        if semantics == "and":
            routed = set(sets[0])
            for shard_set in sets[1:]:
                routed &= shard_set
            return frozenset(routed)
        routed = set()
        for shard_set in sets:
            routed |= shard_set
        return frozenset(routed)

    def cost_weight(
        self, keywords: Sequence[str], semantics: str = "and"
    ) -> float:
        """Fraction of the graph the routed shards cover, in (0, 1].

        A dispatch weight for the cost-routed batch scheduler: a query
        whose keywords route to one small shard does proportionally
        less enumeration work than one touching the whole graph.  An
        empty route (no shard can answer) weighs as one tuple — the
        query is provably near-free, but never exactly zero so LPT
        tie-breaking stays well-defined.
        """
        sizes = self.plan.sizes()
        total = sum(sizes) or 1
        routed = self.route(keywords, semantics)
        if not routed:
            return 1.0 / total
        covered = sum(sizes[shard] for shard in sorted(routed))
        return covered / total
