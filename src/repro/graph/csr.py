"""Compiled CSR graph kernel: the integer-interned traversal core.

The brute-force oracle in :mod:`repro.graph.traversal` re-sorts
adjacency and re-runs a BFS per call, and walks
:class:`~repro.relational.database.TupleId` objects: every expansion
hashes composite dataclass keys, every distance lookup is a dict probe,
and every visited test hashes a tuple id into a set.  This module
compiles the graph **once** into a flat integer form and runs the
kernels entirely on dense ints:

* **Interning.**  Tuple ids are interned to dense ints in
  ``_sort_key`` order, so comparing ints *is* comparing the
  deterministic expansion order the other cores sort by.
* **CSR adjacency.**  One ``array('i')`` of offsets and one of targets,
  plus a parallel edge-payload table (edge key strings and edge data
  dicts, one dict per edge shared by its two entries) holding each
  node's incident edges pre-sorted in expansion order.  The first
  compile reads ``Database.references`` directly; no multigraph.
* **Radius-bounded distance rows.**  BFS distance maps are flat rows
  indexed by node int — the admissible-pruning lookup in the DFS inner
  loop is a C array index instead of a dict probe.  The kernels ask for
  the radius their budget can use, so the sweep stops after that many
  levels and the row is one byte per node (``0xFF`` = beyond the
  radius); the unbounded ``array('i')`` row stays as the oracle.
* **Zero-copy DFS.**  Path enumeration keeps one shared ``bytearray``
  of visited marks and one mutable path stack, pushing and undoing in
  place; per-expansion ``visited | {other}`` / ``path + [...]`` copies
  disappear.  Tuple ids and :class:`TuplePathStep` objects are
  materialised only at yield boundaries.
* **Incremental patching.**  An applied changeset patches the interning
  table and adjacency in place — removed nodes are tombstoned, new
  nodes appended, and each touched node's row is rebuilt *from its old
  row* minus the removed edges plus the added ones, re-sorted into a
  per-node side table.  Nothing but the changeset is read: neither the
  networkx graph nor the database.  When the patched fraction crosses
  :attr:`FrozenGraph.compaction_threshold` the side tables are folded
  back into flat arrays (compaction), so a long-lived served engine
  never degrades into a pile of overrides.

The output contract is the one the differential tests enforce: same
answers, same order, same :class:`~repro.errors.SearchLimitError`
budget points as :mod:`repro.graph.traversal`.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, defaultdict
from typing import Iterator, Optional, Sequence, Union

from repro.errors import QueryError, SearchLimitError
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import TuplePathStep, _sort_key
from repro.graph.vector import get_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.relational.database import TupleId
from repro.relational.index import _Derived

__all__ = [
    "CORES",
    "resolve_core",
    "FrozenGraph",
    "csr_enumerate_simple_paths",
    "csr_enumerate_joining_trees",
]

_UNREACHABLE = 1 << 30
#: "Beyond the radius" in a bounded one-byte row.  Depths 0..254 are
#: exact, so a radius above ``_MAX_RADIUS`` takes the unbounded row.
_BEYOND = 0xFF
_MAX_RADIUS = _BEYOND - 1

#: A distance row: bounded ``bytearray`` or unbounded ``array('i')``.
DistanceRow = Union[bytearray, array]


def _index_nodes(tids) -> dict[str, dict[tuple, int]]:
    """Per relation, primary key -> position in ``tids``: plain-tuple
    hashing, where a TupleId-keyed map would hash at Python level."""
    node_of: dict[str, dict[tuple, int]] = defaultdict(dict)
    for node, tid in enumerate(tids):
        node_of[tid.relation][tid.key] = node
    return node_of


#: The engine's traversal kernels.  ``csr`` runs this module's integer
#: kernels and serves every production query; ``reference`` is the
#: brute-force networkx oracle they are differentially tested against —
#: both are bit-identical in answers, order and budget-error points.
CORES = ("csr", "reference")


def resolve_core(core: Optional[str] = None) -> str:
    """Validate a traversal-core selector; ``None`` means ``"csr"``."""
    if core is None:
        return "csr"
    if core not in CORES:
        raise QueryError(
            "unknown traversal core", got=core, expected=list(CORES)
        )
    return core


class FrozenGraph:
    """One :class:`DataGraph` compiled to flat integer arrays.

    The structure is immutable under queries and *patchable* under
    changesets: :meth:`apply_changeset` tombstones removed nodes,
    appends new ones and rebuilds only the touched adjacency rows from
    the changeset's edge deltas (into per-node side tables, keeping the
    sorted expansion order), then compacts — folds the side tables back
    into flat arrays — once the patched fraction crosses
    :attr:`compaction_threshold`.
    """

    #: Patched fraction (overridden + tombstoned + appended slots over
    #: capacity) above which a patch triggers recompilation.
    compaction_threshold = 0.25
    #: Never compact below this many nodes — recompiling a tiny graph
    #: costs less than tracking whether it is worth it.
    min_compaction_nodes = 64
    #: Most bytes of distance rows kept at once (LRU-evicted above it);
    #: a bounded row is ``capacity`` bytes, an unbounded one four times
    #: that.
    max_distance_bytes = 32 << 20
    #: Below this many members, the scalar per-member union over the
    #: memoized ``neighbour_ints`` rows beats the vector gather, which
    #: re-reads CSR slices every call (measured crossover ~512 on the
    #: large synthetic workload; joining-tree member sets stay far
    #: smaller, so trees take the scalar path in practice and tests
    #: lower this to force the vector one).
    vector_frontier_min = 512

    def __init__(
        self, data_graph: DataGraph, counters=None, vector: Optional[bool] = None
    ) -> None:
        self.data_graph = data_graph
        self._backend = get_backend(vector)
        self._vector_state = None
        #: Distance-row lookups served from cache / computed fresh.
        self.hits = 0
        self.misses = 0
        #: Folds made by a patch crossing the compaction threshold or by a
        #: full snapshot rewrite (a delta compaction folds nothing).
        self.compactions = 0
        #: Bumped on every (re)compilation.  A compile renumbers the
        #: dense ints, so structures keyed by node int (shard plans,
        #: snapshots) compare this stamp to detect staleness.
        self.compile_stamp = 0
        #: Where distance-row hit/miss counts are recorded.  The owning
        #: :class:`~repro.graph.fast_traversal.TraversalCache` passes
        #: itself, so ``cache.hits`` means "distance lookups reused";
        #: standalone graphs count on their own attributes.
        self._counters = counters if counters is not None else self
        self._tid_of = None  # nothing compiled yet: _compile reads the database
        self._compile()

    @classmethod
    def from_parts(
        cls,
        data_graph: DataGraph,
        tids: Sequence[TupleId],
        offsets,
        targets,
        edge_keys: Sequence[str],
        edge_data: Sequence[dict],
        counters=None,
        vector: Optional[bool] = None,
    ) -> "FrozenGraph":
        """Assemble a compiled graph from pre-built flat structures.

        Two callers own such structures: the snapshot loader (the CSR
        sections of an engine snapshot, typically ``memoryview`` slices
        over an ``mmap``) and the shard partitioner (a shard's rows
        extracted from the global graph).  ``tids`` must be in
        ``_sort_key`` order — the invariant :meth:`_compile` establishes
        — and ``offsets``/``targets`` any int-indexable sequence with
        CSR semantics.  No compilation pass runs and ``data_graph`` is
        never read: patching works from changesets, recompilation from
        the rows held here.
        """
        frozen = cls.__new__(cls)
        frozen.data_graph = data_graph
        frozen._backend = get_backend(vector)
        frozen.hits = 0
        frozen.misses = 0
        frozen.compactions = 0
        frozen.compile_stamp = 1
        frozen._counters = counters if counters is not None else frozen
        # Sort keys derive per node on first use, and a lazily decoding
        # interning table (a snapshot's) fills the node map one relation
        # at a time: open() should not pay for what no query touches.
        frozen._tid_of = tids
        nodes_of = getattr(tids, "nodes_of", None)
        frozen._node_of = (
            _Derived(nodes_of) if nodes_of is not None
            else _Derived(lambda relation: {}, _index_nodes(tids))
        )
        frozen._keys = _Derived(lambda node: _sort_key(tids[node]))
        frozen._ints_sorted = True
        frozen._offsets = offsets
        frozen._targets = targets
        # Kept as given: snapshot loaders pass lazily-decoding payload
        # tables, shard extraction passes plain lists.
        frozen._edge_keys = edge_keys
        frozen._edge_data = edge_data
        frozen._reset_patches()
        return frozen

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """(Re)build the flat arrays and reset every derived structure.

        The first compilation reads the database's foreign-key
        references directly — or the multigraph, when the data graph
        already materialised one.  A graph that is already compiled —
        patched since, or assembled by :meth:`from_parts` — is
        *folded*: tombstones dropped, appended nodes merged into
        ``_sort_key`` order and the override table written back into
        flat arrays, all from its own rows.
        """
        self.compile_stamp += 1
        if self._tid_of is not None:
            tids, keys, node_of, rows = self._rows_from_self()
        elif self.data_graph.materialized:
            tids, keys, node_of, rows = self._rows_from_graph()
        else:
            tids, keys, node_of, rows = self._rows_from_database()
        offsets = array("i", [0])
        targets = array("i")
        edge_keys: list[str] = []
        edge_data: list[dict] = []
        for row_targets, row_keys, row_datas in rows:
            targets.extend(row_targets)
            edge_keys.extend(row_keys)
            edge_data.extend(row_datas)
            offsets.append(len(targets))
        # Assigned only now: ``rows`` reads the previous state lazily.
        #: Relation -> {primary key: node int} of the live nodes.
        self._node_of = _Derived(lambda relation: {}, node_of)
        self._tid_of: list[Optional[TupleId]] = tids
        #: Per-node sort keys: a list here, derived per node on a graph
        #: assembled by :meth:`from_parts`.
        self._keys = keys
        #: True while live ints enumerate in ``_sort_key`` order (no
        #: appended nodes) — int comparison then *is* key comparison.
        self._ints_sorted = True
        self._offsets = offsets
        self._targets = targets
        self._edge_keys = edge_keys
        self._edge_data = edge_data
        self._reset_patches()

    def _reset_patches(self) -> None:
        """Every node live; no override, distance row or derived state."""
        self._alive = bytearray(b"\x01") * len(self._tid_of)
        #: Patched adjacency rows: node int -> (targets, keys, datas),
        #: each row pre-sorted in expansion order.  Appended and
        #: tombstoned nodes always live here (their CSR slice is empty
        #: or stale); an entry shadows the node's CSR slice entirely.
        self._override: dict[int, tuple[list[int], list[str], list[dict]]] = {}
        #: LRU of cached BFS rows, ``source -> (row, radius, stamp)``:
        #: radius ``None`` for an unbounded row, ``stamp`` the change-log
        #: position it was validated at.  Hits re-validate and refresh
        #: recency, eviction pops the least recent (:meth:`_evict_rows`).
        self._distances: OrderedDict[
            int, tuple[DistanceRow, Optional[int], int]
        ] = OrderedDict()
        self._distance_bytes = 0
        #: Changed nodes of every patch since the oldest held row's stamp;
        #: ``_log_start`` is the position of its first entry.
        self._change_log: list[int] = []
        self._log_start = 0
        self._components: Optional[array] = None
        self._neighbour_rows: dict[int, tuple[int, ...]] = {}
        self._vector_state = None

    def _rows_from_graph(self):
        """``(tids, sort keys, node map, rows)`` of the data graph's
        multigraph, nodes in ``_sort_key`` order and each row in
        expansion order."""
        graph = self.data_graph.graph
        tids = sorted(graph.nodes, key=_sort_key)
        node_of = _index_nodes(tids)
        # Held on the instance already: ``_sorted_row`` sorts by it.
        keys = self._keys = [_sort_key(tid) for tid in tids]
        rows = (
            self._sorted_row(
                [
                    (node_of[other.relation][other.key], key, data)
                    for __, other, key, data in graph.edges(
                        tid, keys=True, data=True
                    )
                ]
            )
            for tid in tids
        )
        return tids, keys, node_of, rows

    def _rows_from_database(self):
        """``(tids, sort keys, node map, rows)`` straight from the stored
        references: what :meth:`_rows_from_graph` reads off the
        multigraph, without building it.  An edge there is ``(unordered
        pair, fk name)``, so a self-reference holds one entry in its one
        row, and a two-tuple cycle through one self-referencing FK is
        one edge carrying the later reference's payload."""
        database = self.data_graph.database
        records = list(database.all_tuples())
        unsorted_keys = [_sort_key(record.tid) for record in records]
        # Stable: equal keys keep ``all_tuples()`` (node insertion) order.
        order = sorted(range(len(records)), key=unsorted_keys.__getitem__)
        tids = [records[at].tid for at in order]
        keys = self._keys = [unsorted_keys[at] for at in order]
        node_of = _index_nodes(tids)
        # One int per row entry — owner, neighbour and payload number in
        # 32-bit fields: entry tuples held until the rows are cut would
        # be 60 000 more objects for the cyclic GC to re-scan.
        payloads: list[dict] = []
        entries: list[int] = []
        for fk in database.schema.foreign_keys:
            source_nodes, target_nodes = node_of[fk.source], node_of[fk.target]
            # Only a self-referencing FK can name one pair twice.
            pairs: Optional[dict] = {} if fk.source == fk.target else None
            for record, referenced in database.references(fk):
                source = source_nodes[record.tid.key]
                target = target_nodes[referenced.tid.key]
                data = {"foreign_key": fk, "referencing": record.tid}
                if pairs is not None:
                    held = pairs.setdefault(frozenset((source, target)), data)
                    if held is not data:
                        held.update(data)
                        continue
                entries.append((source << 32 | target) << 32 | len(payloads))
                if target != source:
                    entries.append((target << 32 | source) << 32 | len(payloads))
                payloads.append(data)
        entries.sort()  # groups by owner; _sorted_row orders each row

        def rows():
            at, total = 0, len(entries)
            for node in range(len(tids)):
                row = []
                while at < total and (entry := entries[at]) >> 64 == node:
                    data = payloads[entry & 0xFFFFFFFF]
                    row.append(
                        (entry >> 32 & 0xFFFFFFFF, data["foreign_key"].name, data)
                    )
                    at += 1
                yield self._sorted_row(row)

        return tids, keys, node_of, rows()

    def _rows_from_self(self):
        """``(tids, sort keys, node map, rows)`` of the live nodes,
        renumbered densely in ``_sort_key`` order.  Rows keep their
        entry order — it is defined on sort keys, which renumbering
        preserves — so only the target ints are rewritten."""
        old_keys = self._keys
        alive = self._alive
        order = [node for node in range(self.capacity) if alive[node]]
        if not self._ints_sorted:
            order.sort(key=old_keys.__getitem__)
        renumbered = array("i", [-1]) * self.capacity
        for new, old in enumerate(order):
            renumbered[old] = new
        tid_of = self._tid_of
        tids = [tid_of[old] for old in order]
        keys = [old_keys[old] for old in order]
        # Rebuilt now, not on the next lookup: the write after a fold
        # would pay it (five reads above every write, p95 +11.7 %).
        node_of = _index_nodes(tids)
        rows = (
            (
                map(renumbered.__getitem__, row_targets),
                row_keys,
                row_datas,
            )
            for row_targets, row_keys, row_datas in map(self._row_lists, order)
        )
        return tids, keys, node_of, rows

    @property
    def capacity(self) -> int:
        """Interned slots including tombstones (valid int ids are ``< capacity``)."""
        return len(self._tid_of)

    def live_count(self) -> int:
        return self._alive.count(1)

    def entry_count(self) -> int:
        """CSR entries a fold would write, counted in O(override)."""
        offsets, stored = self._offsets, len(self._offsets) - 1
        return len(self._targets) + sum(
            len(row[0]) - (offsets[node + 1] - offsets[node] if node < stored else 0)
            for node, row in self._override.items()
        )

    def node_of(self, tid: TupleId) -> Optional[int]:
        """Dense int of a tuple id, ``None`` when absent or tombstoned."""
        return self._node_of[tid.relation].get(tid.key)

    def tid_of(self, node: int) -> TupleId:
        tid = self._tid_of[node]
        assert tid is not None, "tombstoned node has no tuple id"
        return tid

    def tids(self, nodes) -> list[TupleId]:
        """:meth:`tid_of` of many live nodes in one call."""
        bulk = getattr(self._tid_of, "tids", None)
        return bulk(nodes) if bulk else list(map(self._tid_of.__getitem__, nodes))

    def nbytes(self) -> int:
        """Approximate total footprint of the compiled structure."""
        footprint = self.memory_footprint()
        return footprint["total"]

    def memory_footprint(self) -> dict[str, int]:
        """Footprint estimate by section, in bytes.

        ``arrays`` covers the flat CSR buffers and liveness bits,
        ``distances`` the bytes held by cached BFS rows of either type
        (plus the component labels),
        and ``payload`` the edge-payload table: the two per-entry list
        slots plus each *distinct* edge-key string and edge-data dict —
        payload objects are shared between the two CSR entries of one
        undirected edge, so they are counted once by identity, not per
        entry.
        """
        import sys

        arrays = (
            self._offsets.itemsize * len(self._offsets)
            + self._targets.itemsize * len(self._targets)
            + len(self._alive)
        )
        distances = self._distance_bytes
        if self._components is not None:
            distances += self._components.itemsize * len(self._components)
        payload = 16 * len(self._edge_keys)  # two list slots per entry
        # id() here only dedups *shared payload objects* for a byte
        # estimate that never reaches answers or snapshot bytes — the
        # count is identity-based by design and identical across runs.
        seen: set[int] = set()
        for key in self._edge_keys:
            if id(key) not in seen:  # repro-lint: disable=DET02
                seen.add(id(key))  # repro-lint: disable=DET02
                payload += sys.getsizeof(key)
        for data in self._edge_data:
            if id(data) not in seen:  # repro-lint: disable=DET02
                seen.add(id(data))  # repro-lint: disable=DET02
                payload += sys.getsizeof(data)
        return {
            "arrays": arrays,
            "distances": distances,
            "payload": payload,
            "total": arrays + distances + payload,
        }

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _sorted_row(
        self, entries: list[tuple[int, str, dict]]
    ) -> tuple[list[int], list[str], list[dict]]:
        """``(neighbour int, edge key, edge data)`` entries as one row in
        the deterministic expansion order — the single definition both
        compilation and row patching sort by.  The key depends only on
        set membership, never on the listing order of ``entries``."""
        keys = self._keys
        entries.sort(key=lambda entry: (keys[entry[0]], entry[1]))
        return (
            [entry[0] for entry in entries],
            [entry[1] for entry in entries],
            [entry[2] for entry in entries],
        )

    def _row(self, node: int) -> tuple[Sequence[int], Sequence[str], Sequence[dict], int, int]:
        """``(targets, keys, datas, start, end)`` for one node's expansion row."""
        override = self._override.get(node)
        if override is not None:
            row_targets, row_keys, row_datas = override
            return row_targets, row_keys, row_datas, 0, len(row_targets)
        return (
            self._targets,
            self._edge_keys,
            self._edge_data,
            self._offsets[node],
            self._offsets[node + 1],
        )

    def _row_lists(self, node: int) -> tuple[list[int], list[str], list[dict]]:
        """One node's expansion row as three fresh lists."""
        row_targets, row_keys, row_datas, start, end = self._row(node)
        return (
            list(row_targets[start:end]),
            list(row_keys[start:end]),
            list(row_datas[start:end]),
        )

    def neighbour_row(self, node: int) -> Sequence[int]:
        """Neighbour ints straight off one node's expansion row — one
        per incident edge, nothing memoized (a taint sweep visits each
        node once, so the :meth:`neighbour_ints` cache would only grow)."""
        row_targets, __, __, start, end = self._row(node)
        return row_targets[start:end]

    def neighbour_ints(self, node: int) -> tuple[int, ...]:
        """Distinct neighbour ints of one node, in expansion order."""
        cached = self._neighbour_rows.get(node)
        if cached is None:
            row_targets, __, __, start, end = self._row(node)
            cached = tuple(dict.fromkeys(row_targets[start:end]))
            self._neighbour_rows[node] = cached
        return cached

    def _sort_ints(self, nodes) -> list[int]:
        """Sort node ints in ``_sort_key`` order (plain int order while
        no nodes were appended out of order)."""
        if self._ints_sorted:
            return sorted(nodes)
        return sorted(nodes, key=self._keys.__getitem__)

    def frontier_neighbour_ints(self, members) -> list[int]:
        """Distinct neighbours of a member set in expansion order,
        members excluded — the joining-tree growth step.

        On the vector backend this is one batched gather over the whole
        member set's CSR slices; ascending-int output equals expansion
        order only while :attr:`_ints_sorted` holds, so patched graphs
        with appended nodes take the scalar union, as do tiny sets.
        """
        backend = self._backend
        if (
            backend.vectorized
            and self._ints_sorted
            and len(members) >= self.vector_frontier_min
        ):
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.frontier_batches")
                obs_metrics.REGISTRY.observe(
                    "csr.frontier_members", len(members)
                )
            return backend.frontier_neighbours(
                self._vector_adjacency(), members
            )
        neighbours: set[int] = set()
        for member in members:
            for other in self.neighbour_ints(member):
                if other not in members:
                    neighbours.add(other)
        return self._sort_ints(neighbours)

    # ------------------------------------------------------------------
    # distance rows and components
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """Name of the active vector backend (``numpy`` or ``stdlib``)."""
        return self._backend.name

    def release_vector_views(self) -> None:
        """Drop the backend's zero-copy views over the CSR buffers.

        On mmap-backed graphs the views pin the snapshot's exported
        buffers — ``mmap.close()`` raises ``BufferError`` while any
        live — so the engine releases them before closing its snapshot.
        They rebuild lazily on the next vector kernel call.
        """
        self._vector_state = None

    def _vector_adjacency(self):
        """The backend's (lazily built) view of the current adjacency."""
        state = self._vector_state
        if state is None:
            state = self._vector_state = self._backend.adjacency(
                self._offsets, self._targets, self._override, self.capacity
            )
        return state

    def drop_distance_rows(self) -> None:
        """Forget every cached distance row (cold-sweep benchmarks)."""
        self._distances.clear()
        self._distance_bytes = 0

    def _cached_row(
        self, node: int, radius: Optional[int]
    ) -> Optional[DistanceRow]:
        """The held row of ``node`` when it covers ``radius`` — unbounded,
        or bounded at least that far — and is current (:meth:`_revalidated`):
        a counted, LRU-refreshing hit; otherwise a counted miss."""
        entry = self._distances.get(node)
        if entry is not None:
            row, held, stamp = entry
            if (held is None or (radius is not None and held >= radius)) and (
                stamp == self._log_start + len(self._change_log)
                or self._revalidated(node, row, held, stamp)
            ):
                self._counters.hits += 1
                self._distances.move_to_end(node)
                return row
        self._counters.misses += 1
        return None

    def _revalidated(self, node: int, row, radius, stamp: int) -> bool:
        """Probe a held row for the nodes logged since its stamp (inside
        it: dropped, ``False``; past its end, appended since: beyond), then
        grow it to ``capacity`` and re-stamp it.  Probing the batches at once
        equals probing each in turn: a row surviving one is unchanged."""
        log, start = self._change_log, self._log_start
        length, end = len(row), start + len(log)
        beyond = _UNREACHABLE if radius is None else _BEYOND
        if any(
            changed < length and row[changed] != beyond
            for changed in log[stamp - start:]
        ):
            del self._distances[node]
            self._distance_bytes -= memoryview(row).nbytes
            return False
        if length < self.capacity:
            tail = array("i", [beyond]) if radius is None else bytes((beyond,))
            tail *= self.capacity - length
            row.extend(tail)
            self._distance_bytes += memoryview(tail).nbytes
        self._distances[node] = (row, radius, end)
        self._distances.move_to_end(node)
        self._evict_rows()  # it may have grown; it is the newest row now
        return True

    def _store_row(
        self, node: int, row: DistanceRow, radius: Optional[int]
    ) -> None:
        distances = self._distances
        replaced = distances.pop(node, None)  # a shorter-radius row
        if replaced is not None:
            self._distance_bytes -= memoryview(replaced[0]).nbytes
        distances[node] = (row, radius, self._log_start + len(self._change_log))
        self._distance_bytes += memoryview(row).nbytes
        self._evict_rows()

    def _evict_rows(self) -> None:
        """Pop least-recently-used rows over the byte budget (the newest
        stays) or owing more logged nodes than they have bytes, then cut
        the log below the head's stamp — the oldest: hits re-stamp."""
        distances, log = self._distances, self._change_log
        end = oldest = self._log_start + len(log)
        while distances:
            row, __, stamp = distances[next(iter(distances))]
            nbytes = memoryview(row).nbytes
            over = self._distance_bytes > self.max_distance_bytes
            if end - stamp <= nbytes and (not over or len(distances) == 1):
                oldest = stamp
                break
            distances.popitem(last=False)
            self._distance_bytes -= nbytes
        del log[: oldest - self._log_start]
        self._log_start = oldest

    def _bfs_row_scalar(
        self, node: int, radius: Optional[int] = None
    ) -> DistanceRow:
        """Level-by-level BFS from ``node``.  Without a radius the whole
        component is swept into an ``array('i')`` row (the oracle);
        with one the sweep stops after ``radius`` levels and the row is
        one byte per node, :data:`_BEYOND` past the radius."""
        if radius is None:
            beyond = _UNREACHABLE
            row = array("i", [beyond]) * self.capacity
            radius = self.capacity  # deeper than any simple path
        else:
            beyond = _BEYOND
            row = bytearray(b"\xff") * self.capacity
        row[node] = 0
        frontier = [node]
        depth = 0
        while frontier and depth < radius:
            depth += 1
            next_frontier = []
            for at in frontier:
                row_targets, __, __, start, end = self._row(at)
                for position in range(start, end):
                    other = row_targets[position]
                    if row[other] == beyond:
                        row[other] = depth
                        next_frontier.append(other)
            frontier = next_frontier
        return row

    def _bfs_rows(
        self, sources: Sequence[int], radius: Optional[int] = None
    ) -> list[DistanceRow]:
        """Fresh BFS rows for distinct sources, in the given order.

        Bounded rows always take the scalar sweep: a ball of a few
        hundred nodes costs less than one full-matrix vector level.
        Unbounded multi-source blocks run one bit-parallel sweep per
        ``max_sources_per_sweep`` chunk on the vector backend; single
        probes (and the stdlib fallback) run the scalar loop, which
        defines the reference semantics.  Unbounded rows are plain
        ``array('i')`` either way — cached state stays
        backend-independent.
        """
        backend = self._backend
        if radius is not None or not backend.vectorized or len(sources) < 2:
            return [self._bfs_row_scalar(node, radius) for node in sources]
        adjacency = self._vector_adjacency()
        capacity = self.capacity
        rows: list[DistanceRow] = []
        chunk = backend.max_sources_per_sweep
        for start in range(0, len(sources), chunk):
            block = sources[start : start + chunk]
            matrix = backend.multi_source_distances(
                adjacency, block, capacity, _UNREACHABLE
            )
            for position in range(len(block)):
                row = array("i")
                row.frombytes(matrix[position].tobytes())
                rows.append(row)
        return rows

    def distances(
        self, node: int, radius: Optional[int] = None
    ) -> DistanceRow:
        """Flat BFS distance row from ``node``.

        Without a ``radius`` the row is exact everywhere and unreachable
        slots hold a value larger than any admissible budget.  With one,
        depths up to ``radius`` are exact and every other slot holds
        :data:`_BEYOND` (or an exact larger depth when a wider cached
        row is served) — either way ``row[x] > budget`` means "farther
        than ``budget``" for any ``budget <= radius``.
        """
        if radius is not None and radius > _MAX_RADIUS:
            radius = None
        row = self._cached_row(node, radius)
        if row is None:
            row = self._bfs_row_scalar(node, radius)
            self._store_row(node, row, radius)
        return row

    def distances_block(
        self, nodes: Sequence[int], radius: Optional[int] = None
    ) -> dict[int, DistanceRow]:
        """Distance rows for many sources at once: ``{node: row}``.

        Cached rows that cover ``radius`` are served (and LRU-refreshed)
        directly; the remaining sources are swept together.  Rows are
        identical to per-source :meth:`distances` calls on any backend.
        """
        if radius is not None and radius > _MAX_RADIUS:
            radius = None
        result: dict[int, DistanceRow] = {}
        missing: list[int] = []
        for node in dict.fromkeys(nodes):
            cached = self._cached_row(node, radius)
            if cached is not None:
                result[node] = cached
            else:
                missing.append(node)
        if missing:
            with obs_trace.span("csr.distances_block") as sweep_span:
                for node, row in zip(missing, self._bfs_rows(missing, radius)):
                    self._store_row(node, row, radius)
                    result[node] = row
                if sweep_span is not None:
                    sweep_span.tag(backend=self._backend.name)
                    sweep_span.add(sources=len(missing))
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.distance_sweeps")
                obs_metrics.REGISTRY.inc("csr.distance_rows", len(missing))
                obs_metrics.REGISTRY.observe("csr.sweep_sources", len(missing))
        return result

    def distance_within(self, row: DistanceRow, node: int, budget: int) -> int:
        """Distance from ``row``'s source to ``node`` when it is at most
        ``budget``, else :data:`_UNREACHABLE`.

        ``row`` need only cover radius ``budget - 1``: a node outside
        that ball lies exactly ``budget`` away iff one of its neighbours
        holds depth ``budget - 1`` (a shallower neighbour would have put
        the node inside the ball), and farther otherwise.
        """
        depth = row[node]
        if depth == _BEYOND and type(row) is bytearray:
            row_targets, __, __, start, end = self._row(node)
            for position in range(start, end):
                if row[row_targets[position]] == budget - 1:
                    return budget
            return _UNREACHABLE
        return depth if depth <= budget else _UNREACHABLE

    def components(self) -> array:
        """Connected-component id per node int (tombstones hold ``-1``).

        Recomputed lazily after a patch; two live nodes can reach each
        other exactly when their component ids are equal.
        """
        if self._components is not None:
            return self._components
        with obs_trace.span("csr.components", backend=self._backend.name):
            if self._backend.vectorized:
                matrix = self._backend.component_labels(
                    self._vector_adjacency(), self._alive, self.capacity
                )
                labels = array("i")
                labels.frombytes(matrix.tobytes())
                self._components = labels
                return labels
            labels = array("i", [-1]) * self.capacity
            alive = self._alive
            label = 0
            for start in range(self.capacity):
                if not alive[start] or labels[start] != -1:
                    continue
                labels[start] = label
                stack = [start]
                while stack:
                    at = stack.pop()
                    row_targets, __, __, lo, hi = self._row(at)
                    for position in range(lo, hi):
                        other = row_targets[position]
                        if labels[other] == -1:
                            labels[other] = label
                            stack.append(other)
                label += 1
            self._components = labels
            return labels

    # ------------------------------------------------------------------
    # incremental patching
    # ------------------------------------------------------------------
    def apply_changeset(self, changeset) -> int:
        """Patch the compiled structure from one applied changeset.

        Only the changeset is read: every touched row is its old row
        minus ``edges_removed`` plus ``edges_added``, re-sorted — so a
        snapshot-restored graph patches without its networkx multigraph
        or a relation scan.  Returns the number of distance rows dropped
        (their source changed); bumps :attr:`compactions` when the patch
        crossed the threshold and triggered a recompile.
        """
        node_of = self.node_of
        removed = [
            node
            for tid in changeset.tuples_removed
            if (node := node_of(tid)) is not None
        ]
        touched: dict[int, list[tuple[int, str, dict]]] = {}

        def entries_of(node: int) -> list[tuple[int, str, dict]]:
            entries = touched.get(node)
            if entries is None:
                entries = touched[node] = list(zip(*self._row_lists(node)))
            return entries

        # Removed edges first, while both endpoints are still interned:
        # entries name their neighbour by int, and a snapshot's lazy
        # payload derives ``referencing`` from the interning table.
        doomed = set(removed)
        for edge in changeset.edges_removed:
            source = node_of(edge.referencing)
            target = node_of(edge.referenced)
            if source is None or target is None:
                continue
            name = edge.foreign_key.name
            # A self-loop holds one entry, in its only endpoint's row.
            ends = [(source, target)]
            if target != source:
                ends.append((target, source))
            for node, other in ends:
                if node in doomed:
                    continue
                entries = entries_of(node)
                for position, (neighbour, key, data) in enumerate(entries):
                    if (
                        neighbour == other
                        and key == name
                        and data["referencing"] == edge.referencing
                    ):
                        del entries[position]
                        break
        for tid in changeset.tuples_removed:
            self._node_of[tid.relation].pop(tid.key, None)
        for node in removed:
            self._alive[node] = 0
            self._tid_of[node] = None
            self._override[node] = ([], [], [])
        appended = []
        for tid in changeset.tuples_added:
            nodes = self._node_of[tid.relation]
            if tid.key in nodes:
                continue
            node = nodes[tid.key] = self.capacity
            self._tid_of.append(tid)
            if type(self._keys) is list:  # else derived on first use
                self._keys.append(_sort_key(tid))
            self._alive.append(1)
            self._override[node] = ([], [], [])
            appended.append(node)
        if appended:
            self._ints_sorted = False
        for edge in changeset.edges_added:
            source = node_of(edge.referencing)
            target = node_of(edge.referenced)
            if source is None or target is None:
                continue
            # Shaped like build_tuple_graph's edge attributes; one dict
            # serves both endpoint rows.
            data = {
                "foreign_key": edge.foreign_key,
                "referencing": edge.referencing,
            }
            name = edge.foreign_key.name
            entries_of(source).append((target, name, data))
            if target != source:
                entries_of(target).append((source, name, data))
        for node, entries in touched.items():
            self._override[node] = self._sorted_row(entries)
        changed = sorted(set(removed) | set(appended) | set(touched))
        if not changed:
            return 0
        self._components = None
        self._vector_state = None  # override table / liveness changed
        for node in changed:
            self._neighbour_rows.pop(node, None)
        # A row whose source changed goes now; the others are probed for
        # the nodes logged here when next served: an edge with both
        # endpoints beyond a row (another component, or past its radius)
        # alters no distance it holds, and an appended node links in only
        # through such endpoints.
        distances = self._distances
        stale = [source for source in changed if source in distances]
        for source in stale:
            self._distance_bytes -= memoryview(distances.pop(source)[0]).nbytes
        self._change_log.extend(changed)
        self._evict_rows()
        if (
            self.capacity >= self.min_compaction_nodes
            and len(self._override) > self.compaction_threshold * self.capacity
        ):
            with obs_trace.span("csr.compact", capacity=self.capacity):
                self._compile()
            self.compactions += 1
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.inc("csr.compactions")
        return len(stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenGraph(capacity={self.capacity}, live={self.live_count()}, "
            f"edges={len(self._targets)}, patched={len(self._override)}, "
            f"distances={len(self._distances)}, compactions={self.compactions})"
        )


def _private_frozen(data_graph: DataGraph, cache) -> tuple[FrozenGraph, object]:
    """Resolve the compiled graph for one kernel call.

    A cache built on another graph would serve a stale compilation;
    fall back to a private one rather than answer wrongly.
    """
    if cache is not None and cache.data_graph is data_graph:
        return cache.frozen(), cache
    return FrozenGraph(data_graph), None


def csr_enumerate_simple_paths(
    data_graph: DataGraph,
    source: TupleId,
    target: TupleId,
    max_edges: int,
    max_paths: Optional[int] = None,
    cache=None,
) -> Iterator[list[TuplePathStep]]:
    """Drop-in replacement for ``enumerate_simple_paths`` on the compiled core.

    Same paths, same order, same budget semantics as the reference core.
    The forward DFS runs on ints with a shared visited ``bytearray``
    and an in-place path stack (push/undo, no per-expansion copies);
    the backward BFS bound is an array lookup.  ``cache`` is the
    engine's :class:`~repro.graph.fast_traversal.TraversalCache` — its
    compiled :class:`FrozenGraph` and enumeration counters are used
    when it matches ``data_graph``.
    """
    if max_edges < 1:
        return
    frozen, counters = _private_frozen(data_graph, cache)
    src = frozen.node_of(source)
    dst = frozen.node_of(target)
    if src is None or dst is None:
        return

    # The DFS only compares ``to_target`` against ``remaining`` <=
    # ``max_edges - 1``, so the row stops one level short of the budget
    # (the last level is the widest) and the source's own distance comes
    # from a neighbour probe when it lies outside that ball.
    to_target = frozen.distances(dst, radius=max_edges - 1)
    shortest = frozen.distance_within(to_target, src, max_edges)
    if shortest > max_edges:
        return

    tid_of = frozen._tid_of
    offsets = frozen._offsets
    targets = frozen._targets
    edge_keys = frozen._edge_keys
    edge_data = frozen._edge_data
    override = frozen._override
    has_override = bool(override)
    visited = bytearray(frozen.capacity)
    produced = 0

    for depth in range(max(1, shortest), max_edges + 1):
        # One in-order DFS per depth (iterative deepening keeps shorter
        # paths first).  The active level lives in locals — ``cursor``/
        # ``limit`` walk the current expansion row ``(row_t, row_k,
        # row_d)``, which is the flat CSR slice or a patched side-table
        # row — and suspended levels sit on one stack, so the per-edge
        # inner loop touches no Python object but the arrays themselves.
        path_nodes = [src]
        visited[src] = 1
        row = override.get(src) if has_override else None
        if row is None:
            row_t, row_k, row_d = targets, edge_keys, edge_data
            cursor, limit = offsets[src], offsets[src + 1]
        else:
            row_t, row_k, row_d = row
            cursor, limit = 0, len(row_t)
        suspended: list[tuple] = []
        remaining = depth - 1
        while True:
            if cursor >= limit:
                if not suspended:
                    break
                cursor, limit, row_t, row_k, row_d = suspended.pop()
                visited[path_nodes.pop()] = 0
                remaining += 1
                continue
            other = row_t[cursor]
            cursor += 1
            if visited[other]:
                continue
            if remaining:
                if to_target[other] > remaining:
                    continue  # cannot reach the target within this depth
                if other == dst:
                    continue  # simple paths stop at the target
                # Suspend this level; ``cursor - 1`` in the suspended
                # frame pins the edge taken to the next level, so the
                # yield below can rebuild every step without per-push
                # payload copies.
                suspended.append((cursor, limit, row_t, row_k, row_d))
                path_nodes.append(other)
                visited[other] = 1
                row = override.get(other) if has_override else None
                if row is None:
                    row_t, row_k, row_d = targets, edge_keys, edge_data
                    cursor, limit = offsets[other], offsets[other + 1]
                else:
                    row_t, row_k, row_d = row
                    cursor, limit = 0, len(row_t)
                remaining -= 1
                continue
            if other != dst:
                continue
            produced += 1
            if max_paths is not None and produced > max_paths:
                raise SearchLimitError(
                    "path enumeration exceeded budget",
                    max_paths=max_paths,
                    source=str(source),
                    target=str(target),
                )
            if counters is not None:
                counters.paths_enumerated += 1
            steps = []
            for level, frame in enumerate(suspended):
                taken = frame[0] - 1
                steps.append(
                    TuplePathStep(
                        tid_of[path_nodes[level]],
                        tid_of[path_nodes[level + 1]],
                        frame[3][taken],
                        frame[4][taken],
                    )
                )
            steps.append(
                TuplePathStep(
                    tid_of[path_nodes[-1]],
                    tid_of[other],
                    row_k[cursor - 1],
                    row_d[cursor - 1],
                )
            )
            yield steps
        visited[src] = 0


def csr_enumerate_joining_trees(
    data_graph: DataGraph,
    required: Sequence[TupleId],
    max_tuples: int,
    max_results: Optional[int] = None,
    cache=None,
) -> Iterator[frozenset[TupleId]]:
    """Drop-in replacement for ``enumerate_joining_trees`` on the compiled core.

    Identical growth order and budget behaviour; the frontier grows
    frozensets of *ints* (cheap hashing, int-order sorting while the
    interning is dense) and distance pruning reads flat array rows.
    Tuple ids reappear only at yield boundaries.
    """
    required = list(dict.fromkeys(required))
    if not required:
        return
    frozen, counters = _private_frozen(data_graph, cache)
    req: list[int] = []
    for tid in required:
        node = frozen.node_of(tid)
        if node is None:
            return
        req.append(node)
    components = frozen.components()
    first_component = components[req[0]]
    if any(components[node] != first_component for node in req):
        return  # some required pair is disconnected: no joining tree

    # Pruning compares rows against ``budget`` <= ``max_tuples - 1``.
    distance_rows = [
        frozen.distances(node, radius=max_tuples - 1) for node in req
    ]
    tid_of = frozen._tid_of
    ints_sorted = frozen._ints_sorted

    produced = 0
    seen: set[frozenset[int]] = set()
    frontier: list[frozenset[int]] = [frozenset([req[0]])]
    required_set = frozenset(req)

    if ints_sorted:
        frontier_key = sorted
    else:
        keys = frozen._keys
        frontier_key = lambda current: sorted(keys[node] for node in current)

    while frontier:
        next_frontier: set[frozenset[int]] = set()
        for current in sorted(frontier, key=frontier_key):
            if required_set <= current:
                if current not in seen:
                    seen.add(current)
                    produced += 1
                    if max_results is not None and produced > max_results:
                        raise SearchLimitError(
                            "joining tree enumeration exceeded budget",
                            max_results=max_results,
                        )
                    if counters is not None:
                        counters.trees_enumerated += 1
                    yield frozenset(tid_of[node] for node in current)
            if len(current) >= max_tuples:
                continue
            missing = required_set - current
            budget = max_tuples - len(current)
            if missing:
                feasible = True
                for index, node in enumerate(req):
                    if node not in missing:
                        continue
                    row = distance_rows[index]
                    best = min(row[member] for member in current)
                    if best > budget:
                        feasible = False
                        break
                if not feasible:
                    continue
            for other in frozen.frontier_neighbour_ints(current):
                next_frontier.add(current | {other})
        frontier = list(next_frontier)
