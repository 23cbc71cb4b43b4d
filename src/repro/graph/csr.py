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
  plus two parallel per-entry tables — the edge key (foreign-key name)
  and one referencing-flag byte (does the row's owner reference the
  neighbour?) — holding each node's incident edges pre-sorted in
  expansion order.  An edge's data dict is built only when a kernel
  yields a :class:`TuplePathStep` (:meth:`FrozenGraph._payload`).  The
  first compile fills the columns in bulk from the stored references —
  the edges :meth:`Database.references` yields — with no multigraph and
  no row per node: each row entry is one packed int, one sort orders
  every row, and each column is cut from the sorted ints in one C-level
  pass.
* **Radius-bounded distance rows.**  BFS distance maps are flat rows
  indexed by node int — the admissible-pruning lookup in the DFS inner
  loop is a C array index instead of a dict probe.  The kernels ask for
  the radius their budget can use, so the sweep stops after that many
  levels and the row is one byte per node (``0xFF`` = beyond the
  radius); the unbounded ``array('i')`` row stays as the oracle.  The
  cache holds a row as its BFS levels (the ball it covers); a query
  reads rows through one :class:`QueryRows` view, which builds each
  dense row once.  A pair bound within a budget B meets in the middle:
  a ⌊B/2⌋ ball around one end against the other end's ⌈B/2⌉ row.
* **Zero-copy DFS.**  Path enumeration keeps one shared ``bytearray``
  of visited marks and one mutable path stack, pushing and undoing in
  place; per-expansion ``visited | {other}`` / ``path + [...]`` copies
  disappear.  Tuple ids and :class:`TuplePathStep` objects are
  materialised only at yield boundaries.
* **Incremental patching.**  An applied changeset patches the interning
  table and adjacency in place — removed nodes are tombstoned, new
  nodes appended, and each touched node's row is rebuilt *from its old
  row* minus the removed edges plus the added ones, re-sorted into a
  per-node side table.  Nothing but the changeset is read — no networkx
  graph, no relation scan — save the two stored references of a
  two-tuple cycle through a self-referencing FK (one merged edge).  When
  the patched fraction crosses :attr:`FrozenGraph.compaction_threshold`
  the side tables are folded back into flat arrays (compaction), so a
  long-lived served engine never degrades into a pile of overrides.
* **Network trees.**  A joining network's spanning tree is Kruskal over
  its members' rows (:meth:`FrozenGraph.spanning_tree`), so scoring a
  network reads the compiled graph too: a csr engine never builds the
  networkx multigraph, whatever the query shape.

The kernels take the engine's
:class:`~repro.graph.fast_traversal.TraversalCache`: it holds the one
compiled graph and counts what they yield.  The output contract is the
one the differential tests enforce: same answers, same order, same
:class:`~repro.errors.SearchLimitError` budget points as
:mod:`repro.graph.traversal`.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import OrderedDict, defaultdict
from itertools import chain, count, islice, repeat
from operator import add, and_, eq, lshift, rshift
from typing import (
    TYPE_CHECKING, AbstractSet, Iterable, Iterator, Optional, Sequence, Union,
)

from repro.errors import PathError, SearchLimitError
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import TuplePathStep, _sort_key
from repro.obs import trace as obs_trace
from repro.relational.database import TupleId
from repro.relational.index import _Derived

if TYPE_CHECKING:
    from repro.graph.fast_traversal import TraversalCache

__all__ = [
    "FrozenGraph",
    "QueryRows",
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

def _bounded(radius: Optional[int]) -> Optional[int]:
    """A requested radius as rows are swept: ``None`` (unbounded) above
    :data:`_MAX_RADIUS`."""
    return None if radius is None or radius > _MAX_RADIUS else radius


def _covers(held: Optional[int], radius: Optional[int]) -> bool:
    """A row swept to ``held`` levels (``None``: unbounded) serves a
    request at ``radius``."""
    return held is None or (radius is not None and held >= radius)


def _held_bytes(levels) -> int:
    """Bytes a cached row holds: its tuple of per-depth level arrays."""
    return sys.getsizeof(levels) + sum(map(sys.getsizeof, levels))


def _index_nodes(tids) -> dict[str, dict[tuple, int]]:
    """Per relation, primary key -> position in ``tids``: plain-tuple
    hashing, where a TupleId-keyed map would hash at Python level."""
    node_of: dict[str, dict[tuple, int]] = defaultdict(dict)
    for node, tid in enumerate(tids):
        node_of[tid.relation][tid.key] = node
    return node_of


def _derived_keys(tids) -> _Derived:
    """Node int -> ``_sort_key`` of its tuple id, each derived on first use."""
    return _Derived(lambda node: _sort_key(tids[node]))


def _foreign_keys(data_graph: DataGraph) -> dict:
    """FK name -> :class:`~repro.relational.schema.ForeignKey`: what an
    edge key names in an edge's data dict."""
    return {fk.name: fk for fk in data_graph.database.schema.foreign_keys}


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
    #: a row holds its BFS levels, four bytes per node it reaches plus
    #: one array header per depth, whatever the capacity.
    max_distance_bytes = 32 << 20

    def __init__(self, data_graph: DataGraph, counters=None) -> None:
        self.data_graph = data_graph
        #: Distance-row lookups served from cache / computed fresh, and
        #: dense rows rebuilt from held levels.
        self.hits = 0
        self.misses = 0
        self.dense_builds = 0
        #: Folds made by a patch crossing the compaction threshold or by a
        #: full snapshot rewrite (a delta compaction folds nothing).
        self.compactions = 0
        #: Bumped on every (re)compilation.  A compile renumbers the
        #: dense ints, so a changed stamp marks node ints held from
        #: before it as stale.
        self.compile_stamp = 0
        #: Where distance-row hit/miss counts are recorded.  The owning
        #: :class:`~repro.graph.fast_traversal.TraversalCache` passes
        #: itself, so ``cache.hits`` means "distance lookups reused";
        #: standalone graphs count on their own attributes.
        self._counters = counters if counters is not None else self
        self._fk_of = _foreign_keys(data_graph)
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
        edge_refs,
        counters=None,
    ) -> "FrozenGraph":
        """Assemble a compiled graph from pre-built flat structures.

        The snapshot loader owns such structures: the CSR sections of an
        engine snapshot, typically ``memoryview`` slices over an
        ``mmap``.  ``tids`` is its lazily decoding interning table, in
        ``_sort_key`` order — the invariant :meth:`_compile` establishes
        — ``offsets``/``targets`` any int-indexable sequence with CSR
        semantics, ``edge_keys`` the foreign-key name per entry and
        ``edge_refs`` one byte per entry, 1 where the row's owner
        references the neighbour (a snapshot's ``edge_ref`` section,
        held as given).  No compilation pass runs and ``data_graph`` is
        read only for its schema's foreign keys: patching works from
        changesets, recompilation from the rows held here, and edge data
        dicts are built per yielded step, as on a compiled graph.
        """
        frozen = cls.__new__(cls)
        frozen.data_graph = data_graph
        frozen.hits = 0
        frozen.misses = 0
        frozen.dense_builds = 0
        frozen.compactions = 0
        frozen.compile_stamp = 1
        frozen._counters = counters if counters is not None else frozen
        frozen._fk_of = _foreign_keys(data_graph)
        # A lazily decoding interning table (a snapshot's) fills the node
        # map one relation at a time: open() should not pay for what no
        # query touches.
        frozen._tid_of = tids
        frozen._node_of = _Derived(tids.nodes_of)
        frozen._keys = _derived_keys(tids)
        frozen._ints_sorted = True
        frozen._offsets = offsets
        frozen._targets = targets
        frozen._edge_keys = edge_keys
        frozen._edge_refs = edge_refs
        frozen._reset_patches()
        return frozen

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """(Re)build the flat arrays and reset every derived structure.

        The first compilation fills the columns in bulk from the
        database's foreign-key references (:meth:`_columns_from_database`),
        never the networkx multigraph.  A graph that is already compiled —
        patched since, or assembled by :meth:`from_parts` — is
        *folded*: tombstones dropped, appended nodes merged into
        ``_sort_key`` order and the override table written back into
        flat arrays, all from its own rows (:meth:`_rows_from_self`).
        """
        self.compile_stamp += 1
        if self._tid_of is None:
            tids, node_of, offsets, targets, edge_keys, edge_refs = (
                self._columns_from_database()
            )
        else:
            tids, node_of, rows = self._rows_from_self()
            offsets = array("i", [0])
            targets = array("i")
            edge_keys: list[str] = []
            edge_refs = bytearray()
            for row_targets, row_keys, row_refs in rows:
                targets.extend(row_targets)
                edge_keys.extend(row_keys)
                edge_refs.extend(row_refs)
                offsets.append(len(targets))
        # Assigned only now: ``rows`` reads the previous state lazily.
        #: Relation -> {primary key: node int} of the live nodes.
        self._node_of = _Derived(lambda relation: {}, node_of)
        self._tid_of: list[Optional[TupleId]] = tids
        #: Per-node sort keys, derived on first use.
        self._keys = _derived_keys(tids)
        #: True while live ints enumerate in ``_sort_key`` order (no
        #: appended nodes) — int comparison then *is* key comparison.
        self._ints_sorted = True
        self._offsets = offsets
        self._targets = targets
        #: Per CSR entry: the edge key, and 1 where the row's owner is the
        #: referencing tuple (:meth:`_payload`).
        self._edge_keys = edge_keys
        self._edge_refs = edge_refs
        self._reset_patches()

    def _reset_patches(self) -> None:
        """Every node live; no override, distance row or derived state."""
        self._alive = bytearray(b"\x01") * len(self._tid_of)
        #: Patched adjacency rows: node int -> (targets, keys, refs),
        #: each row pre-sorted in expansion order.  Appended and
        #: tombstoned nodes always live here (their CSR slice is empty
        #: or stale); an entry shadows the node's CSR slice entirely.
        self._override: dict[int, tuple[list[int], list[str], list[int]]] = {}
        #: LRU of cached BFS rows, ``source -> (levels, radius, stamp,
        #: length)``: ``levels[d]`` the ``array('i')`` of nodes at depth d,
        #: radius ``None`` for an unbounded row, ``stamp`` the change-log
        #: position it was validated at and ``length`` the capacity then.
        #: Hits build the dense row, re-validate and refresh recency;
        #: eviction pops the least recent (:meth:`_evict_rows`).
        self._distances: OrderedDict[
            int, tuple[tuple[array, ...], Optional[int], int, int]
        ] = OrderedDict()
        self._distance_bytes = 0
        #: Changed nodes of every patch since the oldest held row's stamp;
        #: ``_log_start`` is the position of its first entry.
        self._change_log: list[int] = []
        self._log_start = 0
        self._neighbour_rows: dict[int, tuple[int, ...]] = {}

    def _columns_from_database(self):
        """``(tids, node map, offsets, targets, edge keys, edge refs)``
        straight from the stored references, nodes in ``_sort_key``
        order and each row in expansion order: the CSR form of
        :func:`~repro.graph.data_graph.build_tuple_graph`'s multigraph,
        without building it.  Its edges are the pairs
        :meth:`Database.references` yields — NULL and dangling references
        skip, as a referenced key no relation stores maps to no node —
        and an edge there is ``(unordered pair, fk name)``, so a
        self-reference holds one entry in its one row, and a two-tuple
        cycle through one self-referencing FK is one edge carrying the
        later reference.  Filled in bulk from the database's columns
        (:meth:`Database.rows`): no row is built, no row per node, and
        the tuple ids are the database's."""
        database = self.data_graph.database
        tids: list[TupleId] = []
        node_of: dict[str, dict[tuple, int]] = {}
        # Relation -> (its columns in store order, their node ints).
        stored: dict[str, tuple] = {}
        # Expansion order is (neighbour's sort key, FK name).  A key's
        # rank is its first node, so equal keys share one, and ties keep
        # neighbour order, as _sorted_row's stable sort does.
        rank = array("i")
        for relation in sorted(r.name for r in database.schema.relations):
            keys, row_tids, columns = database.rows(relation)
            if {str}.issuperset(map(type, chain.from_iterable(keys))):
                rendered = keys  # every part renders as itself
            else:
                rendered = [tuple(map(str, key)) for key in keys]
            # Stable: equal keys keep store (node insertion) order.
            order = sorted(range(len(keys)), key=rendered.__getitem__)
            base = len(tids)
            tids += map(row_tids.__getitem__, order)
            nodes = dict(zip(map(keys.__getitem__, order), count(base)))
            node_of[relation] = nodes
            stored[relation] = columns, list(map(nodes.__getitem__, keys))
            rendered = list(map(rendered.__getitem__, order))
            if any(map(eq, rendered, islice(rendered, 1, None))):
                rank.extend(
                    map(add, map(bisect_left, repeat(rendered), rendered), repeat(base))
                )
            else:
                rank.extend(range(base, base + len(keys)))
        fk_names = sorted(fk.name for fk in database.schema.foreign_keys)
        # One int per row entry, so one sort orders every row: owner,
        # neighbour rank, FK rank, neighbour and referencing-flag fields
        # as narrow as their values allow — entry tuples would be 60 000
        # more objects for the cyclic GC to re-scan.
        width = len(tids).bit_length()
        to_fk = width + 1
        to_rank = to_fk + len(fk_names).bit_length()
        to_owner = to_rank + width
        entries: list[int] = []
        for fk in database.schema.foreign_keys:
            columns, sources = stored[fk.source]
            # The key each source row holds, NULLs included.
            referenced = zip(*[columns[name] for name in fk.source_columns])
            targets = list(map(node_of[fk.target].get, referenced))
            if fk.source == fk.target:
                # Only a self-referencing FK can name one pair twice: the
                # later reference in store order wins.
                merged = {
                    frozenset(edge): edge
                    for edge in zip(sources, targets) if edge[1] is not None
                }.values()
                sources = [source for source, __ in merged]
                targets = [target for __, target in merged]
            by_name = fk_names.index(fk.name) << to_fk
            entries += [
                source << to_owner | rank[target] << to_rank | by_name
                | target << 1 | 1
                for source, target in zip(sources, targets) if target is not None
            ]
            entries += [
                target << to_owner | rank[source] << to_rank | by_name | source << 1
                for source, target in zip(sources, targets)
                if target is not None and target != source
            ]
        entries.sort()  # every row, each in expansion order
        # Each column in one C-level pass over the sorted entries: a
        # node's row starts at the first entry it owns.
        firsts = map(lshift, range(len(tids) + 1), repeat(to_owner))
        offsets = array("i", map(bisect_left, repeat(entries), firsts))
        neighbours = map(rshift, entries, repeat(1))
        targets = array("i", map(and_, neighbours, repeat((1 << width) - 1)))
        fk_ranks = map(rshift, entries, repeat(to_fk))
        fk_ranks = map(and_, fk_ranks, repeat((1 << to_rank - to_fk) - 1))
        edge_keys = list(map(fk_names.__getitem__, fk_ranks))
        edge_refs = bytearray(map(and_, entries, repeat(1)))
        return tids, node_of, offsets, targets, edge_keys, edge_refs

    def _rows_from_self(self):
        """``(tids, node map, rows)`` of the live nodes, renumbered
        densely in ``_sort_key`` order.  Rows keep their entry order — it
        is defined on sort keys, which renumbering preserves — so only
        the target ints are rewritten."""
        alive = self._alive
        order = [node for node in range(self.capacity) if alive[node]]
        if not self._ints_sorted:
            order.sort(key=self._keys.__getitem__)
        renumbered = array("i", [-1]) * self.capacity
        for new, old in enumerate(order):
            renumbered[old] = new
        tid_of = self._tid_of
        tids = [tid_of[old] for old in order]
        # Rebuilt now, not on the next lookup: the write after a fold
        # would pay it (five reads above every write, p95 +11.7 %).
        node_of = _index_nodes(tids)
        rows = (
            (map(renumbered.__getitem__, row_targets), row_keys, row_refs)
            for row_targets, row_keys, row_refs in map(self._row_lists, order)
        )
        return tids, node_of, rows

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

    def nbytes(self) -> int:
        """Approximate total footprint of the compiled structure."""
        footprint = self.memory_footprint()
        return footprint["total"]

    def memory_footprint(self) -> dict[str, int]:
        """Footprint estimate by section, in bytes.

        ``arrays`` covers the flat CSR buffers and liveness bits,
        ``distances`` the bytes the cached rows' level arrays hold, and
        ``payload`` the per-entry edge tables: one list slot per edge key
        plus each *distinct* key string — the strings are shared between
        entries, so they are counted once by identity — plus one
        referencing-flag byte per entry.
        """
        arrays = (
            self._offsets.itemsize * len(self._offsets)
            + self._targets.itemsize * len(self._targets)
            + len(self._alive)
        )
        distances = self._distance_bytes
        payload = 8 * len(self._edge_keys) + len(self._edge_refs)
        # id() here only dedups *shared key strings* for a byte estimate
        # that never reaches answers or snapshot bytes — the count is
        # identity-based by design and identical across runs.
        seen: set[int] = set()
        for key in self._edge_keys:
            if id(key) not in seen:  # repro-lint: disable=DET02
                seen.add(id(key))  # repro-lint: disable=DET02
                payload += sys.getsizeof(key)
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
        self, entries: list[tuple[int, str, int]]
    ) -> tuple[list[int], list[str], list[int]]:
        """``(neighbour int, edge key, referencing flag)`` entries as one
        patched row in the deterministic expansion order — the order a
        compile's packed sort (:meth:`_columns_from_database`) gives every
        row.  The key depends only on set membership, never on the
        listing order of ``entries``."""
        keys = self._keys
        entries.sort(key=lambda entry: (keys[entry[0]], entry[1]))
        return (
            [entry[0] for entry in entries],
            [entry[1] for entry in entries],
            [entry[2] for entry in entries],
        )

    def _row(self, node: int) -> tuple[Sequence[int], Sequence[str], Sequence[int], int, int]:
        """``(targets, keys, refs, start, end)`` for one node's expansion row."""
        override = self._override.get(node)
        if override is not None:
            row_targets, row_keys, row_refs = override
            return row_targets, row_keys, row_refs, 0, len(row_targets)
        return (
            self._targets,
            self._edge_keys,
            self._edge_refs,
            self._offsets[node],
            self._offsets[node + 1],
        )

    def _row_lists(self, node: int) -> tuple[list[int], list[str], list[int]]:
        """One node's expansion row as three fresh lists."""
        row_targets, row_keys, row_refs, start, end = self._row(node)
        return (
            list(row_targets[start:end]),
            list(row_keys[start:end]),
            list(row_refs[start:end]),
        )

    def _payload(self, owner: int, other: int, key: str, ref: int) -> dict:
        """The edge data of one entry of ``owner``'s row — the
        ``{"foreign_key", "referencing"}`` dict
        :func:`~repro.graph.data_graph.build_tuple_graph` attaches — from
        its edge key and flag: ``ref`` set means ``owner`` references
        ``other``.  Built per yielded step; nothing holds it."""
        return {
            "foreign_key": self._fk_of[key],
            "referencing": self._tid_of[owner if ref else other],
        }

    def neighbours(self, tid: TupleId) -> Iterator[tuple[TupleId, str, dict]]:
        """Yield ``(other, edge key, edge data)`` for each entry of
        ``tid``'s row, in expansion order; :class:`PathError` for an
        absent or tombstoned tuple."""
        node = self.node_of(tid)
        if node is None:
            raise PathError("tuple is not in the data graph", tid=str(tid))
        row_targets, row_keys, row_refs, start, end = self._row(node)
        for at in range(start, end):
            other, key = row_targets[at], row_keys[at]
            yield self._tid_of[other], key, self._payload(
                node, other, key, row_refs[at]
            )

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
        members excluded — the joining-tree growth step."""
        neighbours: set[int] = set()
        for member in members:
            for other in self.neighbour_ints(member):
                if other not in members:
                    neighbours.add(other)
        return self._sort_ints(neighbours)

    def _tree_entries(
        self, nodes: AbstractSet[int]
    ) -> list[tuple[int, int, str, int]]:
        """``(owner, other, edge key, referencing flag)`` per spanning-tree
        edge of the member ints ``nodes`` over the entries they hold among
        themselves (Kruskal): members in ``_sort_key`` order, each row in
        expansion order, so the first entry of a pair is its smallest
        edge key.  That is the order networkx's unit-weight minimum
        spanning tree took over the induced multigraph.  The scan stops
        once the tree spans every member."""
        component = {node: node for node in nodes}
        edges: list[tuple[int, int, str, int]] = []
        wanted = len(component) - 1
        for node in self._sort_ints(nodes):
            if len(edges) == wanted:
                break
            row_targets, row_keys, row_refs, start, end = self._row(node)
            for at in range(start, end):
                other = row_targets[at]
                if other in component:
                    mine, theirs = component[node], component[other]
                    if mine != theirs:  # joins two components: relabel one
                        for member, label in component.items():
                            if label == theirs:
                                component[member] = mine
                        edges.append((node, other, row_keys[at], row_refs[at]))
        return edges

    def spanning_tree(self, tids) -> list[TuplePathStep]:
        """Spanning-tree edges of the tuples ``tids``
        (:meth:`_tree_entries`); each step runs from the member whose row
        held the entry."""
        nodes = {self.node_of(tid) for tid in tids}
        nodes.discard(None)
        tid_of = self._tid_of
        return [
            TuplePathStep(
                tid_of[node], tid_of[other], key,
                self._payload(node, other, key, ref),
            )
            for node, other, key, ref in self._tree_entries(nodes)
        ]

    def tree_shape(self, tids, marked) -> tuple:
        """A canonical form of the labelled tree :meth:`spanning_tree`
        picks over ``tids``: each member labelled by its relation and by
        whether it is in ``marked``, each edge by its FK name and by
        which end references the other.  Equal forms mean isomorphic
        labelled trees.  The tree is rooted at its centre (the one or two
        members left after stripping leaves), children in sorted order —
        so the form depends on neither the members' keys nor the order
        ``tids`` lists them in — and no step or payload is built.

        A node reads ``(relation, marked, children)``, a child
        ``(FK name, parent references child, node)``; a two-member centre
        takes the smaller of its two rootings.  ``tids`` must be
        connected, as a joining network's tuples are."""
        label: dict[int, tuple] = {}
        for tid in tids:
            node = self.node_of(tid)
            if node is not None:
                label[node] = (tid.relation, tid in marked)
        adjacent: dict[int, list] = {node: [] for node in label}
        for node, other, key, ref in self._tree_entries(label.keys()):
            adjacent[node].append((other, key, ref))
            adjacent[other].append((node, key, 1 - ref))
        degree = {node: len(edges) for node, edges in adjacent.items()}
        centre = [node for node, edges in degree.items() if edges <= 1]
        remaining = len(degree)
        while remaining > 2:
            remaining -= len(centre)
            leaves = centre
            centre = []
            for leaf in leaves:
                for other, __, __ in adjacent[leaf]:
                    degree[other] -= 1
                    if degree[other] == 1:
                        centre.append(other)

        def form(node: int, parent: Optional[int]) -> tuple:
            children = [
                (key, ref, form(other, node))
                for other, key, ref in adjacent[node] if other != parent
            ]
            children.sort()
            return (*label[node], tuple(children))

        return min(form(node, None) for node in centre)

    # ------------------------------------------------------------------
    # distance rows
    # ------------------------------------------------------------------
    def _cached_row(
        self, node: int, radius: Optional[int]
    ) -> Optional[DistanceRow]:
        """The held row of ``node``, built from its levels, when it covers
        ``radius`` (unbounded, or bounded at least that far) and is current
        (:meth:`_revalidated`): a counted, LRU-refreshing hit; else a miss."""
        entry = self._distances.get(node)
        if entry is not None:
            levels, held, stamp, __ = entry
            if _covers(held, radius):
                row = self._dense_row(levels, held)
                self._counters.dense_builds += 1
                current = self._log_start + len(self._change_log)
                if stamp == current or self._revalidated(node, row, entry):
                    self._counters.hits += 1
                    self._distances.move_to_end(node)
                    return row
        self._counters.misses += 1
        return None

    def _revalidated(self, node: int, row: DistanceRow, entry) -> bool:
        """Probe a held row, built ``capacity`` long, for the nodes logged
        since its stamp (one inside its ball: dropped, ``False``), then
        re-stamp it.  Probing the batches at once equals probing each in
        turn: a row surviving one is unchanged."""
        levels, radius, stamp, __ = entry
        log, start = self._change_log, self._log_start
        beyond = _UNREACHABLE if radius is None else _BEYOND
        if any(row[changed] != beyond for changed in log[stamp - start:]):
            del self._distances[node]
            self._distance_bytes -= _held_bytes(levels)
            return False
        self._distances[node] = (levels, radius, start + len(log), self.capacity)
        self._distances.move_to_end(node)
        self._evict_rows()  # it is the newest row now: the log may shrink
        return True

    def _store_row(
        self, node: int, levels: tuple[array, ...], radius: Optional[int]
    ) -> None:
        distances = self._distances
        replaced = distances.pop(node, None)  # a shorter-radius row
        if replaced is not None:
            self._distance_bytes -= _held_bytes(replaced[0])
        distances[node] = (
            levels, radius, self._log_start + len(self._change_log), self.capacity
        )
        self._distance_bytes += _held_bytes(levels)
        self._evict_rows()

    def _evict_rows(self) -> None:
        """Pop least-recently-used rows over the byte budget (the newest
        stays) or owing more logged nodes than the capacity they were
        stamped at, then cut the log below the head's stamp — the oldest:
        hits re-stamp."""
        distances, log = self._distances, self._change_log
        end = oldest = self._log_start + len(log)
        while distances:
            levels, __, stamp, length = distances[next(iter(distances))]
            over = self._distance_bytes > self.max_distance_bytes
            if end - stamp <= length and (not over or len(distances) == 1):
                oldest = stamp
                break
            distances.popitem(last=False)
            self._distance_bytes -= _held_bytes(levels)
        del log[: oldest - self._log_start]
        self._log_start = oldest

    def _dense_row(self, levels, radius: Optional[int]) -> DistanceRow:
        """The ``capacity``-long row of a sweep with these levels: their
        depths, :data:`_BEYOND` or (unbounded) :data:`_UNREACHABLE` elsewhere."""
        if radius is None:
            row = array("i", [_UNREACHABLE]) * self.capacity
        else:
            row = bytearray(b"\xff") * self.capacity
        for depth, level in enumerate(levels):
            for node in level:
                row[node] = depth
        return row

    def _bfs_row_scalar(
        self, node: int, radius: Optional[int] = None
    ) -> tuple[DistanceRow, tuple[array, ...]]:
        """Level-by-level BFS from ``node``: ``(row, levels)``.  Without a
        radius the whole component is swept into an ``array('i')`` row
        (the oracle); with one the sweep stops after ``radius`` levels and
        the row is one byte per node, :data:`_BEYOND` past the radius.
        ``levels[d]`` holds the nodes at depth d, what the cache keeps."""
        row = self._dense_row((), radius)
        beyond = row[node]
        if radius is None:
            radius = self.capacity  # deeper than any simple path
        row[node] = 0
        frontier = [node]
        levels = [array("i", frontier)]
        # The CSR slices are read in place, not through _row(): one call
        # per frontier node was about a quarter of a bounded sweep.
        offsets, targets, override = self._offsets, self._targets, self._override
        for depth in range(1, radius + 1):
            next_frontier = []  # a list: no int conversion per append or read
            for at in frontier:
                patched = override.get(at)
                for other in (
                    patched[0] if patched is not None
                    else targets[offsets[at]:offsets[at + 1]]
                ):
                    if row[other] == beyond:
                        row[other] = depth
                        next_frontier.append(other)
            if not next_frontier:
                break
            levels.append(array("i", next_frontier))
            frontier = next_frontier
        return row, tuple(levels)

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
        radius = _bounded(radius)
        row = self._cached_row(node, radius)
        if row is None:
            row, levels = self._bfs_row_scalar(node, radius)
            self._store_row(node, levels, radius)
        return row

    def distances_block(
        self, nodes: Sequence[int], radius: Optional[int] = None
    ) -> dict[int, DistanceRow]:
        """Distance rows for many sources at once: ``{node: row}``.

        Cached rows that cover ``radius`` are served (and LRU-refreshed)
        directly; the remaining sources are swept one by one under one
        span.  Rows are identical to per-source :meth:`distances` calls.
        """
        radius = _bounded(radius)
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
                for node in missing:
                    result[node], levels = self._bfs_row_scalar(node, radius)
                    self._store_row(node, levels, radius)
                if sweep_span is not None:
                    sweep_span.add(sources=len(missing))
        return result

    def ball(self, sources: Iterable[int], radius: int) -> dict[int, int]:
        """``{node: depth}`` of every node within ``radius`` hops of the
        nearest of ``sources``, in BFS order (depths non-decreasing): the
        same level sweep as :meth:`_bfs_row_scalar`, held sparse and
        started from every source at depth 0.  The source half of a pair
        bound (:meth:`distance_between`) and the answer cache's taint
        sweep; never cached."""
        ball = dict.fromkeys(sources, 0)
        frontier = list(ball)
        offsets, targets, override = self._offsets, self._targets, self._override
        for depth in range(1, radius + 1):
            next_frontier = []
            for at in frontier:
                patched = override.get(at)
                for other in (
                    patched[0] if patched is not None
                    else targets[offsets[at]:offsets[at + 1]]
                ):
                    if other not in ball:
                        ball[other] = depth
                        next_frontier.append(other)
            if not next_frontier:
                break
            frontier = next_frontier
        return ball

    def meets(self, sources: Iterable[int], radius: int, ball) -> bool:
        """True when some node within ``radius`` hops of ``sources`` is
        in ``ball`` — the far half of a meeting-in-the-middle test.
        :meth:`ball`'s level sweep, stopping at the first node of
        ``ball`` it reaches and never storing its last level."""
        frontier = list(sources)
        if not ball.keys().isdisjoint(frontier):
            return True
        seen = set(frontier)
        offsets, targets, override = self._offsets, self._targets, self._override
        for levels_left in range(radius - 1, -1, -1):
            reached = []
            for at in frontier:
                patched = override.get(at)
                for other in (
                    patched[0] if patched is not None
                    else targets[offsets[at]:offsets[at + 1]]
                ):
                    if other in ball:
                        return True
                    if levels_left and other not in seen:
                        seen.add(other)
                        reached.append(other)
            frontier = reached
        return False

    @staticmethod
    def distance_between(
        ball: dict[int, int], row: DistanceRow, budget: int
    ) -> int:
        """Distance between ``ball``'s source s and ``row``'s source t
        when it is at most ``budget`` (B), else :data:`_UNREACHABLE`.

        Meeting in the middle: ``ball`` need only reach ⌊B/2⌋ hops and
        ``row`` ⌈B/2⌉.  On a shortest path of length d ≤ B, the node
        ``min(⌊B/2⌋, d)`` hops from s lies in the ball and at most ⌈B/2⌉
        from t, where the row is exact; every other sum over row depths
        within ⌈B/2⌉ is a walk, never shorter than d.  Deeper row slots
        (:data:`_BEYOND`, or exact depths of a wider row) are skipped.
        """
        reach = budget - budget // 2
        best = _UNREACHABLE
        for node, depth in ball.items():
            if depth >= best:
                break  # BFS order: no later node can do better
            far = row[node]
            if far <= reach and depth + far < best:
                best = depth + far
        return best if best <= budget else _UNREACHABLE

    # ------------------------------------------------------------------
    # incremental patching
    # ------------------------------------------------------------------
    def apply_changeset(self, changeset) -> int:
        """Patch the compiled structure from one applied changeset.

        Only the changeset is read: every touched row is its old row
        minus ``edges_removed`` plus ``edges_added``, re-sorted — so a
        snapshot-restored graph patches without its networkx multigraph
        or a relation scan.  Only a two-tuple cycle through a
        self-referencing FK reads the database: its two references share
        one entry (:meth:`_cycle_reference`).  Returns the number of
        distance rows dropped (their source changed); bumps
        :attr:`compactions` when the patch crossed the threshold and
        triggered a recompile.
        """
        node_of = self.node_of
        removed = [
            node
            for tid in changeset.tuples_removed
            if (node := node_of(tid)) is not None
        ]
        touched: dict[int, list[tuple[int, str, int]]] = {}

        def entries_of(node: int) -> list[tuple[int, str, int]]:
            entries = touched.get(node)
            if entries is None:
                entries = touched[node] = list(zip(*self._row_lists(node)))
            return entries

        # Pairs of distinct nodes joined through a self-referencing FK,
        # ``(low, high, fk name) -> fk``: settled after the batch.
        cycles: dict = {}

        def cycle(source: int, target: int, fk) -> bool:
            if fk.source != fk.target or source == target:
                return False
            cycles[min(source, target), max(source, target), fk.name] = fk
            return True

        # Removed edges first, while both endpoints are still interned:
        # entries name their neighbour by int, and an entry's referencing
        # tuple derives from its flag (the owner or the neighbour).
        doomed = set(removed)
        for edge in changeset.edges_removed:
            source = node_of(edge.referencing)
            target = node_of(edge.referenced)
            if source is None or target is None:
                continue
            if cycle(source, target, edge.foreign_key):
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
                for position, (neighbour, key, ref) in enumerate(entries):
                    # Node ints name live tuples one to one: comparing the
                    # entry's referencing node with ``source`` compares
                    # its referencing tuple with ``edge.referencing``.
                    if (
                        neighbour == other
                        and key == name
                        and (node if ref else neighbour) == source
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
            if cycle(source, target, edge.foreign_key):
                continue
            name = edge.foreign_key.name
            entries_of(source).append((target, name, 1))
            if target != source:
                entries_of(target).append((source, name, 0))
        # A re-inserted tuple moved to the store tail: its cycle's later
        # reference may have changed sides.
        database = self.data_graph.database
        for tid in changeset.tuples_replaced:
            values = database.values(tid)
            for fk in database.schema.foreign_keys_from(tid.relation):
                referenced = database.referenced_id(values, fk)
                if referenced is not None:
                    cycle(node_of(tid), node_of(referenced), fk)
        alive = self._alive
        for (low, high, name), fk in cycles.items():
            for node, other in ((low, high), (high, low)):
                if alive[node]:
                    entries_of(node)[:] = [
                        entry for entry in entries_of(node)
                        if entry[0] != other or entry[1] != name
                    ]
            if alive[low] and alive[high]:
                referencing = self._cycle_reference(fk, low, high)
                if referencing is not None:
                    entries_of(low).append((high, name, int(referencing == low)))
                    entries_of(high).append((low, name, int(referencing == high)))
        for node, entries in touched.items():
            self._override[node] = self._sorted_row(entries)
        changed = sorted(set(removed) | set(appended) | set(touched))
        if not changed:
            return 0
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
            self._distance_bytes -= _held_bytes(distances.pop(source)[0])
        self._change_log.extend(changed)
        self._evict_rows()
        if (
            self.capacity >= self.min_compaction_nodes
            and len(self._override) > self.compaction_threshold * self.capacity
        ):
            with obs_trace.span("csr.compact", capacity=self.capacity):
                self._compile()
            self.compactions += 1
        return len(stale)

    def _cycle_reference(self, fk, low: int, high: int) -> Optional[int]:
        """The referencing node of the one entry ``fk`` (self-referencing)
        draws between two distinct live nodes, read from the database:
        :meth:`_columns_from_database`'s rule — the later reference in store
        order when both hold — or ``None`` when neither does."""
        database = self.data_graph.database
        holding = []
        for source, target in ((low, high), (high, low)):
            values = database.values(self._tid_of[source])
            if database.referenced_id(values, fk) == self._tid_of[target]:
                holding.append(source)
        if len(holding) < 2:
            return holding[0] if holding else None
        first, second = self._tid_of[low], self._tid_of[high]
        after = database.keys_after(
            fk.source, first.key, database.count(fk.source)
        )
        return high if second.key in after else low

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenGraph(capacity={self.capacity}, live={self.live_count()}, "
            f"edges={len(self._targets)}, patched={len(self._override)}, "
            f"distances={len(self._distances)}, compactions={self.compactions})"
        )


class QueryRows:
    """One query's distance rows over ``cache``'s compiled graph: rows by
    node, balls by ``(node, radius)`` and pair distances, each fetched
    once, rows only by :meth:`FrozenGraph.distances` / ``distances_block``.
    A held row serves what :meth:`FrozenGraph._cached_row` would let it
    serve (:func:`_covers`).  The view ends with its query, and so with
    any write (the engine refuses a stream resumed across one)."""

    def __init__(self, cache: TraversalCache) -> None:
        self._cache = cache
        self._radius: dict[int, Optional[int]] = {}  # a missing row reads as -1
        self._rows: dict[int, DistanceRow] = {}
        self._balls: dict[tuple[int, int], dict[int, int]] = {}
        self._pairs: dict[tuple[int, int, int], int] = {}

    def prefetch(self, nodes: Iterable[int], radius: Optional[int]) -> None:
        """Fetch the rows ``nodes`` lack at ``radius`` as one block."""
        radius = _bounded(radius)
        missing = [n for n in nodes if not _covers(self._radius.get(n, -1), radius)]
        if missing:
            self._rows.update(self._cache.frozen().distances_block(missing, radius))
            self._radius.update(dict.fromkeys(missing, radius))

    def row(self, node: int, radius: Optional[int]) -> DistanceRow:
        """``node``'s row, exact up to ``radius``."""
        # Held radii are bounded: one past _MAX_RADIUS needs an unbounded row.
        if not _covers(self._radius.get(node, -1), radius):
            radius = _bounded(radius)
            self._rows[node] = self._cache.frozen().distances(node, radius)
            self._radius[node] = radius
        return self._rows[node]

    def ball(self, node: int, radius: int) -> dict[int, int]:
        ball = self._balls.get((node, radius))
        if ball is None:
            ball = self._cache.frozen().ball((node,), radius)
            self._balls[node, radius] = ball
        return ball

    def distance(self, source: int, target: int, budget: int) -> int:
        """The pair's distance when at most ``budget`` (B), else
        :data:`_UNREACHABLE`: a ⌊B/2⌋ ball met with a ⌈B/2⌉ row — the
        target's, unless only the source holds one.  The distance is
        symmetric, so it is memoised under both orders."""
        distance = self._pairs.get((source, target, budget))
        if distance is None:
            half = budget // 2
            if not _covers(self._radius.get(target, -1), budget - half):
                if _covers(self._radius.get(source, -1), budget - half):
                    source, target = target, source
            distance = FrozenGraph.distance_between(
                self.ball(source, half), self.row(target, budget - half), budget
            )
            self._pairs[source, target, budget] = distance
            self._pairs[target, source, budget] = distance
        return distance


def csr_enumerate_simple_paths(
    cache: TraversalCache,
    source: TupleId,
    target: TupleId,
    max_edges: int,
    max_paths: Optional[int] = None,
    *,
    rows: Optional[QueryRows] = None,
) -> Iterator[list[TuplePathStep]]:
    """Drop-in replacement for ``enumerate_simple_paths`` on the compiled core.

    Same paths, same order, same budget semantics as the oracle.
    The forward DFS runs on ints with a shared visited ``bytearray``
    and an in-place path stack (push/undo, no per-expansion copies);
    the backward BFS bound is an array lookup into the target's
    radius-⌈B/2⌉ row, and the start depth the exact pair distance
    (:meth:`FrozenGraph.distance_between`), both read through ``rows``
    (a fresh :class:`QueryRows` when none is given).  ``cache`` supplies
    the compiled :class:`FrozenGraph` and counts the paths yielded.
    """
    if max_edges < 1:
        return
    frozen = cache.frozen()
    src = frozen.node_of(source)
    dst = frozen.node_of(target)
    if src is None or dst is None:
        return

    # The target's row reaches only ⌈B/2⌉ levels (its widest levels are
    # the last ones, so half the radius is far less than half the sweep).
    # The start depth is the exact pair distance, met in the middle
    # (:meth:`QueryRows.distance`), and read first: a pair over budget
    # never sweeps the target's row.  The DFS prunes against the row only
    # while ``remaining`` is within its radius, where it is exact.
    radius = max_edges - max_edges // 2
    rows = rows or QueryRows(cache)
    shortest = rows.distance(src, dst, max_edges)
    if shortest > max_edges:
        return
    to_target = rows.row(dst, radius)

    tid_of = frozen._tid_of
    payload = frozen._payload
    offsets = frozen._offsets
    targets = frozen._targets
    edge_keys = frozen._edge_keys
    edge_refs = frozen._edge_refs
    override = frozen._override
    has_override = bool(override)
    visited = bytearray(frozen.capacity)
    produced = 0

    for depth in range(max(1, shortest), max_edges + 1):
        # One in-order DFS per depth (iterative deepening keeps shorter
        # paths first).  The active level lives in locals — ``cursor``/
        # ``limit`` walk the current expansion row ``(row_t, row_k,
        # row_r)``, which is the flat CSR slice or a patched side-table
        # row — and suspended levels sit on one stack, so the per-edge
        # inner loop touches no Python object but the arrays themselves.
        path_nodes = [src]
        visited[src] = 1
        row = override.get(src) if has_override else None
        if row is None:
            row_t, row_k, row_r = targets, edge_keys, edge_refs
            cursor, limit = offsets[src], offsets[src + 1]
        else:
            row_t, row_k, row_r = row
            cursor, limit = 0, len(row_t)
        suspended: list[tuple] = []
        remaining = depth - 1
        while True:
            if cursor >= limit:
                if not suspended:
                    break
                cursor, limit, row_t, row_k, row_r = suspended.pop()
                visited[path_nodes.pop()] = 0
                remaining += 1
                continue
            other = row_t[cursor]
            cursor += 1
            if visited[other]:
                continue
            if remaining:
                if remaining <= radius and to_target[other] > remaining:
                    continue  # cannot reach the target within this depth
                if other == dst:
                    continue  # simple paths stop at the target
                # Suspend this level; ``cursor - 1`` in the suspended
                # frame pins the edge taken to the next level, so the
                # yield below can rebuild every step without per-push
                # payload copies.
                suspended.append((cursor, limit, row_t, row_k, row_r))
                path_nodes.append(other)
                visited[other] = 1
                row = override.get(other) if has_override else None
                if row is None:
                    row_t, row_k, row_r = targets, edge_keys, edge_refs
                    cursor, limit = offsets[other], offsets[other + 1]
                else:
                    row_t, row_k, row_r = row
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
            cache.paths_enumerated += 1
            steps = []
            for level, frame in enumerate(suspended):
                taken = frame[0] - 1
                owner, step_to = path_nodes[level], path_nodes[level + 1]
                key = frame[3][taken]
                steps.append(TuplePathStep(
                    tid_of[owner], tid_of[step_to], key,
                    payload(owner, step_to, key, frame[4][taken]),
                ))
            owner, key = path_nodes[-1], row_k[cursor - 1]
            steps.append(TuplePathStep(
                tid_of[owner], tid_of[other], key,
                payload(owner, other, key, row_r[cursor - 1]),
            ))
            yield steps
        visited[src] = 0


def csr_enumerate_joining_trees(
    cache: TraversalCache,
    required: Sequence[TupleId],
    max_tuples: int,
    max_results: Optional[int] = None,
    *,
    rows: Optional[QueryRows] = None,
) -> Iterator[frozenset[TupleId]]:
    """Drop-in replacement for ``enumerate_joining_trees`` on the compiled core.

    Identical growth order and budget behaviour; the frontier grows
    frozensets of *ints* (cheap hashing, int-order sorting while the
    interning is dense) and distance pruning reads flat array rows.
    Tuple ids reappear only at yield boundaries.  ``cache`` supplies
    the compiled :class:`FrozenGraph` and counts the trees yielded;
    required rows are read through ``rows``, as in the path kernel.
    """
    required = list(dict.fromkeys(required))
    if not required:
        return
    frozen = cache.frozen()
    req: list[int] = []
    for tid in required:
        node = frozen.node_of(tid)
        if node is None:
            return
        req.append(node)

    # Pruning compares rows against ``budget`` <= ``max_tuples - 1``.
    rows = rows or QueryRows(cache)
    distance_rows = [rows.row(node, max_tuples - 1) for node in req]
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
                    cache.trees_enumerated += 1
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
