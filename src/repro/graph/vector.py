"""Vector backend shim: frontier-at-a-time kernels over flat CSR buffers.

The compiled graph (:mod:`repro.graph.csr`) stores adjacency as flat
``array('i')`` buffers (or ``memoryview`` slices over a snapshot mmap).
This module is the *only* place that touches numpy: it selects a
backend **once, at import time** — without importing numpy, which loads
at the first vector kernel call — and exposes whole-frontier operations
— multi-source BFS distance blocks, component labelling, batched
neighbour expansion — that :class:`~repro.graph.csr.FrozenGraph` calls
instead of its scalar loops whenever the backend is vectorized.

Backend selection and the fallback contract:

* ``numpy`` installed (and the platform little-endian) → the
  :class:`NumpyBackend`, whose kernels wrap the CSR buffers in
  **zero-copy** ``np.frombuffer`` views — mmap-backed snapshot sections
  included — and expand whole frontier slices per BFS level.
* numpy missing, a big-endian platform, or ``REPRO_NO_VECTOR`` set in
  the environment → the :class:`ScalarBackend` stub; every caller then
  runs its pure-stdlib ``array``/``bytearray`` loop.  So does a
  :class:`NumpyBackend` whose deferred numpy import fails.  The stdlib path
  is the *reference semantics*, so both backends are bit-identical by
  construction: the vector kernels are checked against it by the
  differential and Hypothesis gates.

``engine(vector=False)`` / ``FrozenGraph(vector=False)`` force the
scalar backend per engine for testing; ``vector=True`` demands the
vectorized one and fails loudly when it is unavailable.

The multi-source BFS is bit-parallel: each BFS level gathers the whole
frontier's CSR slices in one shot (``repeat``/``cumsum`` index
arithmetic), ORs per-source reachability bitmasks into the neighbours
(sort + ``bitwise_or.reduceat``), and recovers every (source, node)
depth at the end from the mask history — the number of level snapshots
in which a bit stayed unset *is* its BFS depth.  One sweep over the
edge set serves up to 64 sources per mask word.
"""

from __future__ import annotations

import os
import sys
from importlib.util import find_spec
from typing import Optional, Sequence

from repro.errors import QueryError

__all__ = [
    "BACKEND",
    "NumpyBackend",
    "ScalarBackend",
    "VectorAdjacency",
    "get_backend",
]

#: Environment variable forcing the stdlib fallback (checked at import
#: time, like numpy's presence — it simulates "numpy absent").
ENV_FLAG = "REPRO_NO_VECTOR"


class VectorAdjacency:
    """Zero-copy numpy views of one compiled graph's adjacency.

    ``offsets``/``targets`` wrap the CSR buffers in place (``array('i')``
    or snapshot ``memoryview`` alike — no bytes are copied, which is
    what keeps mmap-backed engines mmap-backed).  Patched graphs carry
    the override side-table as a node-indexed boolean mask plus per-node
    target arrays, so the gather can mix flat slices with patched rows.
    """

    __slots__ = ("offsets", "targets", "override_mask", "override_targets")

    def __init__(self, offsets, targets, override_mask, override_targets):
        self.offsets = offsets
        self.targets = targets
        self.override_mask = override_mask
        self.override_targets = override_targets


class ScalarBackend:
    """The pure-stdlib fallback: no vector kernels, only identity.

    Callers check :attr:`vectorized` and run their own ``array``/
    ``bytearray`` loops — the reference semantics every vector kernel
    must match bit for bit.
    """

    name = "stdlib"
    vectorized = False
    np = None


class NumpyBackend:
    """Whole-frontier CSR kernels on numpy views.  numpy loads at the
    first :attr:`vectorized` check, which callers make right before a
    kernel call: a process that runs no vector kernel never imports it."""

    name = "numpy"
    np = None

    #: Sources per multi-source sweep; bounds the transient bitmask
    #: width (2 uint64 words) and the per-sweep ``(chunk, capacity)``
    #: distance matrix.  Callers chunk larger blocks.
    max_sources_per_sweep = 128

    @property
    def vectorized(self) -> bool:
        """True once numpy imported; a numpy that ``find_spec`` sees but
        that fails to import turns this backend into the stdlib one."""
        if self.np is None:
            try:
                import numpy
            except ImportError:
                self.np, self.name = False, ScalarBackend.name
            else:
                self.np = numpy
        return self.np is not False

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def adjacency(self, offsets, targets, override, capacity) -> VectorAdjacency:
        """Wrap one graph's CSR buffers (and override rows) zero-copy.

        ``capacity`` may exceed ``len(offsets) - 1``: appended nodes
        have no flat slice and always carry an override row.
        """
        np = self.np
        offsets_view = np.frombuffer(offsets, dtype=np.intc)
        targets_view = (
            np.frombuffer(targets, dtype=np.intc)
            if len(targets)
            else np.empty(0, dtype=np.intc)
        )
        override_mask = None
        override_targets = None
        if override:
            override_mask = np.zeros(capacity, dtype=bool)
            override_mask[list(override)] = True
            override_targets = {
                node: np.asarray(row_targets, dtype=np.intc)
                for node, (row_targets, __, ___) in override.items()
            }
        return VectorAdjacency(
            offsets_view, targets_view, override_mask, override_targets
        )

    # ------------------------------------------------------------------
    # frontier gather
    # ------------------------------------------------------------------
    def _gather(self, adjacency: VectorAdjacency, frontier):
        """All neighbour ints of a frontier slice, with owner positions.

        Returns ``(neighbours, owners)`` where ``owners[i]`` is the
        *position within* ``frontier`` whose expansion produced
        ``neighbours[i]``.  Level semantics are set-based, so the
        ordering of the concatenated override rows is irrelevant.
        """
        np = self.np
        mask = adjacency.override_mask
        if mask is None:
            clean = frontier
            clean_positions = None
        else:
            overridden = mask[frontier]
            clean = frontier[~overridden]
            clean_positions = np.flatnonzero(~overridden)
        starts = adjacency.offsets[clean]
        counts = adjacency.offsets[clean + 1] - starts
        total = int(counts.sum())
        edge_index = (
            np.arange(total, dtype=np.int64)
            + np.repeat(starts.astype(np.int64), counts)
            - np.repeat(np.cumsum(counts, dtype=np.int64) - counts, counts)
        )
        neighbours = adjacency.targets[edge_index]
        if clean_positions is None:
            owners = np.repeat(
                np.arange(frontier.size, dtype=np.int64), counts
            )
            return neighbours, owners
        parts = [neighbours]
        owner_parts = [np.repeat(clean_positions, counts)]
        for position in np.flatnonzero(mask[frontier]):
            row = adjacency.override_targets[int(frontier[position])]
            if row.size:
                parts.append(row)
                owner_parts.append(
                    np.full(row.size, position, dtype=np.int64)
                )
        return np.concatenate(parts), np.concatenate(owner_parts)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def multi_source_distances(
        self, adjacency: VectorAdjacency, sources: Sequence[int],
        capacity: int, unreachable: int
    ):
        """One bit-parallel BFS sweep: a ``(len(sources), capacity)``
        int32 matrix of distance rows, row ``i`` from ``sources[i]``.

        ``sources`` must be distinct and ``len(sources) <=``
        :attr:`max_sources_per_sweep`.
        """
        np = self.np
        count = len(sources)
        if count == 0 or capacity == 0:
            return np.full((count, capacity), unreachable, dtype=np.int32)
        src = np.asarray(sources, dtype=np.int64)
        index = np.arange(count)
        words = (count + 63) // 64
        reached = np.zeros((capacity, words), dtype=np.uint64)
        start_bits = np.zeros((count, words), dtype=np.uint64)
        start_bits[index, index >> 6] = np.uint64(1) << (
            index & 63
        ).astype(np.uint64)
        order = np.argsort(src, kind="stable")
        frontier = src[order]
        frontier_bits = start_bits[order]
        reached[frontier] |= frontier_bits
        # Depth falls out of the mask history instead of per-level row
        # scatter: bit (n, s) is set exactly once, at source s's BFS
        # depth d, so counting the level snapshots in which it was still
        # unset yields d.  Accumulating that count is two full-matrix
        # passes per level (unpack + add) with no fancy indexing — far
        # cheaper than writing depths into the touched columns each
        # level.  uint16 bounds the diameter at 65535, far beyond any
        # graph whose capacity fits in an int32 CSR.
        acc = np.zeros((capacity, count), dtype=np.uint16)
        while frontier.size:
            acc += 1 - np.unpackbits(
                reached.view(np.uint8), axis=1, bitorder="little"
            )[:, :count]
            neighbours, owners = self._gather(adjacency, frontier)
            if neighbours.size == 0:
                break
            values = frontier_bits[owners]
            order = np.argsort(neighbours, kind="stable")
            sorted_neighbours = neighbours[order]
            boundaries = np.flatnonzero(
                np.r_[True, sorted_neighbours[1:] != sorted_neighbours[:-1]]
            )
            merged = np.bitwise_or.reduceat(values[order], boundaries, axis=0)
            distinct = sorted_neighbours[boundaries].astype(np.int64)
            new = merged & ~reached[distinct]
            advanced = new.any(axis=1)
            touched = distinct[advanced]
            if touched.size == 0:
                break
            new = new[advanced]
            reached[touched] |= new
            frontier_bits = new
            frontier = touched
        final = np.unpackbits(
            reached.view(np.uint8), axis=1, bitorder="little"
        )[:, :count]
        rows = np.where(
            final.T != 0, acc.T.astype(np.int32), np.int32(unreachable)
        )
        return np.ascontiguousarray(rows)

    def component_labels(self, adjacency: VectorAdjacency, alive, capacity):
        """Component id per node (``-1`` for tombstones), labelled in
        ascending seed order — exactly the scalar sweep's labelling."""
        np = self.np
        labels = np.full(capacity, -1, dtype=np.int32)
        if capacity == 0:
            return labels
        live = np.frombuffer(alive, dtype=np.uint8).astype(bool)
        label = 0
        seed_floor = 0
        while True:
            pending = np.flatnonzero(
                (labels[seed_floor:] == -1) & live[seed_floor:]
            )
            if pending.size == 0:
                return labels
            seed = seed_floor + int(pending[0])
            seed_floor = seed + 1
            labels[seed] = label
            frontier = np.array([seed], dtype=np.int64)
            while frontier.size:
                neighbours, __ = self._gather(adjacency, frontier)
                if neighbours.size == 0:
                    break
                distinct = np.unique(neighbours).astype(np.int64)
                fresh = distinct[labels[distinct] == -1]
                if fresh.size == 0:
                    break
                labels[fresh] = label
                frontier = fresh
            label += 1

    def frontier_neighbours(
        self, adjacency: VectorAdjacency, members: Sequence[int]
    ) -> list[int]:
        """Distinct neighbours of a member set, ascending, members
        excluded — one gather for the whole set instead of a per-member
        union (valid while live ints enumerate in sort-key order)."""
        np = self.np
        frontier = np.asarray(sorted(members), dtype=np.int64)
        neighbours, __ = self._gather(adjacency, frontier)
        if neighbours.size == 0:
            return []
        distinct = np.unique(neighbours)
        outside = distinct[np.isin(distinct, frontier, invert=True)]
        return outside.tolist()


def _select_backend():
    """Import-time backend choice; never raises, never imports numpy."""
    flag = os.environ.get(ENV_FLAG, "").strip().lower()
    if flag not in ("", "0", "false"):
        return ScalarBackend()
    if sys.byteorder != "little":  # pragma: no cover - exotic platform
        # The bit-parallel BFS unpacks uint64 masks as little-endian
        # bytes; scalar semantics are identical, just slower.
        return ScalarBackend()
    return ScalarBackend() if find_spec("numpy") is None else NumpyBackend()


#: The process-wide backend, selected once at import time.
BACKEND = _select_backend()


def get_backend(vector: Optional[bool] = None):
    """Resolve a per-engine ``vector=`` override onto a backend.

    ``None`` takes the import-time default, ``False`` forces the stdlib
    fallback, ``True`` demands the vectorized backend and raises
    :class:`~repro.errors.QueryError` when it is unavailable (numpy
    missing or :data:`ENV_FLAG` set) instead of silently degrading.
    """
    if vector is False:
        return ScalarBackend()
    if vector is True and not BACKEND.vectorized:
        raise QueryError(
            "vectorized backend unavailable",
            reason="numpy not importable or REPRO_NO_VECTOR set",
            backend=BACKEND.name,
        )
    return BACKEND
