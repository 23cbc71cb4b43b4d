"""Live-update subsystem: mutate a served engine without full rebuilds.

Three layers make :class:`~repro.core.engine.KeywordSearchEngine`
safely updatable:

* :mod:`repro.live.changes` — the change-log / transaction layer.
  ``engine.apply([...])`` validates a batch of
  :class:`~repro.live.changes.Insert` / :class:`~repro.live.changes.Update`
  / :class:`~repro.live.changes.Delete` mutations against the schema's
  key and foreign-key constraints, applies it atomically (all-or-nothing
  with rollback) and returns a :class:`~repro.live.changes.ChangeSet`
  recording the net tuple and FK-edge delta.
* :mod:`repro.live.maintain` — incremental maintainers that patch the
  derived structures in place from a changeset: the inverted index (its
  ``append_tuples`` / ``reindex_tuple`` / ``remove_tuple`` hooks keep
  posting order identical to a fresh build) and the traversal cache
  (compiled rows patched from the edge deltas) — plus
  :func:`~repro.live.maintain.affected_tuples`, the ``{node int:
  depth}`` ball around a changeset's structural seeds.
* :mod:`repro.live.result_cache` — a dependency-tracked LRU answer
  cache.  Entries record the tuple footprint and per-keyword match
  fingerprint of their answers, so a changeset invalidates exactly the
  affected entries — structurally, only those whose keywords lie close
  enough to the change to share a bounded answer with it; everything
  else keeps serving.

``engine.rebuild()`` remains the escape hatch and doubles as the
differential oracle: after any interleaving of ``apply`` batches and
queries, results must be bit-identical to a freshly rebuilt engine
(``tests/properties/test_property_live.py`` asserts this, and that
the answers equal :func:`repro.oracle.search`'s, under both semantics).
"""

from repro.live.changes import (
    ChangeSet,
    Delete,
    EdgeChange,
    Insert,
    Mutation,
    Update,
    apply_to_database,
    load_mutation_batches,
    mutation_from_json,
)
from repro.live.maintain import (
    affected_tuples,
    apply_changeset,
    apply_to_index,
)
from repro.live.result_cache import CacheEntry, CacheStats, ResultCache

__all__ = [
    "ChangeSet",
    "Delete",
    "EdgeChange",
    "Insert",
    "Mutation",
    "Update",
    "apply_to_database",
    "load_mutation_batches",
    "mutation_from_json",
    "affected_tuples",
    "apply_changeset",
    "apply_to_index",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
]
