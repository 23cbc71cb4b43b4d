"""Layer spans recorded from outside the engine, by wrapping public calls.

``Recorder.wrap(owner, attribute, name)`` swaps a function for a shim
that appends ``[name, start, end, parent]`` to an in-memory list and
calls the original; nothing in ``src/`` is edited or re-implemented.  A
span's *self time* is its duration minus its direct children's, so the
self times of one client call add up to that call's outermost span.
"""

from __future__ import annotations

import json
from time import perf_counter

NAME, START, END, PARENT = range(4)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._table: list[tuple] = []  # (owner, attribute, original, shim)
        self._installed = False

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Register ``owner.attribute`` (module global or method defined
        on the class itself) to be recorded as ``name`` while installed."""
        original = vars(owner)[attribute]
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        self._table.append((owner, attribute, original, shim))

    def install(self) -> None:
        if not self._installed:
            for owner, attribute, __, shim in self._table:
                setattr(owner, attribute, shim)
            self._installed = True

    def remove(self) -> None:
        if self._installed:
            for owner, attribute, original, __ in self._table:
                setattr(owner, attribute, original)
            self._installed = False

    def mark(self) -> int:
        """Position to pass to :meth:`since` for the spans that follow."""
        return len(self.spans)

    def since(self, mark: int) -> list[dict]:
        """Per outermost span recorded after ``mark``: ``{"name", "wall",
        "self": {span name: self seconds}}``."""
        spans = self.spans[mark:]
        self_time = [span[END] - span[START] for span in spans]
        root = list(range(len(spans)))
        for index, span in enumerate(spans):
            parent = span[PARENT] - mark
            if parent >= 0:
                self_time[parent] -= span[END] - span[START]
                root[index] = root[parent]
        calls: dict[int, dict] = {}
        for index, span in enumerate(spans):
            call = calls.get(root[index])
            if call is None:
                top = spans[root[index]]
                call = calls[root[index]] = {
                    "name": top[NAME],
                    "wall": top[END] - top[START],
                    "self": {},
                }
            call["self"][span[NAME]] = (
                call["self"].get(span[NAME], 0.0) + self_time[index]
            )
        return list(calls.values())

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                )
                handle.write("\n")


def engine_recorder() -> Recorder:
    """The wrap table of README "Traced run": one shim per layer
    boundary.  A name the engine module imported is patched in that
    module's namespace, a method on its class."""
    import repro.core.engine as engine_module
    import repro.scale.snapshot as snapshot_module
    from repro.core.executor import Executor
    from repro.durable.wal import WriteAheadLog
    from repro.graph.csr import FrozenGraph
    from repro.graph.fast_traversal import TraversalCache
    from repro.live.result_cache import ResultCache
    from repro.planner.cost import CostModel
    from repro.scale.parallel import ParallelSearcher

    facade = engine_module.KeywordSearchEngine
    recorder = Recorder()
    for owner, attribute, name in (
        (facade, "search", "core.facade"),
        (facade, "apply", "core.facade"),
        (facade, "search_batch", "core.facade"),
        (facade, "compact_wal", "durable.compact"),
        (facade, "attach_wal", "durable.replay"),
        (facade, "query_cost", "planner.cost"),
        (engine_module, "match_keywords", "relational.match"),
        (engine_module, "plan_query", "core.plan"),
        (CostModel, "annotate", "planner.annotate"),
        (Executor, "run", "core.execute"),
        (FrozenGraph, "distances_block", "graph.prefetch"),
        (ResultCache, "lookup", "live.cache_lookup"),
        (ResultCache, "store", "live.cache_store"),
        (ResultCache, "invalidate", "live.invalidate"),
        (engine_module, "affected_tuples", "live.invalidate"),
        (engine_module, "apply_to_database", "live.apply_db"),
        (engine_module, "apply_changeset", "live.maintain"),
        (WriteAheadLog, "append", "durable.wal_append"),
        (ParallelSearcher, "run", "scale.pool_run"),
        (snapshot_module, "load_engine", "scale.open"),
        (engine_module, "InvertedIndex", "relational.index_build"),
        (engine_module, "DataGraph", "graph.compile"),
        (TraversalCache, "frozen", "graph.compile"),
    ):
        recorder.wrap(owner, attribute, name)
    return recorder
