"""Fixture tests for the invariant rule battery.

Every rule gets at least one true-positive (a minimal program with the
bug shape the rule exists for) and at least one negative (the idiomatic
fix, or a context where the construct is legitimate).  Fixtures run
through :func:`analyze_source` with an impersonated ``rel_path`` so
module-scoped behaviour (FRZ01 home modules, SLOT01 hot modules) is
exercised without touching the real tree.
"""

import textwrap

from repro.analysis import analyze_source

PATH = "src/repro/core/sample.py"


def hits(source, rule, path=PATH):
    findings = analyze_source(textwrap.dedent(source), path)
    return [finding for finding in findings if finding.rule == rule]


# ----------------------------------------------------------------------
# DET01 — unordered iteration feeding order-sensitive accumulation
# ----------------------------------------------------------------------
class TestDet01:
    def test_for_loop_append_over_set_param(self):
        found = hits(
            """
            def collect(items: set):
                out = []
                for item in items:
                    out.append(item)
                return out
            """,
            "DET01",
        )
        assert len(found) == 1
        assert "append" in found[0].message

    def test_sorted_for_loop_is_clean(self):
        assert not hits(
            """
            def collect(items: set):
                out = []
                for item in sorted(items):
                    out.append(item)
                return out
            """,
            "DET01",
        )

    def test_yield_from_set_iteration(self):
        found = hits(
            """
            def emit(seen: frozenset):
                for item in seen:
                    yield item
            """,
            "DET01",
        )
        assert len(found) == 1

    def test_listcomp_over_set(self):
        assert hits(
            """
            def snapshot(tags: frozenset):
                return [tag for tag in tags]
            """,
            "DET01",
        )

    def test_listcomp_inside_sorted_is_clean(self):
        assert not hits(
            """
            def snapshot(tags: frozenset):
                return sorted([tag for tag in tags])
            """,
            "DET01",
        )

    def test_list_conversion_of_set_literal(self):
        found = hits(
            """
            def freeze(pending: set):
                order = list(pending)
                return order
            """,
            "DET01",
        )
        assert len(found) == 1

    def test_list_conversion_for_mutability_only_is_clean(self):
        # The csr.py joining-trees idiom: list() exists for mutability,
        # every later read is order-neutral.
        assert not hits(
            """
            def drain(pending: set):
                frontier = list(pending)
                if frontier:
                    return sorted(frontier)
                return []
            """,
            "DET01",
        )

    def test_min_with_key_over_set_ties_on_iteration_order(self):
        assert hits(
            """
            def pick(candidates: set):
                return min(candidates, key=str)
            """,
            "DET01",
        )

    def test_min_by_value_over_set_is_clean(self):
        assert not hits(
            """
            def pick(candidates: set):
                return min(candidates)
            """,
            "DET01",
        )

    def test_pr4_shape_set_attribute_into_induced_subgraph(self):
        # The exact PR 4 incident: a frozenset attribute handed straight
        # to networkx, whose MST tie-break follows insertion order.
        found = hits(
            """
            class Network:
                def __init__(self, tuple_ids: frozenset):
                    self.tuples = tuple_ids

                def tree(self, graph):
                    return graph.induced_subgraph(self.tuples)
            """,
            "DET01",
        )
        assert len(found) == 1
        assert "self.tuples" in found[0].message

    def test_pr4_shape_sorted_is_clean(self):
        assert not hits(
            """
            class Network:
                def __init__(self, tuple_ids: frozenset):
                    self.tuples = tuple_ids

                def tree(self, graph):
                    return graph.induced_subgraph(sorted(self.tuples))
            """,
            "DET01",
        )

    def test_set_inferred_from_assignment(self):
        assert hits(
            """
            def gather(rows):
                keys = {row.key for row in rows}
                return list(keys)
            """,
            "DET01",
        )


# ----------------------------------------------------------------------
# DET02 — process-dependent id()/hash() values
# ----------------------------------------------------------------------
class TestDet02:
    def test_id_call(self):
        found = hits(
            """
            def tag(obj):
                return id(obj)
            """,
            "DET02",
        )
        assert len(found) == 1

    def test_sort_key_id(self):
        assert hits(
            """
            def rank(items):
                return sorted(items, key=id)
            """,
            "DET02",
        )

    def test_hash_of_tuple_outside_dunder_hash(self):
        assert hits(
            """
            def digest(pair):
                return hash(pair)
            """,
            "DET02",
        )

    def test_hash_inside_dunder_hash_is_clean(self):
        assert not hits(
            """
            class Key:
                def __hash__(self):
                    return hash((self.a, self.b))
            """,
            "DET02",
        )

    def test_hash_of_int_constant_is_clean(self):
        assert not hits(
            """
            def probe():
                return hash(5)
            """,
            "DET02",
        )


# ----------------------------------------------------------------------
# PKL01 — stateful ReproError subclass without __reduce__
# ----------------------------------------------------------------------
class TestPkl01:
    def test_stateful_subclass_without_reduce(self):
        found = hits(
            """
            from repro.errors import ReproError

            class ShardError(ReproError):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard
            """,
            "PKL01",
        )
        assert len(found) == 1
        assert "ShardError" in found[0].message

    def test_reduce_makes_it_clean(self):
        assert not hits(
            """
            from repro.errors import ReproError

            class ShardError(ReproError):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard

                def __reduce__(self):
                    return (type(self), (self.args[0], self.shard))
            """,
            "PKL01",
        )

    def test_getstate_also_counts_as_pickle_hook(self):
        assert not hits(
            """
            from repro.errors import ReproError

            class ShardError(ReproError):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard

                def __getstate__(self):
                    return {"shard": self.shard}
            """,
            "PKL01",
        )

    def test_stateless_subclass_is_clean(self):
        assert not hits(
            """
            from repro.errors import ReproError

            class ShardError(ReproError):
                \"\"\"No own __init__: base __reduce__ covers it.\"\"\"
            """,
            "PKL01",
        )

    def test_transitive_subclass_is_caught(self):
        found = hits(
            """
            from repro.errors import ReproError

            class ScaleError(ReproError):
                pass

            class ShardError(ScaleError):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard
            """,
            "PKL01",
        )
        assert [f.message for f in found] and "ShardError" in found[0].message

    def test_unrelated_stateful_class_is_clean(self):
        assert not hits(
            """
            class Config:
                def __init__(self, depth):
                    self.depth = depth
            """,
            "PKL01",
        )


# ----------------------------------------------------------------------
# FRZ01 — mutation of frozen structures outside their modules
# ----------------------------------------------------------------------
FRZ_MUTATION = """
    def patch(cache):
        frozen = cache.frozen()
        frozen._alive[3] = 0
"""


class TestFrz01:
    def test_subscript_store_into_frozen_factory_result(self):
        found = hits(FRZ_MUTATION, "FRZ01", path="src/repro/live/maintain.py")
        assert len(found) == 1
        assert "frozen" in found[0].message

    def test_home_module_is_exempt(self):
        assert not hits(FRZ_MUTATION, "FRZ01", path="src/repro/graph/csr.py")

    def test_sanctioned_entry_point_is_exempt(self):
        assert not hits(
            """
            def apply_changeset(cache, changes):
                frozen = cache.frozen()
                frozen._alive[3] = 0
            """,
            "FRZ01",
            path="src/repro/live/maintain.py",
        )

    def test_mutator_method_on_frozen_attribute(self):
        found = hits(
            """
            def trim(cache):
                frozen = cache.frozen()
                frozen._distances.pop(1)
            """,
            "FRZ01",
        )
        assert len(found) == 1
        assert ".pop()" in found[0].message

    def test_annotation_marks_parameter_frozen(self):
        assert hits(
            """
            def tweak(graph: FrozenGraph):
                graph._offsets[0] = 1
            """,
            "FRZ01",
        )

    def test_constructor_result_tracked(self):
        assert hits(
            """
            def build(data):
                graph = FrozenGraph(data)
                graph.tids.append(0)
            """,
            "FRZ01",
        )

    def test_reads_are_clean(self):
        assert not hits(
            """
            def inspect(cache):
                frozen = cache.frozen()
                return frozen._alive[3], len(frozen._offsets)
            """,
            "FRZ01",
        )


# ----------------------------------------------------------------------
# RES01 — resource acquired without a paired close()
# ----------------------------------------------------------------------
class TestRes01:
    def test_inline_open_read(self):
        found = hits(
            """
            def peek(path):
                return open(path).read()
            """,
            "RES01",
        )
        assert len(found) == 1
        assert "inline" in found[0].message

    def test_leaked_local_handle(self):
        assert hits(
            """
            def leak(path):
                handle = open(path)
                data = handle.read()
                return data
            """,
            "RES01",
        )

    def test_returning_read_data_is_not_an_escape(self):
        # ``return handle.read()`` returns the *data*; the handle itself
        # still leaks.
        assert hits(
            """
            def sneaky(path):
                handle = open(path)
                return handle.read()
            """,
            "RES01",
        )

    def test_with_statement_is_clean(self):
        assert not hits(
            """
            def read(path):
                with open(path) as handle:
                    return handle.read()
            """,
            "RES01",
        )

    def test_try_finally_close_is_clean(self):
        assert not hits(
            """
            def read(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
            """,
            "RES01",
        )

    def test_returning_the_handle_transfers_ownership(self):
        assert not hits(
            """
            def acquire(path):
                handle = open(path)
                return handle
            """,
            "RES01",
        )

    def test_wrapping_the_handle_transfers_ownership(self):
        assert not hits(
            """
            def acquire(path):
                handle = open(path)
                return Reader(handle)
            """,
            "RES01",
        )

    def test_alternate_constructor_open_is_not_a_file(self):
        assert not hits(
            """
            def serve(path):
                engine = Engine.open(path)
                return engine.search("q")
            """,
            "RES01",
        )

    def test_self_attribute_with_closing_method_is_clean(self):
        assert not hits(
            """
            class Holder:
                def __init__(self, path):
                    self._handle = open(path)

                def close(self):
                    self._handle.close()
            """,
            "RES01",
        )

    def test_self_attribute_without_closing_method(self):
        found = hits(
            """
            class Holder:
                def __init__(self, path):
                    self._handle = open(path)
            """,
            "RES01",
        )
        assert len(found) == 1
        assert "self._handle" in found[0].message

    def test_mmap_without_release(self):
        assert hits(
            """
            import mmap

            def map_it(fileno):
                view = mmap.mmap(fileno, 0)
                return view.size()
            """,
            "RES01",
        )

    def test_pipe_ends_appended_to_owner_list_are_clean(self):
        assert not hits(
            """
            def spawn(mp, workers):
                parent_end, child_end = mp.Pipe()
                workers.append((parent_end, child_end))
            """,
            "RES01",
        )

    def test_returning_a_fresh_handle_is_the_callers_pairing(self):
        assert not hits(
            """
            import mmap

            def map_it(fileno):
                return mmap.mmap(fileno, 0)
            """,
            "RES01",
        )


# ----------------------------------------------------------------------
# API01 — broad exception handlers that swallow
# ----------------------------------------------------------------------
class TestApi01:
    def test_broad_except_pass(self):
        found = hits(
            """
            def guard(work):
                try:
                    work()
                except Exception:
                    pass
            """,
            "API01",
        )
        assert len(found) == 1

    def test_bare_except_continue(self):
        assert hits(
            """
            def drain(jobs):
                for job in jobs:
                    try:
                        job()
                    except:
                        continue
            """,
            "API01",
        )

    def test_specific_exception_pass_is_clean(self):
        assert not hits(
            """
            def guard(mapping, key):
                try:
                    return mapping[key]
                except KeyError:
                    return None
            """,
            "API01",
        )

    def test_reraise_is_clean(self):
        assert not hits(
            """
            def guard(work):
                try:
                    work()
                except Exception:
                    raise
            """,
            "API01",
        )

    def test_using_the_bound_error_is_clean(self):
        assert not hits(
            """
            def guard(work):
                try:
                    work()
                except Exception as error:
                    return str(error)
            """,
            "API01",
        )

    def test_recording_call_is_clean(self):
        assert not hits(
            """
            def guard(work, log):
                try:
                    work()
                except Exception:
                    log.warning("work failed")
            """,
            "API01",
        )


# ----------------------------------------------------------------------
# SLOT01 — hot-path dataclasses without __slots__
# ----------------------------------------------------------------------
DATACLASS = """
    from dataclasses import dataclass

    @dataclass
    class Box:
        x: int
"""


class TestSlot01:
    def test_hot_module_dataclass_without_slots(self):
        found = hits(DATACLASS, "SLOT01", path="src/repro/graph/widgets.py")
        assert len(found) == 1
        assert "Box" in found[0].message

    def test_scale_module_is_hot_too(self):
        assert hits(DATACLASS, "SLOT01", path="src/repro/scale/widgets.py")

    def test_cold_module_is_clean(self):
        assert not hits(DATACLASS, "SLOT01", path="src/repro/io/widgets.py")

    def test_slots_true_is_clean(self):
        assert not hits(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Box:
                x: int
            """,
            "SLOT01",
            path="src/repro/graph/widgets.py",
        )

    def test_explicit_dunder_slots_is_clean(self):
        assert not hits(
            """
            from dataclasses import dataclass

            @dataclass
            class Box:
                __slots__ = ("x",)
                x: int
            """,
            "SLOT01",
            path="src/repro/graph/widgets.py",
        )

    def test_frozen_without_slots_still_flagged(self):
        assert hits(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Box:
                x: int
            """,
            "SLOT01",
            path="src/repro/graph/widgets.py",
        )

    def test_plain_class_is_clean(self):
        assert not hits(
            """
            class Box:
                def __init__(self, x):
                    self.x = x
            """,
            "SLOT01",
            path="src/repro/graph/widgets.py",
        )


# ----------------------------------------------------------------------
# DUR01 — durable artefacts written outside fsync + os.replace
# ----------------------------------------------------------------------
DURABLE_PATH = "src/repro/durable/sample.py"
SCALE_PATH = "src/repro/scale/sample.py"


class TestDur01:
    def test_direct_write_in_durable_module(self):
        found = hits(
            """
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
            "DUR01",
            path=DURABLE_PATH,
        )
        assert len(found) == 1
        assert "os.replace" in found[0].message

    def test_scale_module_is_also_in_scope(self):
        assert hits(
            """
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """,
            "DUR01",
            path=SCALE_PATH,
        )

    def test_atomic_protocol_is_clean(self):
        assert not hits(
            """
            import os
            import tempfile

            def save(path, data):
                fd, temp = tempfile.mkstemp(dir=".")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, path)
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_fsync_without_replace_still_flagged(self):
        assert hits(
            """
            import os

            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
                    os.fsync(handle.fileno())
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_replace_without_fsync_still_flagged(self):
        assert hits(
            """
            import os

            def save(path, temp, data):
                with open(temp, "wb") as handle:
                    handle.write(data)
                os.replace(temp, path)
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_read_and_update_modes_are_out_of_scope(self):
        assert not hits(
            """
            def scan(path):
                with open(path, "rb") as handle:
                    data = handle.read()
                handle = open(path, "r+b")
                handle.close()
                return data
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_path_open_write_method_is_flagged(self):
        assert hits(
            """
            def save(path, data):
                with path.open("w") as handle:
                    handle.write(data)
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_exclusive_create_mode_is_flagged(self):
        assert hits(
            """
            def save(path, data):
                with open(path, mode="xb") as handle:
                    handle.write(data)
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_alternate_constructor_open_is_not_a_write(self):
        assert not hits(
            """
            def reopen(path):
                return KeywordSearchEngine.open(path, "csr")
            """,
            "DUR01",
            path=DURABLE_PATH,
        )

    def test_other_modules_are_out_of_scope(self):
        assert not hits(
            """
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
            "DUR01",
        )


class TestRes01RawDescriptors:
    def test_os_close_by_argument_releases(self):
        assert not hits(
            """
            import os

            def fsync_directory(directory):
                fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
            "RES01",
        )

    def test_inline_acquire_release_expression(self):
        assert not hits(
            """
            import os

            def touch_exclusively(path):
                os.close(os.open(path, os.O_CREAT | os.O_EXCL))
            """,
            "RES01",
        )

    def test_raw_descriptor_without_os_close_still_flagged(self):
        assert hits(
            """
            import os

            def fsync_directory(directory):
                fd = os.open(directory, os.O_RDONLY)
                os.fsync(fd)
            """,
            "RES01",
        )
