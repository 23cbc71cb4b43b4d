"""Fixture tests for the invariant rule battery.

Every rule gets at least one true-positive (a minimal program with the
bug shape the rule exists for) and at least one negative (the idiomatic
fix, or a context where the construct is legitimate).  Fixtures run
through :func:`analyze_source` with an impersonated ``rel_path``, so
nothing touches the real tree.
"""

import textwrap

import pytest

from repro.analysis import analyze_source

PATH = "src/repro/core/sample.py"


def hits(source, rule):
    findings = analyze_source(textwrap.dedent(source), PATH)
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

    @pytest.mark.parametrize(
        "loop, described",
        [
            ("for item in {first, second}:", "a set literal"),
            ("for item in {row for row in rows}:", "a set comprehension"),
            ("for item in frozenset(rows):", "frozenset(...)"),
            ("for item in self.seen:", "set-typed attribute 'self.seen'"),
            ("for item in tags:", "set-typed name 'tags'"),
        ],
        ids=["literal", "comprehension", "call", "attribute", "name"],
    )
    def test_message_names_the_unordered_iterable(self, loop, described):
        found = hits(
            f"""
            class Walker:
                def __init__(self, rows):
                    self.seen = set(rows)

                def collect(self, first, second, rows, tags: set):
                    out = []
                    {loop}
                        out.append(item)
                    return out
            """,
            "DET01",
        )
        assert [finding.message for finding in found] == [
            f"iteration over unordered {described} feeds append() "
            "accumulation without sorted(...)"
        ]

    def test_generator_into_an_order_freezing_call(self):
        found = hits(
            """
            def freeze(tags: frozenset):
                return tuple(tag.upper() for tag in tags)
            """,
            "DET01",
        )
        assert len(found) == 1
        assert found[0].message.endswith("feeds tuple(...) without sorted(...)")

    def test_generator_into_an_order_neutral_call_is_clean(self):
        assert not hits(
            """
            def any_upper(tags: frozenset):
                return any(tag.isupper() for tag in tags)
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
