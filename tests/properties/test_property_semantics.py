"""Cross-level properties: schema verdicts predict instance behaviour.

The paper's whole argument rests on one implication: a *transitive
functional* cardinality sequence guarantees an unambiguous association at
the extensional level.  These tests verify that implication mechanically —
for generated chain schemas and instances, the classifier's verdict is
checked against the actual end-to-end tuple relation computed by joining.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.associations import classify_cardinalities
from repro.er.cardinality import Cardinality

from er_schemas import chain_schema, instantiate_er

cardinality_texts = st.sampled_from(["1:1", "1:N", "N:1", "N:M"])
chains = st.lists(cardinality_texts, min_size=1, max_size=3)

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def end_to_end_pairs(database, mapping, schema, chain):
    """All (first, last) tuple-id pairs related through the whole chain.

    Walks the chain relation by relation, following the foreign key (or
    middle relation) that implements each relationship.
    """
    pairs = {
        (record.tid, record.tid) for record in database.tuples("E0")
    }
    for index, __ in enumerate(chain):
        relationship = schema.relationship(f"R{index}")
        next_pairs = set()
        if relationship.cardinality.is_many_to_many:
            middle_name = mapping.relation_of_relationship[relationship.name]
            left_fk, right_fk = (
                mapping.schema.foreign_key(name)
                for name in mapping.middle_fks[relationship.name]
            )
            links = set()
            for middle in database.tuples(middle_name):
                left = database.referenced_tuple(middle, left_fk)
                right = database.referenced_tuple(middle, right_fk)
                if left and right:
                    links.add((left.tid, right.tid))
            for start, current in pairs:
                for left_tid, right_tid in links:
                    if left_tid == current:
                        next_pairs.add((start, right_tid))
        else:
            fk = mapping.schema.foreign_key(
                mapping.fk_of_relationship[relationship.name]
            )
            holder_is_right = fk.source == f"E{index + 1}"
            for record in database.tuples(fk.source):
                target = database.referenced_tuple(record, fk)
                if target is None:
                    continue
                if holder_is_right:
                    link = (target.tid, record.tid)
                else:
                    link = (record.tid, target.tid)
                for start, current in pairs:
                    if link[0] == current:
                        next_pairs.add((start, link[1]))
        pairs = next_pairs
    return pairs


class TestFunctionalVerdictHoldsOnInstances:
    @relaxed
    @given(chains, st.integers(min_value=0, max_value=30))
    def test_forward_functional_is_single_valued(self, chain, seed):
        """If the composition is left-to-right functional, every E0 tuple
        reaches at most one terminal tuple."""
        verdict = classify_cardinalities(
            [Cardinality.parse(text) for text in chain]
        )
        schema = chain_schema(chain)
        database, mapping = instantiate_er(schema, per_entity=4, seed=seed)
        pairs = end_to_end_pairs(database, mapping, schema, chain)
        if verdict.composed.forward_functional:
            starts = [start for start, __ in pairs]
            assert len(starts) == len(set(starts))

    @relaxed
    @given(chains, st.integers(min_value=0, max_value=30))
    def test_backward_functional_is_single_valued(self, chain, seed):
        """If the composition is right-to-left functional, every terminal
        tuple is reached from at most one E0 tuple."""
        verdict = classify_cardinalities(
            [Cardinality.parse(text) for text in chain]
        )
        schema = chain_schema(chain)
        database, mapping = instantiate_er(schema, per_entity=4, seed=seed)
        pairs = end_to_end_pairs(database, mapping, schema, chain)
        if verdict.composed.backward_functional:
            ends = [end for __, end in pairs]
            assert len(ends) == len(set(ends))

    @relaxed
    @given(st.integers(min_value=0, max_value=30))
    def test_transitive_nm_joint_invents_associations(self, seed):
        """The canonical loose chain N:1 · 1:N relates entities through the
        shared middle even when the instance never links them directly —
        with enough tuples, some end entity is reached from several
        starts."""
        chain = ["N:1", "1:N"]
        schema = chain_schema(chain)
        database, mapping = instantiate_er(schema, per_entity=6, seed=seed)
        pairs = end_to_end_pairs(database, mapping, schema, chain)
        ends = [end for __, end in pairs]
        # The association is invented at middles shared by several starts
        # *and* fanning out to at least one end: each such middle's ends are
        # then reached from several starts.
        first_fk = mapping.schema.foreign_key(mapping.fk_of_relationship["R0"])
        second_fk = mapping.schema.foreign_key(mapping.fk_of_relationship["R1"])
        starts_per_middle: dict = {}
        for record in database.tuples("E0"):
            middle = database.referenced_tuple(record, first_fk)
            if middle is not None:
                starts_per_middle[middle.tid] = (
                    starts_per_middle.get(middle.tid, 0) + 1
                )
        ends_per_middle: dict = {}
        for record in database.tuples("E2"):
            middle = database.referenced_tuple(record, second_fk)
            if middle is not None:
                ends_per_middle[middle.tid] = (
                    ends_per_middle.get(middle.tid, 0) + 1
                )
        invents = any(
            starts_per_middle.get(middle, 0) >= 2 and count >= 1
            for middle, count in ends_per_middle.items()
        )
        if invents:
            assert len(ends) != len(set(ends))
