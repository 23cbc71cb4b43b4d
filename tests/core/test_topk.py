"""Unit tests for the per-length lower bounds behind the top-k cut.

The top-k cut stops enumerating once no longer answer can beat the k-th
score; ``lower_bound_for`` supplies the bound it compares against.
"""

from repro.core.plan import lower_bound_for
from repro.core.ranking import (
    ClosenessRanker,
    ErLengthRanker,
    InstanceAmbiguityRanker,
    RdbLengthRanker,
)


class TestLowerBounds:
    def test_rdb_bound_is_exact(self):
        assert lower_bound_for(RdbLengthRanker(), 3) == (3.0,)

    def test_er_bound_halves(self):
        assert lower_bound_for(ErLengthRanker(), 4) == (2.0,)
        assert lower_bound_for(ErLengthRanker(), 5) == (3.0,)

    def test_closeness_bound(self):
        assert lower_bound_for(ClosenessRanker(), 3) == (0.0, 2.0)

    def test_unbounded_ranker(self):
        assert lower_bound_for(InstanceAmbiguityRanker(), 3) is None
