"""Tests for the k-hop coloring boundary (Section 1.2's remark)."""

from __future__ import annotations

import pytest

from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.analysis.khop_boundary import (
    lifted_khop_violation,
    uniform_cycle_cover,
)


class TestCycleCover:
    def test_cover_structure(self):
        covering = uniform_cycle_cover(3, 2)
        assert covering.factor.num_nodes == 3
        assert covering.product.num_nodes == 6
        assert covering.multiplicity == 2


class TestBoundary:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_hop_survives_lifting_but_three_hop_breaks(self, seed):
        """The heart of 'k = 2 is the boundary': lifting a 2-hop coloring
        execution from C3 to C6 or C9 stays 2-hop valid but collides at
        distance 3."""
        for multiplier in (2, 3):
            covering = uniform_cycle_cover(3, multiplier)
            violation = lifted_khop_violation(covering, seed=seed)
            assert violation.valid_up_to == 2
            assert not violation.violates(2)
            assert violation.violates(3)

    def test_larger_factor_same_story(self):
        covering = uniform_cycle_cover(5, 2)
        violation = lifted_khop_violation(covering, seed=1, max_k=6)
        # Colors repeat with period 5: valid up to 4 hops, breaks at 5.
        assert violation.valid_up_to == 4
        assert violation.violates(5)

    def test_one_hop_coloring_also_lifts_validly(self):
        """Lifted 1-hop colorings stay 1-hop valid (the lemma preserves
        adjacency-local constraints)."""
        covering = uniform_cycle_cover(3, 3)
        violation = lifted_khop_violation(
            covering, algorithm=VertexColoringAlgorithm(), seed=0
        )
        assert violation.valid_up_to >= 1
