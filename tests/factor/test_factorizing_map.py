"""Tests for factorizing maps, including the paper's Figure 2."""

from __future__ import annotations

import pytest

from repro.exceptions import FactorError
from repro.factor.factorizing_map import FactorizingMap
from repro.graphs.builders import cycle_graph


def labeled_cycle(n: int, period: int):
    """An n-cycle labeled with colors repeating with the given period —
    the labeled cycles of Figure 2 (period 3 on C12, C6 and C3)."""
    g = cycle_graph(n)
    return g.with_layer("input", {v: v % period for v in range(n)})


def figure2_map(n_big: int, n_small: int):
    """The Figure 2 factorizing map v -> v mod n_small between labeled
    cycles (both labeled with period dividing n_small)."""
    big = labeled_cycle(n_big, 3)
    small = labeled_cycle(n_small, 3)
    return FactorizingMap(big, small, {v: v % n_small for v in big.nodes})


class TestFigure2:
    def test_c6_is_factor_of_c12(self):
        fm = figure2_map(12, 6)
        assert fm.multiplicity == 2
        assert not fm.is_isomorphism

    def test_c3_is_factor_of_c6(self):
        fm = figure2_map(6, 3)
        assert fm.multiplicity == 2

    def test_c3_is_factor_of_c12(self):
        fm = figure2_map(12, 3)
        assert fm.multiplicity == 4

    def test_composition_c12_to_c3(self):
        """Figure 2's f then g composes to a C12 -> C3 factorizing map."""
        f = figure2_map(12, 6)
        g = figure2_map(6, 3)
        composed = f.compose(g)
        assert composed.multiplicity == 4
        assert composed.factor == g.factor

    def test_fibers(self):
        fm = figure2_map(12, 6)
        assert fm.fiber(0) == (0, 6)
        assert fm.fiber(5) == (5, 11)


class TestVerification:
    def test_not_surjective_rejected(self):
        big = labeled_cycle(6, 3)
        small = labeled_cycle(3, 3)
        mapping = {v: 0 for v in big.nodes}
        with pytest.raises(FactorError, match="label not respected|not surjective"):
            FactorizingMap(big, small, mapping)

    def test_label_violation_rejected(self):
        big = labeled_cycle(6, 2)  # labels 0,1 alternating
        small = labeled_cycle(3, 3)
        with pytest.raises(FactorError, match="label"):
            FactorizingMap(big, small, {v: v % 3 for v in big.nodes})

    def test_local_isomorphism_violation_rejected(self):
        # Map C4 onto an edge: both neighbors of a node collapse together.
        big = cycle_graph(4).with_layer("input", {v: v % 2 for v in range(4)})
        small = cycle_graph(4).with_layer("input", {v: v % 2 for v in range(4)})
        # Identity on a subset misses nodes → undefined-node error first.
        with pytest.raises(FactorError, match="undefined"):
            FactorizingMap(big, small, {0: 0, 1: 1})

    def test_non_injective_neighborhood_rejected(self):
        from repro.graphs.labeled_graph import LabeledGraph

        path2 = LabeledGraph([(0, 1)], layers={"input": {0: "a", 1: "a"}})
        square = cycle_graph(4).with_layer("input", {v: "a" for v in range(4)})
        mapping = {0: 0, 1: 1, 2: 0, 3: 1}
        with pytest.raises(FactorError, match="not injective"):
            FactorizingMap(square, path2, mapping)

    def test_identity_is_isomorphism(self):
        g = labeled_cycle(5, 5)
        fm = FactorizingMap(g, g, {v: v for v in g.nodes})
        assert fm.is_isomorphism
        assert fm(3) == 3

    def test_unknown_node_lookup(self):
        fm = figure2_map(6, 3)
        with pytest.raises(FactorError, match="undefined on node"):
            fm(99)

    def test_compose_requires_chained_graphs(self):
        f = figure2_map(12, 6)
        with pytest.raises(FactorError, match="composition"):
            f.compose(f)
