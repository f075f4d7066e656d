"""Tests for Section 4: directed representations and fibrations."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import standard_families
from repro.exceptions import FactorError, LabelingError
from repro.factor.fibrations import (
    coloring_respects_symmetry,
    directed_representation,
    fibration_to_factorizing_map,
    is_deterministic_coloring,
    is_fibration,
    is_symmetric_representation,
)
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def colored_pair(fiber: int):
    base = colored(with_uniform_input(cycle_graph(3)))
    lift, projection = cyclic_lift(base, fiber)
    return base, lift, projection


class TestRepresentation:
    def test_edge_doubling(self):
        g = colored(with_uniform_input(path_graph(3)))
        rep = directed_representation(g)
        assert len(rep.edges) == 2 * g.num_edges

    def test_paper_claims_hold(self):
        """Section 4: the representation is symmetric, deterministically
        colored, and the coloring respects the symmetry."""
        graphs = [with_uniform_input(cycle_graph(n)) for n in (3, 5, 6)]
        graphs += [g for _name, g in standard_families(sizes=(4, 6), include_random=False)]
        for graph in graphs:
            rep = directed_representation(colored(graph))
            assert is_symmetric_representation(rep)
            assert is_deterministic_coloring(rep)
            assert coloring_respects_symmetry(rep)

    def test_edge_colors_are_endpoint_pairs(self):
        g = colored(with_uniform_input(path_graph(2)))
        rep = directed_representation(g)
        c0 = g.label_of(0, "color")
        c1 = g.label_of(1, "color")
        assert rep.edge_colors[(0, 1)] == (c0, c1)
        assert rep.edge_colors[(1, 0)] == (c1, c0)

    def test_requires_two_hop_coloring(self):
        g = with_uniform_input(cycle_graph(4)).with_layer(
            "color", {0: 0, 1: 1, 2: 0, 3: 1}
        )
        with pytest.raises(LabelingError, match="not a 2-hop coloring"):
            directed_representation(g)


class TestFibrationCorrespondence:
    def test_projection_is_fibration(self):
        base, lift, projection = colored_pair(4)
        rep_total = directed_representation(lift)
        rep_base = directed_representation(base)
        assert is_fibration(rep_total, rep_base, projection)

    def test_fibration_to_factorizing_map(self):
        base, lift, projection = colored_pair(2)
        fm = fibration_to_factorizing_map(lift, base, projection)
        assert fm.multiplicity == 2

    def test_wrong_map_is_not_fibration(self):
        base, lift, projection = colored_pair(2)
        rep_total = directed_representation(lift)
        rep_base = directed_representation(base)
        broken = _swap_across_fibers(projection)
        assert not is_fibration(rep_total, rep_base, broken)

    def test_non_surjective_map_rejected(self):
        base, lift, projection = colored_pair(2)
        rep_total = directed_representation(lift)
        rep_base = directed_representation(base)
        constant = {v: base.nodes[0] for v in lift.nodes}
        assert not is_fibration(rep_total, rep_base, constant)

    def test_bad_fibration_raises_in_conversion(self):
        base, lift, projection = colored_pair(2)
        broken = _swap_across_fibers(projection)
        with pytest.raises(FactorError, match="not a fibration"):
            fibration_to_factorizing_map(lift, base, broken)


def _swap_across_fibers(projection):
    """Swap the images of two nodes from different fibers — breaking the
    color preservation of the map (same-fiber swaps would be no-ops)."""
    broken = dict(projection)
    keys = list(broken)
    first = keys[0]
    other = next(k for k in keys if broken[k] != broken[first])
    broken[first], broken[other] = broken[other], broken[first]
    return broken
