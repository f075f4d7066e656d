"""Tests for problem definitions and output validation."""

from __future__ import annotations

import pytest

from repro.exceptions import ProblemError
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.problems.coloring import ColoringProblem, KHopColoringProblem
from repro.problems.decision import NO, YES, decision_outputs_valid
from repro.problems.matching import MATCHED, UNMATCHED, MaximalMatchingProblem
from repro.problems.mis import MISProblem
from repro.problems.problem import TwoHopColoredVariant


class TestMIS:
    def test_instance_requires_degree_inputs(self):
        assert MISProblem().is_instance(with_uniform_input(cycle_graph(4)))
        assert not MISProblem().is_instance(cycle_graph(4))
        bad = cycle_graph(4).with_layer("input", {v: (9, 0) for v in range(4)})
        assert not MISProblem().is_instance(bad)

    def test_valid_output(self):
        g = with_uniform_input(path_graph(3))
        assert MISProblem().is_valid_output(g, {0: True, 1: False, 2: True})

    def test_not_independent(self):
        g = with_uniform_input(path_graph(3))
        assert not MISProblem().is_valid_output(g, {0: True, 1: True, 2: False})

    def test_not_maximal(self):
        g = with_uniform_input(path_graph(3))
        assert not MISProblem().is_valid_output(g, {0: False, 1: False, 2: True})

    def test_non_boolean_rejected(self):
        g = with_uniform_input(path_graph(2))
        assert not MISProblem().is_valid_output(g, {0: 1, 1: 0})

    def test_partial_output_raises(self):
        g = with_uniform_input(path_graph(2))
        with pytest.raises(ProblemError, match="misses nodes"):
            MISProblem().is_valid_output(g, {0: True})


class TestColoring:
    def test_one_hop_valid(self):
        g = with_uniform_input(path_graph(3))
        assert ColoringProblem().is_valid_output(g, {0: "a", 1: "b", 2: "a"})

    def test_one_hop_invalid(self):
        g = with_uniform_input(path_graph(2))
        assert not ColoringProblem().is_valid_output(g, {0: "a", 1: "a"})

    def test_two_hop_variant_stricter(self):
        g = with_uniform_input(path_graph(3))
        outputs = {0: "a", 1: "b", 2: "a"}
        assert ColoringProblem().is_valid_output(g, outputs)
        assert not KHopColoringProblem(2).is_valid_output(g, outputs)

    def test_bad_k(self):
        with pytest.raises(ProblemError):
            KHopColoringProblem(0)


class TestMatching:
    def _matched_pair_outputs(self):
        return {
            0: (MATCHED, "t0", "t1"),
            1: (MATCHED, "t1", "t0"),
        }

    def test_valid_pair(self):
        g = with_uniform_input(path_graph(2))
        assert MaximalMatchingProblem().is_valid_output(g, self._matched_pair_outputs())

    def test_adjacent_unmatched_invalid(self):
        g = with_uniform_input(path_graph(2))
        outputs = {0: (UNMATCHED,), 1: (UNMATCHED,)}
        assert not MaximalMatchingProblem().is_valid_output(g, outputs)

    def test_non_reciprocal_invalid(self):
        g = with_uniform_input(path_graph(2))
        outputs = {0: (MATCHED, "t0", "x"), 1: (MATCHED, "t1", "t0")}
        assert not MaximalMatchingProblem().is_valid_output(g, outputs)

    def test_unpairable_matched_invalid(self):
        g = with_uniform_input(path_graph(3))
        outputs = {
            0: (MATCHED, "a", "b"),
            1: (MATCHED, "b", "a"),
            2: (MATCHED, "c", "d"),  # claims matched but no partner exists
        }
        assert not MaximalMatchingProblem().is_valid_output(g, outputs)

    def test_star_matching(self):
        g = with_uniform_input(star_graph(3))
        outputs = {
            0: (MATCHED, "c", "l"),
            1: (MATCHED, "l", "c"),
            2: (UNMATCHED,),
            3: (UNMATCHED,),
        }
        assert MaximalMatchingProblem().is_valid_output(g, outputs)

    def test_malformed_outputs_rejected(self):
        g = with_uniform_input(path_graph(2))
        assert not MaximalMatchingProblem().is_valid_output(g, {0: "x", 1: "y"})
        assert not MaximalMatchingProblem().is_valid_output(
            g, {0: (MATCHED,), 1: (UNMATCHED,)}
        )


class TestDecision:
    def test_rule(self):
        assert decision_outputs_valid(True, {0: YES, 1: YES})
        assert not decision_outputs_valid(True, {0: YES, 1: NO})
        assert decision_outputs_valid(False, {0: YES, 1: NO})
        assert not decision_outputs_valid(False, {0: YES, 1: YES})
        assert not decision_outputs_valid(True, {0: "maybe"})


class TestTwoHopColoredVariant:
    def test_instance_needs_valid_coloring(self):
        base = MISProblem()
        variant = TwoHopColoredVariant(base)
        g = with_uniform_input(path_graph(3))
        colored = apply_two_hop_coloring(g, greedy_two_hop_coloring(g))
        assert variant.is_instance(colored)
        assert not variant.is_instance(g)  # no color layer
        bad = g.with_layer("color", {0: 0, 1: 1, 2: 0})
        assert not variant.is_instance(bad)

    def test_outputs_judged_by_base(self):
        variant = TwoHopColoredVariant(MISProblem())
        g = with_uniform_input(path_graph(3))
        colored = apply_two_hop_coloring(g, greedy_two_hop_coloring(g))
        assert variant.is_valid_output(colored, {0: True, 1: False, 2: True})
        assert not variant.is_valid_output(colored, {0: True, 1: True, 2: True})

    def test_strip(self):
        variant = TwoHopColoredVariant(MISProblem())
        g = with_uniform_input(path_graph(2))
        colored = apply_two_hop_coloring(g, greedy_two_hop_coloring(g))
        assert variant.strip(colored).layer_names == ("input",)

    def test_name(self):
        assert TwoHopColoredVariant(MISProblem()).name == "mis^c"
