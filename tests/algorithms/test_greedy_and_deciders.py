"""Tests for the deterministic color-greedy baselines and the deciders."""

from __future__ import annotations

import pytest

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.greedy_by_color import GreedyColoringByColor, GreedyMISByColor
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import (
    apply_two_hop_coloring,
    greedy_two_hop_coloring,
    is_k_hop_coloring,
)
from repro.graphs.properties import max_degree
from repro.problems.decision import NO, YES, decision_outputs_valid
from repro.problems.mis import MISProblem
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()
IDS = [name for name, _ in ZOO]


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestGreedyMIS:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    def test_valid_mis_from_coloring(self, name, graph):
        instance = colored(graph)
        result = execute(GreedyMISByColor(), instance, require_decided=True)
        assert MISProblem().is_valid_output(graph, result.outputs)

    def test_deterministic_output(self):
        instance = colored(with_uniform_input(cycle_graph(7)))
        a = execute(GreedyMISByColor(), instance, require_decided=True)
        b = execute(GreedyMISByColor(), instance, require_decided=True)
        assert a.outputs == b.outputs

    def test_smallest_color_joins(self):
        instance = colored(with_uniform_input(path_graph(3)))
        result = execute(GreedyMISByColor(), instance, require_decided=True)
        colors = instance.layer("color")
        smallest = min(instance.nodes, key=lambda v: (len(str(colors[v])), str(colors[v])))
        assert result.outputs[smallest] is True


class TestGreedyColoring:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    def test_proper_coloring(self, name, graph):
        instance = colored(graph)
        result = execute(GreedyColoringByColor(), instance, require_decided=True)
        assert is_k_hop_coloring(graph, result.outputs, 1)

    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    def test_at_most_delta_plus_one_colors(self, name, graph):
        instance = colored(graph)
        result = execute(GreedyColoringByColor(), instance, require_decided=True)
        assert len(set(result.outputs.values())) <= max_degree(graph) + 1


class TestWellFormedInputDecider:
    def test_accepts_well_formed(self):
        g = with_uniform_input(cycle_graph(4))
        result = execute(WellFormedInputDecider(), g, require_decided=True)
        assert decision_outputs_valid(True, result.outputs)
        assert all(v == YES for v in result.outputs.values())

    def test_rejects_wrong_degree(self):
        g = cycle_graph(4).with_layer("input", {v: (5, 0) for v in range(4)})
        result = execute(WellFormedInputDecider(), g, require_decided=True)
        assert decision_outputs_valid(False, result.outputs)

    def test_rejects_malformed_label(self):
        g = cycle_graph(4).with_layer("input", {v: "junk" for v in range(4)})
        result = execute(WellFormedInputDecider(), g, require_decided=True)
        assert NO in result.outputs.values()

    def test_decides_in_zero_rounds(self):
        g = with_uniform_input(star_graph(3))
        result = execute(WellFormedInputDecider(), g, require_decided=True)
        assert result.rounds == 0
