"""Tests for deterministic distance-2 color reduction."""

from __future__ import annotations

import pytest

from repro.algorithms.color_reduction import TwoHopColorReduction
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.graphs.coloring import (
    apply_two_hop_coloring,
    greedy_two_hop_coloring,
    is_two_hop_coloring,
    num_colors,
)
from repro.graphs.properties import max_degree
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()
IDS = [name for name, _ in ZOO]


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestReduction:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    def test_output_is_two_hop_coloring(self, name, graph):
        instance = colored(graph)
        result = execute(TwoHopColorReduction(), instance, max_rounds=500, require_decided=True)
        assert result.all_decided
        assert is_two_hop_coloring(graph, result.outputs)

    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    def test_palette_bounded_by_delta_squared(self, name, graph):
        instance = colored(graph)
        result = execute(TwoHopColorReduction(), instance, max_rounds=500, require_decided=True)
        delta = max_degree(graph)
        assert num_colors(result.outputs) <= delta * delta + 1

    def test_reduces_randomized_colorings(self):
        """The intended pipeline: long random bitstring colors in, small
        integer palette out."""
        from repro.graphs.builders import random_connected_graph, with_uniform_input

        graph = with_uniform_input(random_connected_graph(14, 0.2, seed=3))
        raw = execute(TwoHopColoringAlgorithm(), graph, seed=9, require_decided=True)
        instance = apply_two_hop_coloring(graph, raw.outputs)
        reduced = execute(TwoHopColorReduction(), instance, max_rounds=500, require_decided=True)
        assert is_two_hop_coloring(graph, reduced.outputs)
        assert all(isinstance(c, int) for c in reduced.outputs.values())
        delta = max_degree(graph)
        assert num_colors(reduced.outputs) <= delta * delta + 1

    def test_deterministic(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        instance = colored(with_uniform_input(cycle_graph(7)))
        a = execute(TwoHopColorReduction(), instance, max_rounds=100, require_decided=True)
        b = execute(TwoHopColorReduction(), instance, max_rounds=100, require_decided=True)
        assert a.outputs == b.outputs

    def test_single_node(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        instance = colored(with_uniform_input(path_graph(1)))
        result = execute(TwoHopColorReduction(), instance, max_rounds=20, require_decided=True)
        assert result.outputs[0] == 0
