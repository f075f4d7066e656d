"""Tests for the randomized anonymous 2-hop coloring algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.graphs.coloring import is_two_hop_coloring
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()


class TestCorrectness:
    @pytest.mark.parametrize("name,graph", ZOO, ids=[name for name, _ in ZOO])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_are_two_hop_colorings(self, name, graph, seed):
        result = execute(TwoHopColoringAlgorithm(), graph, seed=seed, require_decided=True)
        assert result.all_decided
        assert is_two_hop_coloring(graph, result.outputs)

    @pytest.mark.parametrize("seed", range(10))
    def test_many_seeds_on_dense_case(self, seed):
        """K5 is the adversarial case: every pair is within 2 hops."""
        from repro.graphs.builders import complete_graph, with_uniform_input

        g = with_uniform_input(complete_graph(5))
        result = execute(TwoHopColoringAlgorithm(), g, seed=seed, require_decided=True)
        assert is_two_hop_coloring(g, result.outputs)
        assert len(set(result.outputs.values())) == 5

    def test_single_node(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(1))
        result = execute(TwoHopColoringAlgorithm(), g, seed=0, require_decided=True)
        assert result.all_decided

    def test_outputs_are_bitstrings(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        g = with_uniform_input(cycle_graph(4))
        result = execute(TwoHopColoringAlgorithm(), g, seed=5, require_decided=True)
        for color in result.outputs.values():
            assert isinstance(color, str)
            assert set(color) <= {"0", "1"}


class TestRoundComplexity:
    def test_commits_no_earlier_than_round_three(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        g = with_uniform_input(cycle_graph(4))
        result = execute(TwoHopColoringAlgorithm(), g, seed=1, require_decided=True)
        for v in g.nodes:
            assert result.trace.output_round(v) >= 3

    def test_reasonable_round_count(self):
        """Expected O(log n)-ish: assert a loose sanity bound."""
        from repro.graphs.builders import random_connected_graph, with_uniform_input

        for seed in range(3):
            g = with_uniform_input(random_connected_graph(20, 0.15, seed=seed))
            result = execute(TwoHopColoringAlgorithm(), g, seed=seed, require_decided=True)
            assert result.rounds <= 60
