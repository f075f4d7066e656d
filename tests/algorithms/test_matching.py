"""Tests for the anonymous maximal matching algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.problems.matching import MATCHED, UNMATCHED, MaximalMatchingProblem
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()
IDS = [name for name, _ in ZOO]
PROBLEM = MaximalMatchingProblem()


class TestCorrectness:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_maximal_matching(self, name, graph, seed):
        result = execute(AnonymousMatchingAlgorithm(), graph, seed=seed, require_decided=True)
        assert PROBLEM.is_valid_output(graph, result.outputs), result.outputs

    def test_single_node_unmatched(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(1))
        result = execute(AnonymousMatchingAlgorithm(), g, seed=0, require_decided=True)
        assert result.outputs[0] == (UNMATCHED,)

    def test_edge_always_matches(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(2))
        for seed in range(5):
            result = execute(AnonymousMatchingAlgorithm(), g, seed=seed, require_decided=True)
            assert result.outputs[0][0] == MATCHED
            assert result.outputs[1][0] == MATCHED
            # Reciprocal tokens.
            assert result.outputs[0][1] == result.outputs[1][2]
            assert result.outputs[0][2] == result.outputs[1][1]

    def test_triangle_one_pair_one_out(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        g = with_uniform_input(cycle_graph(3))
        for seed in range(5):
            result = execute(AnonymousMatchingAlgorithm(), g, seed=seed, require_decided=True)
            statuses = sorted(value[0] for value in result.outputs.values())
            assert statuses == [MATCHED, MATCHED, UNMATCHED]

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds_on_cycle(self, seed):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        g = with_uniform_input(cycle_graph(7))
        result = execute(AnonymousMatchingAlgorithm(), g, seed=seed, require_decided=True)
        assert PROBLEM.is_valid_output(g, result.outputs)
        matched = [v for v in g.nodes if result.outputs[v][0] == MATCHED]
        assert len(matched) in (4, 6)  # maximal matchings of C7 have 2 or 3 edges
