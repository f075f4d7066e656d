"""Tests for anonymous MIS and 1-hop vertex coloring."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.graphs.coloring import is_k_hop_coloring
from repro.problems.mis import MISProblem
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()
IDS = [name for name, _ in ZOO]


class TestMIS:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_mis(self, name, graph, seed):
        result = execute(AnonymousMISAlgorithm(), graph, seed=seed, require_decided=True)
        assert MISProblem().is_valid_output(graph, result.outputs)

    def test_single_node_joins(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(1))
        result = execute(AnonymousMISAlgorithm(), g, seed=0, require_decided=True)
        assert result.outputs[0] is True

    def test_complete_graph_exactly_one_in(self):
        from repro.graphs.builders import complete_graph, with_uniform_input

        g = with_uniform_input(complete_graph(6))
        for seed in range(5):
            result = execute(AnonymousMISAlgorithm(), g, seed=seed, require_decided=True)
            assert sum(result.outputs.values()) == 1

    def test_star_center_or_all_leaves(self):
        from repro.graphs.builders import star_graph, with_uniform_input

        g = with_uniform_input(star_graph(5))
        for seed in range(5):
            result = execute(AnonymousMISAlgorithm(), g, seed=seed, require_decided=True)
            if result.outputs[0]:
                assert not any(result.outputs[v] for v in range(1, 6))
            else:
                assert all(result.outputs[v] for v in range(1, 6))


class TestVertexColoring:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_valid_coloring(self, name, graph, seed):
        result = execute(VertexColoringAlgorithm(), graph, seed=seed, require_decided=True)
        assert is_k_hop_coloring(graph, result.outputs, 1)

    def test_colors_are_bitstrings(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        g = with_uniform_input(cycle_graph(5))
        result = execute(VertexColoringAlgorithm(), g, seed=7, require_decided=True)
        assert all(set(c) <= {"0", "1"} for c in result.outputs.values())

    def test_commits_no_earlier_than_round_two(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(3))
        result = execute(VertexColoringAlgorithm(), g, seed=2, require_decided=True)
        for v in g.nodes:
            assert result.trace.output_round(v) >= 2
