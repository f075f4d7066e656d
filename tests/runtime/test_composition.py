"""Tests for two-stage composition — the decoupling as one algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms.greedy_by_color import GreedyColoringByColor, GreedyMISByColor
from repro.algorithms.color_reduction import TwoHopColorReduction
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.graphs.coloring import apply_two_hop_coloring, is_two_hop_coloring
from repro.graphs.properties import max_degree
from repro.problems.coloring import ColoringProblem
from repro.problems.mis import MISProblem
from repro.runtime.composition import TwoStageComposition
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = [case for case in small_graph_zoo() if case[1].num_nodes <= 12]
IDS = [name for name, _ in ZOO]


def pack(original_input, degree, color):
    """Stage-2 input = (original input, stage-1 color) — the shape the
    greedy-by-color algorithms expect."""
    return (original_input[0], color)


def composed_mis():
    return TwoStageComposition(
        TwoHopColoringAlgorithm(), GreedyMISByColor(), pack
    )


class TestComposedPipeline:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_composed_mis_is_valid(self, name, graph, seed):
        """The paper's decoupling as ONE anonymous algorithm: random
        coloring then deterministic MIS, end to end, no orchestration."""
        result = execute(composed_mis(), graph, seed=seed, require_decided=True)
        assert result.all_decided
        assert MISProblem().is_valid_output(graph, result.outputs)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_composed_coloring_is_valid(self, seed):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        graph = with_uniform_input(cycle_graph(9))
        composed = TwoStageComposition(
            TwoHopColoringAlgorithm(), GreedyColoringByColor(), pack
        )
        result = execute(composed, graph, seed=seed, require_decided=True)
        assert ColoringProblem().is_valid_output(graph, result.outputs)
        assert len(set(result.outputs.values())) <= max_degree(graph) + 1

    def test_composed_color_reduction(self):
        from repro.graphs.builders import petersen_graph, with_uniform_input

        graph = with_uniform_input(petersen_graph())
        composed = TwoStageComposition(
            TwoHopColoringAlgorithm(), TwoHopColorReduction(), pack
        )
        result = execute(composed, graph, seed=5, require_decided=True)
        assert is_two_hop_coloring(graph, result.outputs)
        delta = max_degree(graph)
        assert len(set(result.outputs.values())) <= delta * delta + 1


class TestEquivalenceToDirectRun:
    def test_composed_equals_direct_stage2(self):
        """With a deterministic stage 2, the synchronizer-composed run
        must produce exactly the outputs of running stage 2 directly on
        the stage-1-colored graph."""
        from repro.graphs.builders import random_connected_graph, with_uniform_input

        graph = with_uniform_input(random_connected_graph(9, 0.3, seed=2))
        seed = 7

        composed_result = execute(composed_mis(), graph, seed=seed, require_decided=True)

        stage1 = execute(TwoHopColoringAlgorithm(), graph, seed=seed, require_decided=True)
        colored = apply_two_hop_coloring(graph, stage1.outputs)
        direct = execute(GreedyMISByColor(), colored, max_rounds=500, require_decided=True)

        assert composed_result.outputs == direct.outputs

    def test_composition_seed_determinism(self):
        from repro.graphs.builders import cycle_graph, with_uniform_input

        graph = with_uniform_input(cycle_graph(6))
        a = execute(composed_mis(), graph, seed=11, require_decided=True)
        b = execute(composed_mis(), graph, seed=11, require_decided=True)
        assert a.outputs == b.outputs


class TestBitsBudget:
    def test_bits_per_round_is_max_of_stages(self):
        composed = composed_mis()
        assert composed.bits_per_round == 1  # coloring uses 1, greedy 0

    def test_name(self):
        assert "two-hop-coloring" in composed_mis().name
        assert "greedy-mis-by-color" in composed_mis().name
