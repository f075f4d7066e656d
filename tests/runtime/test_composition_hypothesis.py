"""Property-based tests for the two-stage composition."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algorithms.greedy_by_color import GreedyColoringByColor, GreedyMISByColor
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.graphs.builders import random_connected_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, is_k_hop_coloring
from repro.problems.mis import MISProblem
from repro.runtime.composition import TwoStageComposition
from repro.runtime.engine import execute


def pack(original_input, degree, color):
    return (original_input[0], color)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=25, deadline=None)
def test_composed_mis_valid_on_random_graphs(n, graph_seed, run_seed):
    graph = with_uniform_input(random_connected_graph(n, 0.3, seed=graph_seed))
    composed = TwoStageComposition(
        TwoHopColoringAlgorithm(), GreedyMISByColor(), pack
    )
    result = execute(composed, graph, seed=run_seed, require_decided=True)
    assert result.all_decided
    assert MISProblem().is_valid_output(graph, result.outputs)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_composed_equals_direct_run(n, graph_seed, run_seed):
    """Synchronizer correctness, property-based: for deterministic stage
    2, composition output == direct stage-2 run on the colored graph."""
    graph = with_uniform_input(random_connected_graph(n, 0.3, seed=graph_seed))
    composed = TwoStageComposition(
        TwoHopColoringAlgorithm(), GreedyColoringByColor(), pack
    )
    composed_run = execute(composed, graph, seed=run_seed, require_decided=True)

    stage1 = execute(TwoHopColoringAlgorithm(), graph, seed=run_seed, require_decided=True)
    colored = apply_two_hop_coloring(graph, stage1.outputs)
    direct = execute(GreedyColoringByColor(), colored, max_rounds=500, require_decided=True)

    assert composed_run.outputs == direct.outputs
    assert is_k_hop_coloring(graph, composed_run.outputs, 1)
