"""Soak tests: the Las-Vegas algorithms across a wide seed matrix.

Las-Vegas correctness means validity with probability 1 — so any
invalid output at any seed is a bug, and breadth of seeds is the test.
Families are kept small so the matrix stays fast.
"""

from __future__ import annotations

import pytest

from repro.algorithms.local_election import TwoLocalElection
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.graphs.builders import (
    complete_bipartite_graph,
    cycle_graph,
    petersen_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import is_k_hop_coloring, is_two_hop_coloring
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem
from repro.runtime.engine import execute

GRAPHS = [
    ("cycle-9", with_uniform_input(cycle_graph(9))),
    ("petersen", with_uniform_input(petersen_graph())),
    ("k33", with_uniform_input(complete_bipartite_graph(3, 3))),
    ("random-11", with_uniform_input(random_connected_graph(11, 0.25, seed=42))),
]
GRAPH_IDS = [name for name, _ in GRAPHS]
SEEDS = range(10)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_two_hop_coloring_soak(name, graph, seed):
    result = execute(TwoHopColoringAlgorithm(), graph, seed=seed, require_decided=True)
    assert is_two_hop_coloring(graph, result.outputs)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mis_soak(name, graph, seed):
    result = execute(AnonymousMISAlgorithm(), graph, seed=seed, require_decided=True)
    assert MISProblem().is_valid_output(graph, result.outputs)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matching_soak(name, graph, seed):
    result = execute(AnonymousMatchingAlgorithm(), graph, seed=seed, require_decided=True)
    assert MaximalMatchingProblem().is_valid_output(graph, result.outputs)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_coloring_soak(name, graph, seed):
    result = execute(VertexColoringAlgorithm(), graph, seed=seed, require_decided=True)
    assert is_k_hop_coloring(graph, result.outputs, 1)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_two_local_election_soak(name, graph, seed):
    result = execute(TwoLocalElection(), graph, seed=seed, require_decided=True)
    leaders = [v for v in graph.nodes if result.outputs[v]]
    for i, u in enumerate(leaders):
        for v in leaders[i + 1 :]:
            assert graph.distance(u, v) > 2
    for v in graph.nodes:
        assert any(result.outputs[u] for u in graph.nodes_within(v, 2))
