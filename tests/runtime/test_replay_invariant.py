"""The replay invariant, property-based across every randomized algorithm.

"A t-round simulation is fully determined by the assignment b" is the
bedrock under the whole derandomization: any recorded execution must be
exactly reproducible from its bit assignment.  This holds for every
algorithm in the library, on every graph, for every seed — so we test
exactly that, broadly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.local_election import TwoLocalElection
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.monte_carlo_election import MonteCarloElection
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.graphs.builders import random_connected_graph, with_uniform_input
from repro.runtime.engine import execute

ALGORITHMS = [
    TwoHopColoringAlgorithm(),
    VertexColoringAlgorithm(),
    AnonymousMISAlgorithm(),
    AnonymousMatchingAlgorithm(),
    TwoLocalElection(),
]
IDS = [a.name for a in ALGORITHMS]


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=IDS)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=12, deadline=None)
def test_replay_reproduces_execution(algorithm, n, graph_seed, run_seed):
    graph = with_uniform_input(random_connected_graph(n, 0.3, seed=graph_seed))
    run = execute(algorithm, graph, seed=run_seed, require_decided=True)
    replay = execute(
        algorithm, graph, assignment=run.trace.assignment(), record_trace=True
    )
    assert replay.successful
    assert replay.outputs == run.outputs
    for v in graph.nodes:
        assert replay.trace.messages_of(v) == run.trace.messages_of(v)


def test_replay_monte_carlo_election():
    """Also holds for the Monte-Carlo algorithm with its wide bit draws."""
    graph = random_connected_graph(6, 0.3, seed=1)
    graph = graph.with_layer(
        "input", {v: (graph.degree(v), 6) for v in graph.nodes}
    )
    algorithm = MonteCarloElection(id_bits=8)
    run = execute(algorithm, graph, seed=3, require_decided=True)
    replay = execute(algorithm, graph, assignment=run.trace.assignment())
    assert replay.outputs == run.outputs
