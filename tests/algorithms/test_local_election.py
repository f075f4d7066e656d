"""Tests for randomized 2-local election."""

from __future__ import annotations

import pytest

from repro.algorithms.local_election import TwoLocalElection
from repro.runtime.engine import execute
from tests.conftest import small_graph_zoo

ZOO = small_graph_zoo()
IDS = [name for name, _ in ZOO]


def two_local_leaders_valid(graph, outputs) -> bool:
    """Leaders pairwise more than 2 hops apart; everyone within 2 hops
    of a leader."""
    leaders = [v for v in graph.nodes if outputs[v]]
    for i, u in enumerate(leaders):
        for v in leaders[i + 1 :]:
            if graph.distance(u, v) <= 2:
                return False
    for v in graph.nodes:
        ball = graph.nodes_within(v, 2)
        if not any(outputs[u] for u in ball):
            return False
    return True


class TestTwoLocalElection:
    @pytest.mark.parametrize("name,graph", ZOO, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_two_local_leader_set(self, name, graph, seed):
        result = execute(TwoLocalElection(), graph, seed=seed, require_decided=True)
        assert result.all_decided
        assert two_local_leaders_valid(graph, result.outputs), result.outputs

    def test_single_node_is_leader(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(1))
        result = execute(TwoLocalElection(), g, seed=0, require_decided=True)
        assert result.outputs[0] is True

    def test_complete_graph_single_leader(self):
        from repro.graphs.builders import complete_graph, with_uniform_input

        g = with_uniform_input(complete_graph(5))
        for seed in range(5):
            result = execute(TwoLocalElection(), g, seed=seed, require_decided=True)
            assert sum(result.outputs.values()) == 1

    def test_path_leader_spacing(self):
        from repro.graphs.builders import path_graph, with_uniform_input

        g = with_uniform_input(path_graph(9))
        for seed in range(5):
            result = execute(TwoLocalElection(), g, seed=seed, require_decided=True)
            leaders = sorted(v for v in g.nodes if result.outputs[v])
            assert all(b - a >= 3 for a, b in zip(leaders, leaders[1:]))
            assert 1 <= len(leaders) <= 3
