"""Tests for the leader + BFS spanning tree composite algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms.bfs_tree import BFSTreeProblem, LeaderBFSTree
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.runtime.engine import execute
from repro.views.refinement import color_refinement

PROBLEM = BFSTreeProblem()


def instance_with_n(graph):
    n = graph.num_nodes
    g = graph.with_layer("input", {v: (graph.degree(v), n) for v in graph.nodes})
    return apply_two_hop_coloring(g, greedy_two_hop_coloring(g))


def prime_instances():
    cases = [
        ("path-5", instance_with_n(path_graph(5))),
        ("star-4", instance_with_n(star_graph(4))),
        ("cycle-5", instance_with_n(cycle_graph(5))),
        ("random-8", instance_with_n(random_connected_graph(8, 0.3, seed=4))),
        ("random-10", instance_with_n(random_connected_graph(10, 0.25, seed=9))),
    ]
    return [
        (name, g)
        for name, g in cases
        if color_refinement(g).num_classes == g.num_nodes  # prime only
    ]


CASES = prime_instances()
IDS = [name for name, _ in CASES]


class TestBFSTree:
    @pytest.mark.parametrize("name,graph", CASES, ids=IDS)
    def test_valid_bfs_tree(self, name, graph):
        result = execute(LeaderBFSTree(), graph, max_rounds=200, require_decided=True)
        assert result.all_decided
        assert PROBLEM.is_valid_output(graph, result.outputs)

    def test_depths_are_bfs_layers(self):
        name, graph = CASES[0]  # the path
        result = execute(LeaderBFSTree(), graph, max_rounds=200, require_decided=True)
        roots = [v for v in graph.nodes if result.outputs[v] == ("root", 0)]
        root = roots[0]
        for v in graph.nodes:
            if v != root:
                assert result.outputs[v][1] == graph.distance(root, v)

    def test_deterministic(self):
        name, graph = CASES[-1]
        a = execute(LeaderBFSTree(), graph, max_rounds=200, require_decided=True)
        b = execute(LeaderBFSTree(), graph, max_rounds=200, require_decided=True)
        assert a.outputs == b.outputs

    def test_single_node_is_root(self):
        graph = instance_with_n(path_graph(1))
        result = execute(LeaderBFSTree(), graph, max_rounds=50, require_decided=True)
        assert result.outputs[0] == ("root", 0)


class TestProblemChecker:
    def test_rejects_two_roots(self):
        graph = instance_with_n(path_graph(3))
        outputs = {0: ("root", 0), 1: ("child", 1, None), 2: ("root", 0)}
        assert not PROBLEM.is_valid_output(graph, outputs)

    def test_rejects_wrong_depth(self):
        graph = instance_with_n(path_graph(3))
        colors = graph.layer("color")
        outputs = {
            0: ("root", 0),
            1: ("child", 1, colors[0]),
            2: ("child", 1, colors[1]),  # true distance is 2
        }
        assert not PROBLEM.is_valid_output(graph, outputs)

    def test_rejects_bogus_parent_color(self):
        graph = instance_with_n(path_graph(3))
        outputs = {
            0: ("root", 0),
            1: ("child", 1, "nonexistent"),
            2: ("child", 2, graph.layer("color")[1]),
        }
        assert not PROBLEM.is_valid_output(graph, outputs)

    def test_accepts_true_tree(self):
        graph = instance_with_n(path_graph(3))
        colors = graph.layer("color")
        outputs = {
            0: ("root", 0),
            1: ("child", 1, colors[0]),
            2: ("child", 2, colors[1]),
        }
        assert PROBLEM.is_valid_output(graph, outputs)

    def test_instance_requires_color_layer(self):
        g = path_graph(3).with_layer("input", {v: (path_graph(3).degree(v), 3) for v in range(3)})
        assert not PROBLEM.is_instance(g)
