"""Tests for graph JSON serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs.builders import (
    cycle_graph,
    petersen_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.io import graph_from_dict, graph_to_dict


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def json_round_trip(graph):
    """The graph after its dict form has gone through JSON text."""
    return graph_from_dict(json.loads(json.dumps(graph_to_dict(graph), sort_keys=True)))


class TestRoundTrip:
    def test_plain_graph(self):
        g = with_uniform_input(cycle_graph(5))
        assert json_round_trip(g) == g

    def test_colored_graph(self):
        g = colored(with_uniform_input(petersen_graph()))
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_custom_ports_preserved(self):
        g = cycle_graph(4).with_ports(
            {0: [3, 1], 1: [2, 0], 2: [3, 1], 3: [0, 2]}
        )
        restored = json_round_trip(g)
        assert restored.ports(1) == (2, 0)

    def test_tuple_labels_stay_tuples(self):
        g = cycle_graph(3).with_layer("input", {v: (2, "x", (1, 2)) for v in range(3)})
        restored = json_round_trip(g)
        assert restored.label_of(0, "input") == (2, "x", (1, 2))

    def test_string_node_ids(self):
        from repro.graphs.labeled_graph import LabeledGraph

        g = LabeledGraph([("a", "b"), ("b", "c")])
        assert json_round_trip(g) == g

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_round_trip(self, n, seed):
        g = colored(with_uniform_input(random_connected_graph(n, 0.3, seed=seed)))
        assert json_round_trip(g) == g


class TestErrors:
    def test_unknown_format_rejected(self):
        with pytest.raises(GraphError, match="unsupported graph format"):
            graph_from_dict({"format": 99})

    def test_unserializable_label_rejected(self):
        g = cycle_graph(3).with_layer("input", {v: object() for v in range(3)})
        with pytest.raises(GraphError, match="not serializable"):
            graph_to_dict(g)
