"""Unit tests for the LabeledGraph core structure."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, LabelingError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.builders import cycle_graph, path_graph


class TestConstruction:
    def test_basic_triangle(self):
        g = LabeledGraph([(0, 1), (1, 2), (0, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.nodes == (0, 1, 2)

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            LabeledGraph([(0, 0)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(GraphError, match="parallel"):
            LabeledGraph([(0, 1), (1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="not connected"):
            LabeledGraph([(0, 1), (2, 3)])

    def test_disconnected_allowed_when_unchecked(self):
        g = LabeledGraph([(0, 1), (2, 3)], check_connected=False)
        assert g.num_nodes == 4

    def test_empty_rejected(self):
        with pytest.raises(GraphError, match="at least one node"):
            LabeledGraph([])

    def test_single_node(self):
        g = LabeledGraph([], nodes=[0])
        assert g.num_nodes == 1
        assert g.degree(0) == 0

    def test_isolated_extra_node_rejected_when_checked(self):
        with pytest.raises(GraphError, match="not connected"):
            LabeledGraph([(0, 1)], nodes=[0, 1, 2])


class TestStructure:
    def test_neighbors_sorted(self):
        g = LabeledGraph([(2, 0), (2, 1), (2, 3)])
        assert g.neighbors(2) == (0, 1, 3)

    def test_degree(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in g.nodes)

    def test_unknown_node_raises(self):
        g = cycle_graph(3)
        with pytest.raises(GraphError, match="unknown node"):
            g.neighbors(99)

    def test_edges_iteration_sorted_and_unique(self):
        g = cycle_graph(4)
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_has_edge_symmetric(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_distance(self):
        g = cycle_graph(6)
        assert g.distance(0, 3) == 3
        assert g.distance(0, 5) == 1
        assert g.distance(2, 2) == 0

    def test_nodes_within(self):
        g = cycle_graph(6)
        assert g.nodes_within(0, 0) == (0,)
        assert g.nodes_within(0, 1) == (0, 1, 5)
        assert g.nodes_within(0, 2) == (0, 1, 2, 4, 5)
        assert g.nodes_within(0, 3) == (0, 1, 2, 3, 4, 5)

    def test_nodes_within_negative_raises(self):
        with pytest.raises(GraphError, match="nonnegative"):
            cycle_graph(3).nodes_within(0, -1)


class TestPorts:
    def test_default_ports_sorted(self):
        g = LabeledGraph([(1, 0), (1, 2)])
        assert g.ports(1) == (0, 2)
        assert g.neighbor_to_port(1, 2) == 1

    def test_explicit_ports(self):
        g = LabeledGraph([(1, 0), (1, 2)], ports={0: [1], 1: [2, 0], 2: [1]})
        assert g.ports(1) == (2, 0)

    def test_bad_port_numbering_rejected(self):
        with pytest.raises(GraphError, match="permutation"):
            LabeledGraph([(1, 0), (1, 2)], ports={0: [1], 1: [0, 0], 2: [1]})

    def test_non_neighbor_port_lookup(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="not a neighbor"):
            g.neighbor_to_port(0, 2)


class TestLayers:
    def test_with_layer_and_label(self):
        g = path_graph(2).with_layer("input", {0: "a", 1: "b"})
        assert g.label(0) == ("a",)
        assert g.label_of(1, "input") == "b"
        assert g.layer_names == ("input",)

    def test_composed_label_order(self):
        g = (
            path_graph(2)
            .with_layer("input", {0: 1, 1: 2})
            .with_layer("color", {0: "x", 1: "y"})
        )
        assert g.label(0) == (1, "x")

    def test_missing_node_in_layer_rejected(self):
        with pytest.raises(LabelingError, match="does not label"):
            path_graph(3).with_layer("input", {0: 1, 1: 2})

    def test_extra_node_in_layer_rejected(self):
        with pytest.raises(LabelingError, match="unknown nodes"):
            path_graph(2).with_layer("input", {0: 1, 1: 2, 7: 3})

    def test_without_layer(self):
        g = path_graph(2).with_layer("input", {0: 1, 1: 2})
        assert g.without_layer("input").layer_names == ()
        with pytest.raises(LabelingError, match="no layer"):
            g.without_layer("nope")

    def test_with_only_layers_reorders(self):
        g = (
            path_graph(2)
            .with_layer("a", {0: 1, 1: 1})
            .with_layer("b", {0: 2, 1: 2})
        )
        reordered = g.with_only_layers(["b", "a"])
        assert reordered.label(0) == (2, 1)

    def test_immutability_of_layer_accessor(self):
        g = path_graph(2).with_layer("input", {0: 1, 1: 2})
        g.layer("input")[0] = 99
        assert g.label_of(0, "input") == 1


class TestEqualityAndRelabel:
    def test_equality_same_structure(self):
        a = cycle_graph(4).with_layer("input", {v: 0 for v in range(4)})
        b = cycle_graph(4).with_layer("input", {v: 0 for v in range(4)})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_labels(self):
        a = path_graph(2).with_layer("input", {0: 0, 1: 0})
        b = path_graph(2).with_layer("input", {0: 0, 1: 1})
        assert a != b

    def test_relabel_nodes(self):
        g = path_graph(3).with_layer("input", {0: "a", 1: "b", 2: "c"})
        renamed = g.relabel_nodes({0: "x", 1: "y", 2: "z"})
        assert renamed.has_edge("x", "y")
        assert renamed.label_of("z", "input") == "c"

    def test_relabel_must_be_bijective(self):
        g = path_graph(2)
        with pytest.raises(GraphError, match="injective"):
            g.relabel_nodes({0: "x", 1: "x"})

    def test_relabel_must_cover_nodes(self):
        g = path_graph(2)
        with pytest.raises(GraphError, match="cover"):
            g.relabel_nodes({0: "x"})
