"""Tests for the predetermined total orders (Lemma 1's requirement)."""

from __future__ import annotations

import pytest

from repro.core.orders import (
    assignment_sort_key,
    canonical_node_order,
    finite_view_graph_sort_key,
    view_order_of_nodes,
)
from repro.exceptions import DerandomizationError
from repro.factor.quotient import finite_view_graph
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestNodeOrder:
    def test_prime_graph_has_total_order(self):
        g = colored(with_uniform_input(path_graph(4)))
        order = canonical_node_order(g)
        assert sorted(order) == list(g.nodes)

    def test_order_is_relabeling_invariant(self):
        g = colored(with_uniform_input(path_graph(4)))
        mapping = {0: "d", 1: "b", 2: "c", 3: "a"}
        renamed = g.relabel_nodes(mapping)
        order_g = canonical_node_order(g)
        order_r = canonical_node_order(renamed)
        assert [mapping[v] for v in order_g] == order_r

    def test_non_prime_rejected(self):
        g = with_uniform_input(cycle_graph(4))  # all views equal
        with pytest.raises(DerandomizationError, match="prime"):
            canonical_node_order(g)

    def test_order_is_not_the_alias_order(self):
        """The canonical order is the refinement signature order, not the
        ViewTree order of the nodes' aliases: on a greedily 2-hop colored
        C10 the two differ, which is why the practical solve renumbers its
        alias-ordered reconstruction."""
        quotient = finite_view_graph(colored(with_uniform_input(cycle_graph(10))))
        nodes = quotient.graph.nodes
        by_alias = sorted(nodes, key=lambda c: quotient.views[c].sort_key())
        order = canonical_node_order(quotient.graph)
        assert sorted(order) == sorted(by_alias) == list(nodes)
        assert by_alias != order

    def test_positions(self):
        g = colored(with_uniform_input(path_graph(3)))
        positions = view_order_of_nodes(g)
        assert sorted(positions.values()) == [0, 1, 2]


class TestAssignmentOrder:
    ORDER = ["a", "b"]

    def test_length_dominates(self):
        short = assignment_sort_key({"a": "1", "b": "1"}, self.ORDER)
        long = assignment_sort_key({"a": "00", "b": "00"}, self.ORDER)
        assert short < long

    def test_lexicographic_within_length(self):
        k1 = assignment_sort_key({"a": "00", "b": "01"}, self.ORDER)
        k2 = assignment_sort_key({"a": "00", "b": "10"}, self.ORDER)
        k3 = assignment_sort_key({"a": "01", "b": "00"}, self.ORDER)
        assert k1 < k2 < k3

    def test_node_order_matters(self):
        a = {"a": "0", "b": "1"}
        assert assignment_sort_key(a, ["a", "b"]) == (1, ("0", "1"))
        assert assignment_sort_key(a, ["b", "a"]) == (1, ("1", "0"))

    def test_nonuniform_rejected(self):
        with pytest.raises(DerandomizationError, match="uniform-length"):
            assignment_sort_key({"a": "0", "b": "00"}, self.ORDER)

    def test_missing_node_rejected(self):
        with pytest.raises(DerandomizationError, match="misses"):
            assignment_sort_key({"a": "0"}, self.ORDER)


class TestFiniteViewGraphOrder:
    def test_size_dominates(self):
        small = colored(with_uniform_input(path_graph(2)))
        large = colored(with_uniform_input(path_graph(5)))
        assert finite_view_graph_sort_key(small) < finite_view_graph_sort_key(large)

    def test_isomorphic_graphs_equal_key(self):
        g = colored(with_uniform_input(path_graph(3)))
        renamed = g.relabel_nodes({0: 10, 1: 11, 2: 12})
        assert finite_view_graph_sort_key(g) == finite_view_graph_sort_key(renamed)

    def test_different_labels_different_key(self):
        a = colored(with_uniform_input(path_graph(3)))
        b = with_uniform_input(path_graph(3)).with_layer(
            "color", {0: 10, 1: 11, 2: 12}
        )
        assert finite_view_graph_sort_key(a) != finite_view_graph_sort_key(b)
