"""Tests for local view construction, including the paper's Figure 1."""

from __future__ import annotations

import pytest

from repro.exceptions import ViewError
from repro.graphs.builders import cycle_graph, path_graph, star_graph
from repro.views.local_views import all_views, view, view_partition


def figure1_graph():
    """The labeled C6 of Figure 1: alternating labels around the cycle.

    The figure colors nodes u0..u5 with three colors so that antipodal
    nodes match: (u0, u3), (u1, u4), (u2, u5) share labels.
    """
    g = cycle_graph(6)
    labels = {0: "white", 1: "gray", 2: "black", 3: "white", 4: "gray", 5: "black"}
    return g.with_layer("input", labels)


class TestBasics:
    def test_depth_one_is_leaf(self):
        g = figure1_graph()
        t = view(g, 0, 1)
        assert t.depth == 1
        assert t.mark == ("white",)

    def test_depth_two_children_are_neighbor_marks(self):
        g = figure1_graph()
        t = view(g, 0, 2)
        assert t.depth == 2
        child_marks = sorted(c.mark for c in t.children)
        assert child_marks == [("black",), ("gray",)]

    def test_view_size_grows_exponentially_on_cycle(self):
        g = figure1_graph()
        t = view(g, 0, 5)
        # Each vertex has 2 children: sizes 1, 3, 7, 15, 31.
        assert t.size == 31

    def test_bad_depth(self):
        with pytest.raises(ViewError):
            view(figure1_graph(), 0, 0)

    def test_unknown_node(self):
        with pytest.raises(ViewError):
            view(figure1_graph(), 99, 2)

    def test_all_views_consistent_with_view(self):
        g = figure1_graph()
        views = all_views(g, 3)
        for v in g.nodes:
            assert views[v] is view(g, v, 3)

    def test_star_center_vs_leaf(self):
        g = star_graph(3).with_layer("input", {v: "x" for v in range(4)})
        center = view(g, 0, 3)
        leaf = view(g, 1, 3)
        assert center is not leaf
        assert len(center.children) == 3
        assert len(leaf.children) == 1


class TestFigure1:
    def test_antipodal_nodes_share_views_at_all_depths(self):
        """Figure 1's observation: nodes with the same label have equal
        depth-infinity local views in this C6 (it covers a labeled C3)."""
        g = figure1_graph()
        for depth in (1, 2, 3, 6, 8):
            views = all_views(g, depth)
            assert views[0] is views[3]
            assert views[1] is views[4]
            assert views[2] is views[5]
            assert views[0] is not views[1]

    def test_figure1_depth3_structure(self):
        """The depth-3 view of u0: root white, children {gray, black},
        each with children {white, white-side}, exactly as drawn."""
        g = figure1_graph()
        t = view(g, 0, 3)
        assert t.mark == ("white",)
        assert len(t.children) == 2
        marks = sorted(c.mark for c in t.children)
        assert marks == [("black",), ("gray",)]
        for child in t.children:
            grandchildren = sorted(c.mark for c in child.children)
            # u0's neighbors are u1 (gray) and u5 (black); u1's neighbors
            # are u0 (white) and u2 (black); u5's are u0 (white), u4 (gray).
            if child.mark == ("gray",):
                assert grandchildren == [("black",), ("white",)]
            else:
                assert grandchildren == [("gray",), ("white",)]

    def test_partition_matches_label_classes(self):
        g = figure1_graph()
        partition = view_partition(g, 6)
        assert sorted(map(sorted, partition)) == [[0, 3], [1, 4], [2, 5]]


class TestPartition:
    def test_uniform_cycle_single_class(self):
        g = cycle_graph(5).with_layer("input", {v: 0 for v in range(5)})
        assert view_partition(g, 5) == [(0, 1, 2, 3, 4)]

    def test_path_symmetry(self):
        g = path_graph(4).with_layer("input", {v: 0 for v in range(4)})
        partition = view_partition(g, 4)
        assert sorted(map(sorted, partition)) == [[0, 3], [1, 2]]

    def test_deeper_views_refine_partition(self):
        g = path_graph(5).with_layer("input", {v: 0 for v in range(5)})
        shallow = view_partition(g, 1)
        deep = view_partition(g, 5)
        assert len(shallow) <= len(deep)
        assert sorted(map(sorted, deep)) == [[0, 4], [1, 3], [2]]


class TestBuilderCaching:
    """Interning shares trees: equal graphs get identical views."""

    def test_views_of_equal_graphs_are_shared_trees(self):
        a = figure1_graph()
        b = figure1_graph()
        for v, tree in all_views(a, 4).items():
            assert all_views(b, 4)[v] is tree
