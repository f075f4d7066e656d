"""Tests for candidate enumeration (conditions C1-C3 of Update-Graph)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import enumerate_candidates, observed_marks
from repro.exceptions import CandidateError, GraphError
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.lifts import cyclic_lift
from repro.problems.mis import MISProblem
from repro.problems.problem import TwoHopColoredVariant
from repro.views.local_views import view
from tests.oracles import connected_edge_sets, reference_enumerate_candidates

LAYERS = ("input", "color", "bits")
PROBLEM_C = TwoHopColoredVariant(MISProblem())


def prepared(graph):
    """Attach color and empty-bits layers the way A_* phases see them."""
    colored = apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))
    return colored.with_layer("bits", {v: "" for v in colored.nodes})


class TestObservedMarks:
    def test_marks_cover_all_labels(self):
        instance = prepared(with_uniform_input(path_graph(3)))
        t = view(instance, 0, 3)
        marks = observed_marks(t)
        assert len(marks) == 3  # three distinct (input, color, bits) labels

    def test_marks_deduplicated(self):
        instance = prepared(with_uniform_input(cycle_graph(3)))
        t = view(instance, 1, 4)
        # C3 colored with 3 colors: exactly 3 distinct marks despite the
        # exponentially many vertices.
        assert len(observed_marks(t)) == 3


class TestEnumerate:
    def test_instance_itself_is_found(self):
        """At phase >= 2n the node's own finite view graph must appear as
        a candidate (Lemma 6)."""
        instance = prepared(with_uniform_input(cycle_graph(3)))
        t = view(instance, 0, 6)
        candidates = enumerate_candidates(t, 6, PROBLEM_C, LAYERS, max_nodes=3)
        assert candidates  # nonempty
        smallest = candidates[0]
        assert are_isomorphic(smallest.finite_view, instance)

    def test_anchor_view_matches(self):
        instance = prepared(with_uniform_input(path_graph(2)))
        p = 4
        t = view(instance, 0, p)
        candidates = enumerate_candidates(t, p, PROBLEM_C, LAYERS, max_nodes=2)
        for candidate in candidates:
            anchor_view = view(candidate.graph, candidate.anchor, p)
            assert anchor_view is t

    def test_candidates_sorted_by_finite_view_order(self):
        instance = prepared(with_uniform_input(path_graph(2)))
        t = view(instance, 0, 3)
        candidates = enumerate_candidates(t, 3, PROBLEM_C, LAYERS, max_nodes=3)
        keys = [c.sort_key for c in candidates]
        assert keys == sorted(keys)

    def test_phase_caps_candidate_size(self):
        instance = prepared(with_uniform_input(path_graph(3)))
        t = view(instance, 0, 1)
        candidates = enumerate_candidates(t, 1, PROBLEM_C, LAYERS, max_nodes=4)
        assert all(c.graph.num_nodes <= 1 for c in candidates)

    def test_zero_cap_admits_no_graph(self):
        t = view(prepared(with_uniform_input(path_graph(1))), 0, 3)
        assert len(enumerate_candidates(t, 3, PROBLEM_C, LAYERS, max_nodes=1)) == 1
        assert enumerate_candidates(t, 3, PROBLEM_C, LAYERS, max_nodes=0) == []

    def test_budget_guard(self):
        # The budget counts folding states; this search takes 6.
        instance = prepared(with_uniform_input(cycle_graph(5)))
        t = view(instance, 0, 4)
        with pytest.raises(CandidateError, match="budget"):
            enumerate_candidates(t, 4, PROBLEM_C, LAYERS, max_nodes=4, budget=2)

    def test_c3_filters_non_instances(self):
        """Candidates whose (input, color) part is not a legal 2-hop
        colored instance must be excluded."""
        instance = prepared(with_uniform_input(path_graph(2)))
        t = view(instance, 0, 3)
        candidates = enumerate_candidates(t, 3, PROBLEM_C, LAYERS, max_nodes=3)
        for candidate in candidates:
            stripped = candidate.graph.with_only_layers(["input", "color"])
            assert PROBLEM_C.is_instance(stripped)


# ----------------------------------------------------------------------
# The folding enumerator against the brute force it replaced
# ----------------------------------------------------------------------


def _selected(candidates):
    return [(c.sort_key, c.finite_view, c.anchor_class) for c in candidates]


@st.composite
def colored_views(draw):
    """A phase, a cap and the phase view of one node of a small 2-hop
    colored graph with random 1-bit inputs and bits, half of the time a
    cyclic lift, so that the view also folds onto a smaller graph."""
    n = draw(st.integers(2, 4))
    graph = random_connected_graph(n, draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 999)))
    graph = graph.with_layer(
        "input", {v: (graph.degree(v), draw(st.integers(0, 1))) for v in graph.nodes}
    )
    instance = prepared(graph).with_layer(
        "bits", {v: draw(st.sampled_from(["", "0", "1"])) for v in graph.nodes}
    )
    if draw(st.booleans()):
        try:
            instance, _projection = cyclic_lift(instance, 2)
        except GraphError:  # a disconnected lift
            pass
    phase = draw(st.integers(2, 4))
    anchor = draw(st.sampled_from(list(instance.nodes)))
    return view(instance, anchor, phase), phase, draw(st.integers(2, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=colored_views())
def test_folding_matches_the_brute_force(case):
    view_tree, phase, cap = case
    assert _selected(
        enumerate_candidates(view_tree, phase, PROBLEM_C, LAYERS, max_nodes=cap)
    ) == _selected(
        reference_enumerate_candidates(view_tree, phase, PROBLEM_C, LAYERS, max_nodes=cap)
    )


@pytest.mark.parametrize("graph", [path_graph(4), cycle_graph(4)], ids=["P4", "C4"])
def test_folding_matches_the_brute_force_at_cap_4(graph):
    instance = prepared(with_uniform_input(graph))
    for phase in (3, 4):
        t = view(instance, 0, phase)
        found = enumerate_candidates(t, phase, PROBLEM_C, LAYERS, max_nodes=4)
        assert _selected(found) == _selected(
            reference_enumerate_candidates(t, phase, PROBLEM_C, LAYERS, max_nodes=4)
        )
    assert [c.finite_view.num_nodes for c in found] == [4]


def test_candidate_growth_counts_what_the_brute_force_examines():
    from repro.experiments.costs import _connected_labeled_graphs

    assert [_connected_labeled_graphs(k) for k in range(1, 6)] == [
        sum(1 for _edges in connected_edge_sets(k)) for k in range(1, 6)
    ]
