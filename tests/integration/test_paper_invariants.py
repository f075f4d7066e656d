"""Cross-cutting invariants the paper's machinery rests on.

These tests combine several subsystems per assertion — the kind of
invariant that catches a subtly broken model even when unit tests pass.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy_by_color import GreedyColoringByColor, GreedyMISByColor
from repro.factor.quotient import finite_view_graph, infinite_view_graph
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.runtime.engine import execute
from repro.views.refinement import color_refinement


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def lifted(fiber: int):
    base = colored(with_uniform_input(cycle_graph(3)))
    return cyclic_lift(base, fiber)[0]


class TestQuotientInvariants:
    @pytest.mark.parametrize("fiber", [1, 2, 3, 4])
    def test_quotient_is_idempotent(self, fiber):
        """The quotient of a quotient is trivial: G_* is prime."""
        instance = lifted(fiber)
        once = finite_view_graph(instance)
        twice = infinite_view_graph(once.graph)
        assert twice.is_trivial
        assert are_isomorphic(twice.graph, once.graph)

    def test_quotient_invariant_under_lifting(self):
        """Lifting and quotienting commute: quotient(lift(G)) ≅ quotient(G)."""
        base = colored(with_uniform_input(cycle_graph(3)))
        base_quotient = infinite_view_graph(base)
        for fiber in (2, 3):
            lift, _ = lift_graph(base, fiber, seed=fiber)
            lift_quotient = infinite_view_graph(lift)
            assert are_isomorphic(lift_quotient.graph, base_quotient.graph)

    def test_refinement_classes_count_matches_quotient(self):
        instance = lifted(4)
        quotient = finite_view_graph(instance)
        assert (
            color_refinement(instance).num_classes == quotient.graph.num_nodes
        )


class TestDeterministicSymmetryInvariant:
    """A deterministic anonymous algorithm's outputs are a function of
    the view — so on a lifted instance they MUST be constant on fibers.
    This is the model-faithfulness litmus test: any hidden symmetry
    breaking (node ids, iteration order, dict order) would show up here.
    """

    DETERMINISTIC_ALGORITHMS = [
        GreedyMISByColor(),
        GreedyColoringByColor(),
    ]

    @pytest.mark.parametrize(
        "algorithm",
        DETERMINISTIC_ALGORITHMS,
        ids=[a.name for a in DETERMINISTIC_ALGORITHMS],
    )
    @pytest.mark.parametrize("fiber", [2, 4])
    def test_outputs_constant_on_fibers(self, algorithm, fiber):
        instance = lifted(fiber)
        quotient = finite_view_graph(instance)
        result = execute(algorithm, instance, max_rounds=500, require_decided=True)
        assert result.all_decided
        for target in quotient.graph.nodes:
            values = {result.outputs[v] for v in quotient.map.fiber(target)}
            assert len(values) == 1, (
                f"{algorithm.name} broke view symmetry on fiber {target}"
            )

    @pytest.mark.parametrize(
        "algorithm",
        DETERMINISTIC_ALGORITHMS,
        ids=[a.name for a in DETERMINISTIC_ALGORITHMS],
    )
    def test_outputs_invariant_under_relabeling(self, algorithm):
        """Renaming nodes must permute outputs accordingly — no dependence
        on node identity may leak into an anonymous algorithm."""
        instance = lifted(2)
        mapping = {v: f"renamed-{v!r}" for v in instance.nodes}
        renamed = instance.relabel_nodes(mapping)
        original = execute(algorithm, instance, max_rounds=500, require_decided=True)
        permuted = execute(algorithm, renamed, max_rounds=500, require_decided=True)
        for v in instance.nodes:
            assert original.outputs[v] == permuted.outputs[mapping[v]]
