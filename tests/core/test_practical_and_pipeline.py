"""Tests for the practical derandomizer and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.derandomize import derandomize_pipeline
from repro.core.infinity import AInfinitySolver
from repro.core import practical as practical_module
from repro.core.practical import PracticalDerandomizer, quotient_from_view
from repro.exceptions import ProblemError, ViewError
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.factor.quotient import finite_view_graph
from repro.problems.coloring import ColoringProblem
from repro.problems.gran import GranBundle
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem
from repro.views.local_views import view
from repro.views.view_tree import clear_caches, intern_stats


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def colored_k4():
    return colored(with_uniform_input(complete_graph(4)))


# Small colored instances: non-trivial quotients (the lifts) and prime graphs.
ZOO = {
    "c3-lift-2": lambda: cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 2)[0],
    "c3-lift-4": lambda: cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 4)[0],
    "k4": colored_k4,
    "p3": lambda: colored(with_uniform_input(path_graph(3))),
    "k4-lift-2": lambda: lift_graph(colored_k4(), 2, seed=3)[0],
}


class TestQuotientFromView:
    @pytest.mark.parametrize("fiber", [1, 2, 4])
    def test_reconstruction_matches_centralized_quotient(self, fiber):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, fiber)
        n = lift.num_nodes
        t = view(lift, lift.nodes[0], 2 * (n + 1))
        rebuilt = quotient_from_view(t, n + 1, ("input", "color"))
        central = finite_view_graph(lift)
        assert are_isomorphic(rebuilt, central.graph)

    def test_prime_graph_reconstruction(self):
        g = colored(with_uniform_input(star_graph(3)))
        n = g.num_nodes
        t = view(g, 0, 2 * (n + 1))
        rebuilt = quotient_from_view(t, n + 1, ("input", "color"))
        assert are_isomorphic(rebuilt, g)

    def test_single_node(self):
        g = colored(with_uniform_input(path_graph(1)))
        t = view(g, 0, 4)
        rebuilt = quotient_from_view(t, 2, ("input", "color"))
        assert rebuilt.num_nodes == 1

    def test_shallow_view_rejected(self):
        g = colored(with_uniform_input(cycle_graph(4)))
        t = view(g, 0, 3)
        with pytest.raises(ViewError, match="too shallow"):
            quotient_from_view(t, 5, ("input", "color"))

    @pytest.mark.parametrize(
        "graph,radius,message",
        [
            # Not 2-hop colored: a node's child matches the node itself.
            (
                with_uniform_input(cycle_graph(4)).with_layer("color", dict.fromkeys(range(4), 0)),
                3,
                "has a loop",
            ),
            # A boundary alias's child is no alias's truncation.
            (
                with_uniform_input(path_graph(8)).with_layer("color", {v: v % 3 for v in range(8)}),
                3,
                "ambiguous",
            ),
            # A child is the depth-1 truncation of two distinct aliases.
            (
                with_uniform_input(cycle_graph(5)).with_layer(
                    "color", dict(enumerate((0, 1, 0, 1, 1)))
                ),
                2,
                "ambiguous",
            ),
        ],
        ids=["loop", "no-match", "two-matches"],
    )
    def test_reconstruction_errors(self, graph, radius, message):
        rebuilt = None
        with pytest.raises(ViewError, match=message):
            rebuilt = quotient_from_view(view(graph, 0, 2 * radius), radius, ("input", "color"))
        assert rebuilt is None


class TestPracticalDerandomizer:
    @pytest.mark.parametrize(
        "problem,algorithm",
        [
            (MISProblem(), AnonymousMISAlgorithm()),
            (ColoringProblem(), VertexColoringAlgorithm()),
        ],
        ids=["mis", "coloring"],
    )
    def test_valid_on_lifted_cycle(self, problem, algorithm):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 4)
        solver = PracticalDerandomizer(problem, algorithm)
        result = solver.solve(lift)
        plain = lift.with_only_layers(["input"])
        assert problem.is_valid_output(plain, result.outputs)

    @pytest.mark.parametrize("strategy", ["lexicographic", "prg"])
    @pytest.mark.parametrize("name", list(ZOO))
    def test_agrees_with_a_infinity(self, name, strategy):
        """Practical and A_infinity run the same selection rule on the same
        quotient, so their results coincide exactly."""
        instance = ZOO[name]()
        problem, algorithm = MISProblem(), AnonymousMISAlgorithm()
        practical = PracticalDerandomizer(problem, algorithm, strategy=strategy).solve(instance)
        infinity = AInfinitySolver(problem, algorithm, strategy=strategy).solve(instance)
        assert practical.outputs == infinity.outputs
        assert practical.assignment == infinity.assignment
        assert practical.simulation_rounds == infinity.simulation_rounds
        assert practical.quotient.graph == infinity.quotient.graph

    @pytest.mark.parametrize("solver_class", [AInfinitySolver, PracticalDerandomizer])
    def test_search_and_replay_resolve_through_practical_module(
        self, solver_class, monkeypatch
    ):
        """Both quotient solvers call the search and the final simulation
        once each, through ``repro.core.practical``'s globals — where the
        benchmark tracer wraps them as ``assignment_search`` and
        ``engine.final_sim``."""
        calls = {"smallest_successful_assignment": 0, "execute": 0}
        for name in calls:
            original = getattr(practical_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(practical_module, name, counting)
        solver_class(MISProblem(), AnonymousMISAlgorithm()).solve(ZOO["c3-lift-2"]())
        assert calls == {"smallest_successful_assignment": 1, "execute": 1}

    @pytest.mark.parametrize("n", [32, 64])
    def test_truncation_work_is_linear_in_view_size(self, n):
        """A work count, not a timing: each node reconstructs from its
        depth-(2n + 2) view, and the truncation table must stay within a
        small multiple of the n * (2n + 2) distinct view trees (an
        O(n^3) truncation path gave 270,400 entries at n = 64)."""
        clear_caches()
        instance = colored(with_uniform_input(cycle_graph(n)))
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
        solver.solve(instance)
        assert intern_stats()["truncations"] <= 2 * n * (2 * n + 2)
        clear_caches()


class TestPipeline:
    def bundles(self):
        decider = WellFormedInputDecider()
        return [
            GranBundle(MISProblem(), AnonymousMISAlgorithm(), decider),
            GranBundle(ColoringProblem(), VertexColoringAlgorithm(), decider),
            GranBundle(MaximalMatchingProblem(), AnonymousMatchingAlgorithm(), decider),
        ]

    @pytest.mark.parametrize(
        "graph_name,graph",
        [
            ("cycle-5", with_uniform_input(cycle_graph(5))),
            ("path-4", with_uniform_input(path_graph(4))),
            ("star-4", with_uniform_input(star_graph(4))),
        ],
        ids=["cycle-5", "path-4", "star-4"],
    )
    def test_pipeline_end_to_end(self, graph_name, graph):
        for bundle in self.bundles():
            result = derandomize_pipeline(bundle, graph, seed=3, strategy="prg")
            # derandomize_pipeline validates outputs internally; check the
            # reported shape too.
            assert set(result.outputs) == set(graph.nodes)
            assert result.stage1_rounds >= 3
            assert result.quotient_size <= graph.num_nodes

    def test_pipeline_deterministic_given_coloring_seed(self):
        g = with_uniform_input(cycle_graph(6))
        bundle = self.bundles()[0]
        a = derandomize_pipeline(bundle, g, seed=11, strategy="prg")
        b = derandomize_pipeline(bundle, g, seed=11, strategy="prg")
        assert a.outputs == b.outputs
        assert a.coloring == b.coloring

    def test_pipeline_rejects_non_instance(self):
        bundle = self.bundles()[0]
        with pytest.raises(ProblemError, match="not an instance"):
            derandomize_pipeline(bundle, cycle_graph(4), seed=0)

    def test_pipeline_on_petersen(self):
        bundle = self.bundles()[0]
        g = with_uniform_input(petersen_graph())
        result = derandomize_pipeline(bundle, g, seed=5, strategy="prg")
        assert MISProblem().is_valid_output(g, result.outputs)
