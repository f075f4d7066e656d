"""Tests for A_infinity (Theorem 2) on finite graphs."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.infinity import AInfinitySolver
from repro.exceptions import DerandomizationError
from repro.graphs.builders import complete_graph, cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.problems.coloring import ColoringProblem
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def colored_c3_lift(fiber: int):
    base = colored(with_uniform_input(cycle_graph(3)))
    lift, _ = cyclic_lift(base, fiber)
    return lift


class TestTheorem2:
    @pytest.mark.parametrize(
        "problem,algorithm",
        [
            (MISProblem(), AnonymousMISAlgorithm()),
            (ColoringProblem(), VertexColoringAlgorithm()),
            (MaximalMatchingProblem(), AnonymousMatchingAlgorithm()),
        ],
        ids=["mis", "coloring", "matching"],
    )
    @pytest.mark.parametrize("fiber", [1, 2, 4])
    def test_valid_outputs_on_lifted_cycles(self, problem, algorithm, fiber):
        instance = colored_c3_lift(fiber)
        solver = AInfinitySolver(problem, algorithm)
        result = solver.solve(instance)
        plain = instance.with_only_layers(["input"])
        assert problem.is_valid_output(plain, result.outputs)
        assert result.quotient.graph.num_nodes == 3

    def test_deterministic(self):
        """Deterministic and valid under both search orders (any
        predetermined order satisfies Lemma 1)."""
        instance = colored_c3_lift(2)
        plain = instance.with_only_layers(["input"])
        for strategy in ("lexicographic", "prg"):
            solver = AInfinitySolver(
                MISProblem(), AnonymousMISAlgorithm(), strategy=strategy
            )
            a = solver.solve(instance)
            b = solver.solve(instance)
            assert a.outputs == b.outputs
            assert a.assignment == b.assignment
            assert MISProblem().is_valid_output(plain, a.outputs)

    def test_outputs_constant_on_fibers(self):
        k4_lift, _ = lift_graph(colored(with_uniform_input(complete_graph(4))), 2, seed=3)
        for instance, problem, algorithm in [
            (colored_c3_lift(4), MISProblem(), AnonymousMISAlgorithm()),
            (k4_lift, ColoringProblem(), VertexColoringAlgorithm()),
        ]:
            result = AInfinitySolver(problem, algorithm).solve(instance)
            for target in result.quotient.graph.nodes:
                fiber = result.quotient.map.fiber(target)
                assert len({result.outputs[v] for v in fiber}) == 1
            plain = instance.with_only_layers(["input"])
            assert problem.is_valid_output(plain, result.outputs)

    def test_prime_instance_quotient_is_identity(self):
        instance = colored(with_uniform_input(path_graph(3)))
        solver = AInfinitySolver(MISProblem(), AnonymousMISAlgorithm())
        result = solver.solve(instance)
        assert result.quotient.is_trivial
        plain = instance.with_only_layers(["input"])
        assert MISProblem().is_valid_output(plain, result.outputs)
        k4 = colored(with_uniform_input(complete_graph(4)))
        result = AInfinitySolver(ColoringProblem(), VertexColoringAlgorithm()).solve(k4)
        assert result.quotient.is_trivial
        plain = k4.with_only_layers(["input"])
        assert ColoringProblem().is_valid_output(plain, result.outputs)

    def test_missing_color_layer_rejected(self):
        solver = AInfinitySolver(MISProblem(), AnonymousMISAlgorithm())
        with pytest.raises(DerandomizationError, match="color"):
            solver.solve(with_uniform_input(path_graph(3)))

    def test_assignment_is_recorded_and_successful(self):
        from repro.runtime.engine import execute

        instance = colored_c3_lift(2)
        solver = AInfinitySolver(MISProblem(), AnonymousMISAlgorithm())
        result = solver.solve(instance)
        sim_graph = result.quotient.graph.with_only_layers(["input"])
        replay = execute(
            AnonymousMISAlgorithm(), sim_graph, assignment=result.assignment
        )
        assert replay.successful
        assert replay.rounds == result.simulation_rounds
