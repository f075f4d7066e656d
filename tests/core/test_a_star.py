"""Tests for the faithful A_* (Theorem 1 / Figure 3)."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.a_star import AStarSolver
from repro.exceptions import DerandomizationError
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift
from repro.problems.coloring import ColoringProblem
from repro.problems.mis import MISProblem


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def lifted_c3(fiber: int):
    base = colored(with_uniform_input(cycle_graph(3)))
    lift, _ = cyclic_lift(base, fiber)
    return lift


class TestTheorem1:
    @pytest.mark.parametrize("fiber", [1, 2, 4])
    def test_mis_on_lifted_cycles(self, fiber):
        instance = lifted_c3(fiber)
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        outputs, diagnostics = solver.solve(instance, max_phases=12)
        plain = instance.with_only_layers(["input"])
        assert MISProblem().is_valid_output(plain, outputs)
        assert diagnostics.phases <= 12
        # Lemma 1: within each phase, all nodes select the same graph.
        by_phase: dict = {}
        for phase, size, encoding in diagnostics.phase_selections:
            by_phase.setdefault(phase, set()).add((size, encoding))
        assert all(len(selections) == 1 for selections in by_phase.values())

    def test_coloring_on_lifted_cycle(self):
        instance = lifted_c3(2)
        solver = AStarSolver(
            ColoringProblem(), VertexColoringAlgorithm(), max_candidate_nodes=3
        )
        outputs, _ = solver.solve(instance, max_phases=12)
        plain = instance.with_only_layers(["input"])
        assert ColoringProblem().is_valid_output(plain, outputs)

    def test_deterministic(self):
        instance = lifted_c3(2)
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        a, _ = solver.solve(instance, max_phases=12)
        b, _ = solver.solve(instance, max_phases=12)
        assert a == b

    def test_outputs_constant_on_view_classes(self):
        instance = lifted_c3(4)
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        outputs, _ = solver.solve(instance, max_phases=12)
        from repro.factor.quotient import infinite_view_graph

        quotient = infinite_view_graph(instance)
        for target in quotient.graph.nodes:
            fiber = quotient.map.fiber(target)
            assert len({outputs[v] for v in fiber}) == 1

    def test_single_node_instance(self):
        instance = colored(with_uniform_input(path_graph(1)))
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=2)
        outputs, _ = solver.solve(instance, max_phases=8)
        assert outputs[0] is True

    def test_two_node_prime_instance(self):
        instance = colored(with_uniform_input(path_graph(2)))
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=2)
        outputs, _ = solver.solve(instance, max_phases=10)
        plain = instance.with_only_layers(["input"])
        assert MISProblem().is_valid_output(plain, outputs)

    def test_meta_derandomizing_the_coloring_itself(self):
        """The cute self-referential case: derandomize the 2-hop coloring
        algorithm — given one 2-hop coloring, A_* deterministically
        computes another (possibly different) one."""
        from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
        from repro.problems.coloring import KHopColoringProblem

        instance = lifted_c3(2)
        problem = KHopColoringProblem(2)
        solver = AStarSolver(problem, TwoHopColoringAlgorithm(), max_candidate_nodes=3)
        outputs, _ = solver.solve(instance, max_phases=12)
        plain = instance.with_only_layers(["input"])
        assert problem.is_valid_output(plain, outputs)

    def test_missing_color_rejected(self):
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm())
        with pytest.raises(DerandomizationError, match="color"):
            solver.solve(with_uniform_input(path_graph(2)), max_phases=4)

    def test_phase_budget_raises(self):
        instance = lifted_c3(2)
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        with pytest.raises(DerandomizationError, match="phases"):
            solver.solve(instance, max_phases=1)


class TestLemmaPredictions:
    def test_selection_converges_to_finite_view_graph(self):
        """Lemma 7 (in practice ahead of its 2n bound): by the final
        phase, Update-Graph selects the instance's own finite view graph
        — the selection size equals the quotient's node count, and all
        nodes select the same encoding."""
        instance = lifted_c3(2)  # quotient size n = 3
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        _outputs, diagnostics = solver.solve(instance, max_phases=12)
        final_phase = diagnostics.phases
        final = [
            (size, enc)
            for (phase, size, enc) in diagnostics.phase_selections
            if phase == final_phase
        ]
        assert final
        assert all(size == 3 for size, _enc in final)
        assert len({enc for _size, enc in final}) == 1  # Lemma 1: agreement

    def test_message_round_accounting(self):
        instance = lifted_c3(1)
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3)
        _outputs, diagnostics = solver.solve(instance, max_phases=12)
        p = diagnostics.phases
        assert diagnostics.message_rounds == p * (p + 1) // 2
