"""Tests for the faithful A_* (Theorem 1 / Figure 3)."""

from __future__ import annotations

import re

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.a_star import LAYER_NAMES, AStarSolver
from repro.core.assignment_search import SearchBudgetExceeded
from repro.core.candidates import enumerate_candidates
from repro.core.orders import finite_view_graph_sort_key
from repro.core.practical import PracticalDerandomizer
from repro.exceptions import CandidateError, DerandomizationError, ReproError
from repro.factor.quotient import finite_view_graph, infinite_view_graph
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift
from repro.problems.coloring import ColoringProblem
from repro.problems.mis import MISProblem
from repro.problems.problem import TwoHopColoredVariant
from repro.views.local_views import all_views
from tests.core.test_failure_injection import _ExactSizeProblem


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


class _RejectingMIS(MISProblem):
    """MIS whose output check rejects everything: the instances A_*
    solves, with Lemma 9's conclusion made false."""

    name = "rejecting-mis"

    def is_valid_output(self, graph, outputs) -> bool:
        return False


def _not_two_hop_colored():
    """P3 whose ends share a color: a proper coloring, not a 2-hop one."""
    return with_uniform_input(path_graph(3)).with_layer("color", {0: 0, 1: 1, 2: 0})


# (solver settings, instance, phase cap, error type, message).  A_* on
# MIS solves the 2-lift of C3 in phase 4.  Every candidate of the
# six-node-only problem fails C3 (its 3-node quotient is no instance), so
# F stays empty, no node ever decides and A_* names the cause.
FAILURE_MODES = {
    "extension-budget": (
        {"extension_budget": 1}, lambda: lifted_c3(2), 12, SearchBudgetExceeded,
        "no successful extension of length 3 within 1 trials",
    ),
    "candidate-budget": (
        {"candidate_budget": 1}, lambda: lifted_c3(2), 12, CandidateError,
        "candidate enumeration exceeded its budget of 1 search states at phase 2",
    ),
    "not-two-hop-colored": (
        {}, _not_two_hop_colored, 12, DerandomizationError,
        "layer 'color' is not a 2-hop coloring",
    ),
    "quotient-not-an-instance": (
        {"problem": _ExactSizeProblem()}, lambda: lifted_c3(2), 6, DerandomizationError,
        r"not an instance of .*not genuinely solvable \(GRAN\)",
    ),
    "phase-cap": (
        {}, lambda: lifted_c3(2), 3, DerandomizationError,
        r"within 3 phases \(0/6 decided\)",
    ),
    "invalid-output": (
        {"problem": _RejectingMIS()}, lambda: lifted_c3(2), 12, DerandomizationError,
        r"^A_\* decided an invalid rejecting-mis output in phase 4, contradicting Lemma 9$",
    ),
}


@pytest.mark.parametrize("mode", sorted(FAILURE_MODES))
def test_failure_modes_raise_their_typed_error(mode):
    """Each failure raises its own :class:`ReproError` subclass from
    ``solve`` instead of returning the outputs decided so far."""
    settings, make_instance, max_phases, error, message = FAILURE_MODES[mode]
    settings = {"problem": MISProblem(), **settings}
    solver = AStarSolver(algorithm=AnonymousMISAlgorithm(), max_candidate_nodes=3, **settings)
    with pytest.raises(ReproError) as raised:
        solver.solve(make_instance(), max_phases=max_phases)
    assert type(raised.value) is error
    assert re.search(message, str(raised.value))


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


ZOO = {
    "P4": lambda: colored(with_uniform_input(path_graph(4))),
    "C4": lambda: colored(with_uniform_input(cycle_graph(4))),
    "P5": lambda: colored(with_uniform_input(path_graph(5))),
    "C3x2": lambda: lifted_c3(2),
    "C3x3": lambda: lifted_c3(3),
}


class TestCapAtLeastQuotient:
    """With a candidate cap of at least ``|V_*|`` the cap is sound
    (Lemmas 7 and 9), so A_* must solve every instance."""

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_solves_with_cap_at_least_quotient_size(self, name):
        instance = ZOO[name]()
        cap = infinite_view_graph(instance).graph.num_nodes
        solver = AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=cap)
        assert solver.max_candidate_nodes >= cap
        outputs, diagnostics = solver.solve(instance, max_phases=16)
        assert MISProblem().is_valid_output(instance.with_only_layers(["input"]), outputs)
        final = {
            (size, encoding)
            for phase, size, encoding in diagnostics.phase_selections
            if phase == diagnostics.phases
        }
        assert len(final) == 1 and final.pop()[0] == cap

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_selection_from_phase_2n_is_the_finite_view_graph(self, name):
        """Lemma 7: from phase ``2n`` on, every node's smallest candidate
        is the instance's own finite view graph, with the node on its
        own class."""
        instance = ZOO[name]()
        instance = instance.with_layer("bits", {v: "" for v in instance.nodes})
        instance = instance.with_only_layers(list(LAYER_NAMES))
        quotient = finite_view_graph(instance)
        cap = quotient.graph.num_nodes
        phase = 2 * instance.num_nodes
        expected = finite_view_graph_sort_key(quotient.graph)
        problem_c = TwoHopColoredVariant(MISProblem())
        views = all_views(instance, phase)
        for v in instance.nodes:
            selection = enumerate_candidates(
                views[v], phase, problem_c, LAYER_NAMES, max_nodes=cap
            )[0]
            assert selection.sort_key == expected
            assert selection.anchor_class == quotient.map(v)


def test_a_star_and_the_practical_solver_share_validity_not_outputs():
    """DESIGN.md §2: A_* and ``PracticalDerandomizer`` both return valid
    MIS outputs that are constant on view classes (Lemma 9), but their
    outputs need not agree.  Update-Bits extends the recorded bits one
    phase at a time, so A_*'s final assignment need not be the globally
    smallest one the practical search returns; on P4 the two select
    different nodes."""
    plain_mis = MISProblem()
    for name in sorted(ZOO):
        instance = ZOO[name]()
        quotient = infinite_view_graph(instance)
        solver = AStarSolver(
            plain_mis, AnonymousMISAlgorithm(), max_candidate_nodes=quotient.graph.num_nodes
        )
        a_star, _diagnostics = solver.solve(instance, max_phases=16)
        practical = PracticalDerandomizer(plain_mis, AnonymousMISAlgorithm()).solve(instance)
        plain = instance.with_only_layers(["input"])
        for outputs in (a_star, practical.outputs):
            assert plain_mis.is_valid_output(plain, outputs)
            for target in quotient.graph.nodes:
                assert len({outputs[v] for v in quotient.map.fiber(target)}) == 1
        if name == "P4":
            assert [v for v in instance.nodes if a_star[v]] == [0, 2]
            assert [v for v in instance.nodes if practical.outputs[v]] == [1, 3]
