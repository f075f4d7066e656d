"""Failure injection: the derandomization machinery under broken inputs.

The theorem's hypotheses matter; these tests feed the solvers inputs
that violate them and verify each failure is detected loudly rather
than producing silent garbage.
"""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.core import practical as practical_module
from repro.core.a_star import AStarSolver
from repro.core.infinity import AInfinitySolver
from repro.core.practical import PracticalDerandomizer
from repro.exceptions import DerandomizationError
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.lifts import cyclic_lift
from repro.problems.mis import MISProblem
from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import ExecutionResult


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def bad_coloring_instance():
    """A 'color' layer that is NOT a 2-hop coloring (C4 with 2 colors)."""
    return with_uniform_input(cycle_graph(4)).with_layer(
        "color", {0: 0, 1: 1, 2: 0, 3: 1}
    )


SOLVER_FACTORIES = [
    lambda: AInfinitySolver(MISProblem(), AnonymousMISAlgorithm()),
    lambda: PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm()),
    lambda: AStarSolver(MISProblem(), AnonymousMISAlgorithm(), max_candidate_nodes=3),
]
SOLVER_IDS = ["a-infinity", "practical", "a-star"]


class TestInvalidColoring:
    @pytest.mark.parametrize("factory", SOLVER_FACTORIES, ids=SOLVER_IDS)
    def test_invalid_coloring_rejected(self, factory):
        solver = factory()
        with pytest.raises(DerandomizationError, match="not a 2-hop coloring"):
            solver.solve(bad_coloring_instance())

    @pytest.mark.parametrize("factory", SOLVER_FACTORIES, ids=SOLVER_IDS)
    def test_missing_color_layer_rejected(self, factory):
        solver = factory()
        with pytest.raises(DerandomizationError, match="missing"):
            solver.solve(with_uniform_input(path_graph(3)))


class _ExactSizeProblem(DistributedProblem):
    """A mock non-GRAN problem: instances are graphs with exactly six
    nodes.  Not factor-closed (the quotient of a 6-node instance can
    have 3 nodes), hence not anonymously decidable — Theorem 1 does not
    apply, and the solvers must say so."""

    name = "exactly-six-nodes"

    def is_instance(self, graph: LabeledGraph) -> bool:
        return self.inputs_well_formed(graph) and graph.num_nodes == 6

    def is_valid_output(self, graph, outputs) -> bool:
        self.require_total(graph, outputs)
        return True


class TestNonGranProblem:
    def test_a_infinity_detects_non_factor_closed_problem(self):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 2)  # 6 nodes, quotient 3 nodes
        solver = AInfinitySolver(_ExactSizeProblem(), AnonymousMISAlgorithm())
        with pytest.raises(DerandomizationError, match="not factor-closed|not an instance|not genuinely"):
            solver.solve(lift)

    def test_practical_detects_non_factor_closed_problem(self):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 2)
        solver = PracticalDerandomizer(_ExactSizeProblem(), AnonymousMISAlgorithm())
        with pytest.raises(DerandomizationError, match="GRAN"):
            solver.solve(lift)


class TestReplayFailure:
    @pytest.mark.parametrize(
        "factory", SOLVER_FACTORIES[:2], ids=SOLVER_IDS[:2]
    )
    def test_unsuccessful_replay_rejected(self, factory, monkeypatch):
        """The final simulation of the selected assignment must succeed
        again; an undecided replay raises instead of lifting partial
        outputs."""
        monkeypatch.setattr(
            practical_module,
            "execute",
            lambda *args, **kwargs: ExecutionResult(
                outputs={}, rounds=0, all_decided=False, trace=None
            ),
        )
        instance = colored(with_uniform_input(cycle_graph(3)))
        with pytest.raises(DerandomizationError, match="replay-deterministic"):
            factory().solve(instance)


def _permuted(graph):
    """The same graph with node ids rotated: isomorphic, not equal."""
    k = graph.num_nodes
    return graph.relabel_nodes({i: (i + 1) % k for i in graph.nodes})


def _edge_dropped(graph):
    """The graph minus its first edge: not even isomorphic."""
    return LabeledGraph(
        list(graph.edges())[1:],
        nodes=graph.nodes,
        layers={name: graph.layer(name) for name in graph.layer_names},
    )


class TestDivergentReconstruction:
    @pytest.mark.parametrize(
        "mutate", [_permuted, _edge_dropped], ids=["isomorphic", "edge-dropped"]
    )
    def test_divergent_reconstruction_rejected(self, mutate, monkeypatch):
        """Every distinct view must rebuild the *equal* numbered quotient
        (Lemma 1); one divergent rebuild, even an isomorphic one, raises."""
        original = practical_module.quotient_from_view
        rebuilds = []

        def divergent(view, radius, **kwargs):
            rebuilt = original(view, radius, **kwargs)
            rebuilds.append(rebuilt)
            return rebuilt if len(rebuilds) == 1 else mutate(rebuilt)

        monkeypatch.setattr(practical_module, "quotient_from_view", divergent)
        instance = colored(with_uniform_input(cycle_graph(3)))
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm())
        with pytest.raises(DerandomizationError, match="reconstructed different quotients"):
            solver.solve(instance)
        assert len(rebuilds) == 3  # one per distinct view of the prime C3


class _NeverTerminates(AnonymousAlgorithm):
    """A fake 'Las-Vegas' algorithm that never outputs: the searches must
    hit their budgets instead of hanging."""

    bits_per_round = 1
    name = "never-terminates"

    def init_state(self, input_label, degree):
        return 0

    def message(self, state):
        return None

    def transition(self, state, received, bits):
        return state + 1

    def output(self, state):
        return None


class TestNonTerminatingAlgorithm:
    def test_a_infinity_budget(self):
        instance = colored(with_uniform_input(path_graph(2)))
        solver = AInfinitySolver(
            MISProblem(), _NeverTerminates(), max_assignment_length=6
        )
        with pytest.raises(DerandomizationError, match="no successful assignment"):
            solver.solve(instance)

    def test_a_star_phase_budget(self):
        instance = colored(with_uniform_input(path_graph(2)))
        solver = AStarSolver(
            MISProblem(), _NeverTerminates(), max_candidate_nodes=2
        )
        with pytest.raises(DerandomizationError, match="phases"):
            solver.solve(instance, max_phases=4)
