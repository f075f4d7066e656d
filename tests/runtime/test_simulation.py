"""Tests for simulations induced by assignments, seeded and deterministic
runs through ``execute``, and replayability."""

from __future__ import annotations

import pytest

from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.exceptions import SimulationError
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.runtime.engine import execute


class TestInducedSimulation:
    def test_replay_reproduces_random_run(self):
        """The paper's replay principle: the assignment recorded from an
        execution induces a simulation with identical outputs."""
        g = with_uniform_input(cycle_graph(5))
        algorithm = TwoHopColoringAlgorithm()
        run = execute(algorithm, g, seed=4, require_decided=True)
        replay = execute(algorithm, g, assignment=run.trace.assignment())
        assert replay.successful
        assert replay.outputs == run.outputs

    def test_short_assignment_unsuccessful(self):
        g = with_uniform_input(cycle_graph(5))
        algorithm = TwoHopColoringAlgorithm()
        assignment = {v: "0" for v in g.nodes}  # one round cannot finish
        result = execute(algorithm, g, assignment=assignment)
        assert not result.successful

    def test_simulation_length_is_min_tape(self):
        g = with_uniform_input(path_graph(2))
        algorithm = AnonymousMISAlgorithm()
        assignment = {0: "111111", 1: "0"}
        result = execute(algorithm, g, assignment=assignment)
        assert result.rounds <= 1

    def test_missing_node_rejected(self):
        g = with_uniform_input(path_graph(2))
        with pytest.raises(SimulationError, match="does not cover"):
            execute(AnonymousMISAlgorithm(), g, assignment={0: "01"})

    def test_deterministic_algorithm_rejected(self):
        g = with_uniform_input(path_graph(2))
        colored = apply_two_hop_coloring(g, greedy_two_hop_coloring(g))
        with pytest.raises(SimulationError, match="deterministic"):
            execute(
                GreedyMISByColor(), colored, assignment={v: "0" for v in colored.nodes}
            )

    def test_success_predicate(self):
        g = with_uniform_input(path_graph(2))
        algorithm = AnonymousMISAlgorithm()
        run = execute(algorithm, g, seed=1, require_decided=True)
        assert execute(algorithm, g, assignment=run.trace.assignment()).all_decided


class TestRunners:
    def test_run_randomized_deterministic_per_seed(self):
        g = with_uniform_input(cycle_graph(6))
        a = execute(TwoHopColoringAlgorithm(), g, seed=8, require_decided=True)
        b = execute(TwoHopColoringAlgorithm(), g, seed=8, require_decided=True)
        assert a.outputs == b.outputs

    def test_run_randomized_round_limit_raises(self):
        g = with_uniform_input(cycle_graph(6))
        with pytest.raises(SimulationError, match="did not terminate"):
            execute(TwoHopColoringAlgorithm(), g, seed=1, max_rounds=1, require_decided=True)

    def test_run_deterministic_requires_deterministic(self):
        """A randomized algorithm with no bit source is rejected."""
        g = with_uniform_input(path_graph(2))
        with pytest.raises(SimulationError, match="randomized"):
            execute(AnonymousMISAlgorithm(), g, require_decided=True)

    def test_run_deterministic_greedy_mis(self):
        g = with_uniform_input(path_graph(4))
        colored = apply_two_hop_coloring(g, greedy_two_hop_coloring(g))
        result = execute(GreedyMISByColor(), colored, require_decided=True)
        assert result.all_decided
