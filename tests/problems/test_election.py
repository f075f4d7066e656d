"""Tests for leader election: the problem, the prime-instance solver, and
the Monte-Carlo contrast."""

from __future__ import annotations

import pytest

from repro.algorithms.monte_carlo_election import (
    MonteCarloElection,
    failure_probability_bound,
)
from repro.graphs.builders import cycle_graph, path_graph, star_graph
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift
from repro.problems.election import (
    FOLLOWER,
    LEADER,
    LeaderElectionProblem,
    MinimalViewElection,
)
from repro.runtime.engine import execute
from repro.views.refinement import color_refinement


def with_n_input(graph):
    """Input labels carrying (degree, n) — election's prior knowledge."""
    n = graph.num_nodes
    return graph.with_layer("input", {v: (graph.degree(v), n) for v in graph.nodes})


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestProblem:
    def test_exactly_one_leader(self):
        g = with_n_input(path_graph(3))
        problem = LeaderElectionProblem()
        assert problem.is_valid_output(g, {0: LEADER, 1: FOLLOWER, 2: FOLLOWER})
        assert not problem.is_valid_output(g, {0: LEADER, 1: LEADER, 2: FOLLOWER})
        assert not problem.is_valid_output(g, {v: FOLLOWER for v in g.nodes})
        assert not problem.is_valid_output(g, {0: "boss", 1: FOLLOWER, 2: FOLLOWER})


class TestMinimalViewElection:
    @pytest.mark.parametrize(
        "graph",
        [
            colored(with_n_input(path_graph(4))),
            colored(with_n_input(star_graph(4))),
            colored(with_n_input(cycle_graph(5))),
        ],
        ids=["path4", "star4", "cycle5"],
    )
    def test_elects_exactly_one_on_prime_instances(self, graph):
        result = execute(MinimalViewElection(), graph, max_rounds=100, require_decided=True)
        assert result.all_decided
        leaders = [v for v, out in result.outputs.items() if out == LEADER]
        assert len(leaders) == 1

    def test_deterministic(self):
        graph = colored(with_n_input(cycle_graph(5)))
        a = execute(MinimalViewElection(), graph, max_rounds=100, require_decided=True)
        b = execute(MinimalViewElection(), graph, max_rounds=100, require_decided=True)
        assert a.outputs == b.outputs

    def test_fails_on_non_prime_instances(self):
        """The boundary of GRAN: on a lifted instance whole view classes
        claim leadership together — election is impossible and the
        algorithm (necessarily) produces one leader per fiber."""
        base = colored(with_n_input(cycle_graph(3)))
        # Greedy colors a 6-cycle with period 3: 2-hop colored, not prime.
        instances = [colored(with_n_input(cycle_graph(6)))]
        for fiber in (2, 4):
            lift, _ = cyclic_lift(base, fiber)
            # Patch n in the inputs to the lift's size (labels were lifted).
            instances.append(
                lift.with_layer(
                    "input", {v: (lift.degree(v), lift.num_nodes) for v in lift.nodes}
                )
            )
        for instance in instances:
            result = execute(
                MinimalViewElection(), instance, max_rounds=100, require_decided=True
            )
            leaders = [v for v, out in result.outputs.items() if out == LEADER]
            classes = color_refinement(instance).num_classes
            assert classes == 3
            assert len(leaders) == instance.num_nodes // classes  # one whole fiber
            assert not LeaderElectionProblem().is_valid_output(
                instance.with_only_layers(["input"]), result.outputs
            )

    def test_single_node(self):
        graph = colored(with_n_input(path_graph(1)))
        result = execute(MinimalViewElection(), graph, max_rounds=10, require_decided=True)
        assert result.outputs[0] == LEADER


class TestMonteCarloElection:
    def test_usually_elects_one_leader(self):
        problem = LeaderElectionProblem()
        # Collision odds ~ 2^-19 (24-bit IDs on C6) and ~ 2^-10 (16-bit on C8).
        for n, id_bits, seeds in [(6, 24, 20), (8, 16, 60)]:
            g = with_n_input(cycle_graph(n))
            successes = 0
            for seed in range(seeds):
                result = execute(
                    MonteCarloElection(id_bits=id_bits), g, seed=seed, require_decided=True
                )
                if problem.is_valid_output(g, result.outputs):
                    successes += 1
            assert successes == seeds

    def test_small_ids_can_fail(self):
        """With 1-bit IDs collisions are frequent: some seed must fail —
        the algorithm is Monte-Carlo, not Las-Vegas."""
        g = with_n_input(cycle_graph(6))
        problem = LeaderElectionProblem()
        failures = sum(
            not problem.is_valid_output(
                g,
                execute(
                    MonteCarloElection(id_bits=1), g, seed=seed, require_decided=True
                ).outputs,
            )
            for seed in range(20)
        )
        assert failures > 0

    def test_rounds_bounded_by_n_plus_one(self):
        g = with_n_input(cycle_graph(8))
        result = execute(MonteCarloElection(id_bits=16), g, seed=0, require_decided=True)
        assert result.rounds == 9

    def test_failure_bound(self):
        assert failure_probability_bound(4, 16) == 16 / 65536
        assert failure_probability_bound(100, 2) == 1.0

    def test_bad_id_bits(self):
        with pytest.raises(ValueError):
            MonteCarloElection(id_bits=0)
