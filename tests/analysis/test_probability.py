"""Tests for success-probability measurement."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
import random

from repro.analysis.probability import measure_success_curve
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.runtime.engine import collect_engine_metrics, execute


class TestSuccessCurve:
    def test_monotone_in_length(self):
        g = with_uniform_input(path_graph(3))
        curve = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[1, 2, 4, 8], samples_per_length=120
        )
        probabilities = [p for (_t, p) in curve.points]
        # More bits can only help; sampling noise stays within a margin.
        for earlier, later in zip(probabilities, probabilities[1:]):
            assert later >= earlier - 0.1

    def test_too_short_never_succeeds(self):
        g = with_uniform_input(cycle_graph(4))
        curve = measure_success_curve(
            TwoHopColoringAlgorithm(), g, lengths=[1, 2], samples_per_length=50
        )
        assert curve.points == ((1, 0.0), (2, 0.0))  # commits start at round 3

    def test_long_assignments_almost_surely_succeed(self):
        g = with_uniform_input(path_graph(3))
        curve = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[16], samples_per_length=100
        )
        ((length, probability),) = curve.points
        assert length == 16 and probability >= 0.95

    def test_first_feasible_length(self):
        g = with_uniform_input(path_graph(2))
        curve = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[1, 2, 3, 8], samples_per_length=100
        )
        first_feasible = min(t for t, probability in curve.points if probability > 0)
        assert first_feasible in (2, 3)

    def test_expected_trials(self):
        g = with_uniform_input(path_graph(2))
        curve = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[1, 8], samples_per_length=100
        )
        # Expected trials 1/p_t: infinite at t=1, between 1 and 3 at t=8.
        assert curve.points[0] == (1, 0.0)
        assert curve.points[1][0] == 8 and 1 / 3 <= curve.points[1][1] <= 1.0

    def test_deterministic_for_seed(self):
        g = with_uniform_input(path_graph(3))
        a = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[4], samples_per_length=60, seed=5
        )
        b = measure_success_curve(
            AnonymousMISAlgorithm(), g, lengths=[4], samples_per_length=60, seed=5
        )
        assert a == b

    @pytest.mark.parametrize("graph", [path_graph(2), cycle_graph(5)], ids=["P2", "C5"])
    def test_matches_a_loop_over_execute(self, graph):
        """The memo plays the same trials as ``execute``: the same curve
        and the same collector totals."""
        g = with_uniform_input(graph)
        algorithm, lengths, samples = AnonymousMISAlgorithm(), (2, 3, 4, 8, 16), 60
        with collect_engine_metrics() as measured:
            curve = measure_success_curve(algorithm, g, lengths, samples_per_length=samples)
        rng = random.Random(0)
        points = []
        with collect_engine_metrics() as replayed:
            for t in lengths:
                successes = 0
                for _ in range(samples):
                    assignment = {
                        v: "".join(str(rng.getrandbits(1)) for _ in range(t)) for v in g.nodes
                    }
                    successes += execute(algorithm, g, assignment=assignment).successful
                points.append((t, successes / samples))
        assert curve.points == tuple(points)
        assert measured.as_dict(include_wall=False) == replayed.as_dict(include_wall=False)
