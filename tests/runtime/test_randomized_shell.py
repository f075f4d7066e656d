"""Tests for the deterministic-to-randomized shell adapter."""

from __future__ import annotations

import pytest

from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.problems.mis import MISProblem
from repro.runtime.algorithm import RandomizedShell, randomized_shell
from repro.runtime.engine import execute


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestShell:
    def test_wraps_deterministic(self):
        shell = randomized_shell(GreedyMISByColor())
        assert shell.bits_per_round == 1
        assert "greedy-mis-by-color" in shell.name

    def test_randomized_passes_through(self):
        algorithm = AnonymousMISAlgorithm()
        assert randomized_shell(algorithm) is algorithm

    def test_wrapping_randomized_rejected(self):
        with pytest.raises(ValueError, match="already randomized"):
            RandomizedShell(AnonymousMISAlgorithm())

    def test_shell_ignores_bits(self):
        instance = colored(with_uniform_input(cycle_graph(7)))
        shell = randomized_shell(GreedyMISByColor())
        direct = execute(GreedyMISByColor(), instance, require_decided=True)
        for bits in ("0", "1"):
            assignment = {v: bits * 32 for v in instance.nodes}
            result = execute(shell, instance, assignment=assignment)
            assert result.successful
            assert result.outputs == direct.outputs
        assert MISProblem().is_valid_output(
            instance.with_only_layers(["input"]), direct.outputs
        )
