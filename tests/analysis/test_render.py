"""Tests for trace rendering."""

from __future__ import annotations

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.analysis.render import render_output_timeline
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.runtime.engine import execute
from repro.runtime.trace import ExecutionTrace


def _run():
    g = with_uniform_input(cycle_graph(4))
    return execute(AnonymousMISAlgorithm(), g, seed=2, require_decided=True)


class TestOutputTimeline:
    def test_every_node_listed(self):
        result = _run()
        text = render_output_timeline(result.trace)
        assert text.count("node") == 4

    def test_rounds_ascending(self):
        result = _run()
        text = render_output_timeline(result.trace)
        rounds = [
            int(line.split("round")[1].split(":")[0])
            for line in text.splitlines()
            if "round" in line
        ]
        assert rounds == sorted(rounds)

    def test_empty(self):
        assert "no outputs" in render_output_timeline(ExecutionTrace("x"))
