"""Tests for ExecutionTrace helpers."""

from __future__ import annotations

import pytest

from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.exceptions import RuntimeModelError
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.runtime.engine import execute


def _run():
    g = with_uniform_input(cycle_graph(4))
    return g, execute(TwoHopColoringAlgorithm(), g, seed=6, require_decided=True)


class TestTraceHelpers:
    def test_bits_concatenate_in_round_order(self):
        g, result = _run()
        for v in g.nodes:
            bits = result.trace.bits_of(v)
            assert len(bits) == result.rounds
            assert set(bits) <= {"0", "1"}

    def test_assignment_covers_all_nodes(self):
        g, result = _run()
        assignment = result.trace.assignment()
        assert set(assignment) == set(g.nodes)

    def test_messages_of_length(self):
        g, result = _run()
        for v in g.nodes:
            assert len(result.trace.messages_of(v)) == result.rounds

    def test_output_round_none_for_unknown(self):
        _g, result = _run()
        assert result.trace.output_round("nonexistent") is None

    def test_round_records_are_one_based(self):
        _g, result = _run()
        assert [r.round_number for r in result.trace.rounds] == list(
            range(1, result.rounds + 1)
        )


class TestExecutionResult:
    def test_output_labeling_requires_all_decided(self):
        from repro.runtime.engine import ExecutionResult

        partial = ExecutionResult(
            outputs={0: "x"}, rounds=3, all_decided=False, trace=None
        )
        with pytest.raises(RuntimeModelError, match="did not decide"):
            partial.output_labeling()

    def test_output_labeling_copies(self):
        from repro.runtime.engine import ExecutionResult

        full = ExecutionResult(
            outputs={0: "x"}, rounds=1, all_decided=True, trace=None
        )
        labeling = full.output_labeling()
        labeling[0] = "mutated"
        assert full.outputs[0] == "x"
