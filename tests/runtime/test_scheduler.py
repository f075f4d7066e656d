"""Tests for the broadcast round kernel and the anonymous-model contract."""

from __future__ import annotations

import pytest

from repro.exceptions import OutputAlreadySetError, RuntimeModelError
from repro.graphs.builders import cycle_graph, path_graph, star_graph
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import BroadcastDelivery, ExecutionEngine, execute
from repro.runtime.tape import FixedTape, RandomTape


def _uniform(graph, value=0):
    return graph.with_layer("input", {v: value for v in graph.nodes})


def _empty_tapes(graph):
    return {v: FixedTape("") for v in graph.nodes}


def counting_algorithm(stop_at: int):
    """Deterministic: count rounds; output after ``stop_at`` rounds."""
    return FunctionAlgorithm(
        init=lambda label, deg: 0,
        msg=lambda s: s,
        step=lambda s, received, bits: s + 1,
        out=lambda s: s if s >= stop_at else None,
        bits_per_round=0,
        name="counter",
    )


def degree_sum_algorithm():
    """Each node outputs the sum of neighbor degrees after one round."""
    return FunctionAlgorithm(
        init=lambda label, deg: ("fresh", deg),
        msg=lambda s: s[1],
        step=lambda s, received, bits: ("done", sum(received)),
        out=lambda s: s[1] if s[0] == "done" else None,
        bits_per_round=0,
        name="degree-sum",
    )


class TestExecution:
    def test_runs_until_all_decide(self):
        g = _uniform(cycle_graph(4))
        result = execute(counting_algorithm(3), g, tapes=_empty_tapes(g), max_rounds=10)
        assert result.all_decided
        assert result.rounds == 3
        assert all(value == 3 for value in result.outputs.values())

    def test_round_limit(self):
        g = _uniform(cycle_graph(4))
        result = execute(counting_algorithm(100), g, tapes=_empty_tapes(g), max_rounds=5)
        assert not result.all_decided
        assert result.rounds == 5

    def test_messages_delivered_as_sorted_multiset(self):
        g = _uniform(star_graph(3))
        result = execute(degree_sum_algorithm(), g, tapes=_empty_tapes(g), max_rounds=2)
        assert result.outputs[0] == 3  # center sees three degree-1 leaves
        assert result.outputs[1] == 3  # each leaf sees the degree-3 center

    def test_missing_tape_rejected(self):
        g = _uniform(path_graph(2))
        with pytest.raises(RuntimeModelError, match="no bit source"):
            execute(counting_algorithm(1), g, tapes={0: FixedTape("")})

    def test_fixed_tape_bounds_rounds(self):
        g = _uniform(path_graph(2))
        algorithm = FunctionAlgorithm(
            init=lambda label, deg: 0,
            msg=lambda s: None,
            step=lambda s, received, bits: s + 1,
            out=lambda s: None,  # never decides
            bits_per_round=1,
            name="undecided",
        )
        result = execute(
            algorithm, g, tapes={v: FixedTape("000") for v in g.nodes}, max_rounds=100
        )
        assert result.rounds == 3  # tape-funded rounds only
        assert not result.all_decided

    def test_step_without_funding_raises(self):
        g = _uniform(path_graph(2))
        algorithm = counting_algorithm(5)
        algorithm.bits_per_round = 1
        engine = ExecutionEngine(
            algorithm, g, _empty_tapes(g), delivery=BroadcastDelivery()
        )
        with pytest.raises(RuntimeModelError, match="exhausted"):
            engine.step()


class TestIrrevocability:
    def test_changing_output_raises(self):
        g = _uniform(path_graph(2))
        flipper = FunctionAlgorithm(
            init=lambda label, deg: 0,
            msg=lambda s: None,
            step=lambda s, received, bits: s + 1,
            out=lambda s: s,  # output changes every round: illegal
            bits_per_round=0,
            name="flipper",
        )
        engine = ExecutionEngine(flipper, g, _empty_tapes(g), delivery=BroadcastDelivery())
        # Output 0 registers at initialization; the first step changes it.
        with pytest.raises(OutputAlreadySetError):
            engine.step()

    def test_output_at_init_allowed(self):
        g = _uniform(path_graph(2))
        instant = FunctionAlgorithm(
            init=lambda label, deg: deg,
            msg=lambda s: None,
            step=lambda s, received, bits: s,
            out=lambda s: s,
            bits_per_round=0,
            name="instant",
        )
        result = execute(instant, g, tapes=_empty_tapes(g), max_rounds=5)
        assert result.rounds == 0
        assert result.all_decided


class TestTrace:
    def test_trace_records_rounds_and_bits(self):
        g = _uniform(path_graph(2))
        algorithm = FunctionAlgorithm(
            init=lambda label, deg: "",
            msg=lambda s: s,
            step=lambda s, received, bits: s + bits,
            out=lambda s: s if len(s) >= 2 else None,
            bits_per_round=1,
            name="bit-collector",
        )
        result = execute(
            algorithm, g, tapes={v: RandomTape(v) for v in g.nodes}, max_rounds=10
        )
        assert result.all_decided
        trace = result.trace
        assert len(trace.rounds) == result.rounds
        for v in g.nodes:
            assert trace.bits_of(v) == result.outputs[v]
        assert trace.assignment() == result.outputs

    def test_output_round_lookup(self):
        g = _uniform(path_graph(2))
        result = execute(counting_algorithm(2), g, tapes=_empty_tapes(g), max_rounds=5)
        assert result.trace.output_round(0) == 2
