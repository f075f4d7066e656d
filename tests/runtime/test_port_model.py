"""Tests for the port-numbering model and its color-based emulation —
the executable form of the paper's "port numbers can be emulated" remark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.exceptions import RuntimeModelError
from repro.graphs.builders import cycle_graph, path_graph, star_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.runtime.engine import ExecutionEngine, PortDelivery, execute
from repro.runtime.port_model import PortAwareAlgorithm, PortEmulation
from repro.runtime.tape import FixedTape


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def _empty_tapes(graph):
    return {v: FixedTape("") for v in graph.nodes}


@dataclass(frozen=True)
class _TokenState:
    token: object
    collected: tuple
    round_number: int
    rounds_needed: int


class PortTokenSum(PortAwareAlgorithm):
    """A genuinely port-sensitive algorithm: every round, send
    ``(my token, port index)`` on each port; collect what arrives per
    port; output after ``rounds_needed`` rounds the sorted collection.

    Port sensitivity makes this a sharp emulation test: any mix-up of
    which message arrived on which port changes the output.
    """

    bits_per_round = 0
    name = "port-token-sum"

    def __init__(self, rounds_needed: int = 2) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label, degree: int):
        # A degree-tagged token (input labels differ in shape between the
        # native and emulated runs, so they are not used directly).
        return _TokenState(
            token=("T", degree),
            collected=(),
            round_number=0,
            rounds_needed=self.rounds_needed,
        )

    def messages(self, state: _TokenState, degree: int):
        return [(state.token, port) for port in range(degree)]

    def transition(self, state: _TokenState, received, bits: str):
        entry = tuple(
            (port, payload) for port, payload in enumerate(received)
        )
        return replace(
            state,
            collected=state.collected + (entry,),
            round_number=state.round_number + 1,
        )

    def output(self, state: _TokenState):
        if state.round_number >= state.rounds_needed:
            return state.collected
        return None


def color_order_ports(graph):
    """Re-port the graph so real ports match the emulation's virtual
    ports (ascending neighbor-color order)."""
    def key(u):
        c = graph.label_of(u, "color")
        return (type(c).__name__, repr(c))

    return graph.with_ports(
        {v: sorted(graph.neighbors(v), key=key) for v in graph.nodes}
    )


class TestPortDelivery:
    def test_port_directed_delivery(self):
        g = with_uniform_input(path_graph(3))
        result = execute(PortTokenSum(1), g, tapes=_empty_tapes(g), max_rounds=5)
        assert result.all_decided
        # Middle node has 2 ports; each entry records (port, payload).
        middle = result.outputs[1]
        assert len(middle[0]) == 2

    def test_message_count_must_match_degree(self):
        class Broken(PortTokenSum):
            def messages(self, state, degree):
                return [("x", 0)]  # wrong arity

        g = with_uniform_input(star_graph(3))
        with pytest.raises(RuntimeModelError, match="ports"):
            execute(Broken(), g, tapes=_empty_tapes(g), max_rounds=2)


class RandomizedPortEcho(PortAwareAlgorithm):
    """Port-sensitive *and* bit-sensitive: each round every node sends
    its accumulated bitstring tagged with the port index, appends the
    received (port, payload) pairs and its freshly drawn bit, and after
    ``rounds_needed`` rounds outputs the whole history.  Any mix-up of
    port attribution or of bit accounting changes the output."""

    bits_per_round = 1
    name = "randomized-port-echo"

    def __init__(self, rounds_needed: int = 3) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label, degree: int):
        return _TokenState(
            token="",  # accumulated bits
            collected=(),
            round_number=0,
            rounds_needed=self.rounds_needed,
        )

    def messages(self, state: _TokenState, degree: int):
        return [(state.token, port) for port in range(degree)]

    def transition(self, state: _TokenState, received, bits: str):
        entry = tuple((port, payload) for port, payload in enumerate(received))
        return replace(
            state,
            token=state.token + bits,
            collected=state.collected + (entry,),
            round_number=state.round_number + 1,
        )

    def output(self, state: _TokenState):
        if state.round_number >= state.rounds_needed:
            return (state.collected, state.token)
        return None


class TestPortFunding:
    """Regression for the pre-unification port scheduler, which skipped
    the tape-funding check: a dry tape raised mid-round from ``draw``
    after some nodes had already transitioned, leaving torn state.  The
    unified kernel stops *before* any round it cannot fund — the paper's
    ``l = min length`` convention (Section 2.2) — in both disciplines."""

    def test_run_stops_before_unfunded_round(self):
        g = with_uniform_input(path_graph(3))
        # Node 1 funds only 2 rounds; the run must stop at exactly 2.
        tapes = {0: FixedTape("0000"), 1: FixedTape("00"), 2: FixedTape("000")}
        engine = ExecutionEngine(
            RandomizedPortEcho(rounds_needed=10), g, tapes, delivery=PortDelivery()
        )
        result = engine.run(max_rounds=100)
        assert result.rounds == 2
        assert not result.all_decided
        # No torn round: every node took exactly 2 transitions.
        for v in g.nodes:
            assert engine.state_of(v).round_number == 2

    def test_step_past_funding_raises_without_mutation(self):
        g = with_uniform_input(path_graph(2))
        engine = ExecutionEngine(
            RandomizedPortEcho(rounds_needed=10),
            g,
            {v: FixedTape("0") for v in g.nodes},
            delivery=PortDelivery(),
        )
        engine.step()
        with pytest.raises(RuntimeModelError, match="exhausted"):
            engine.step()
        assert engine.rounds == 1
        assert all(engine.state_of(v).round_number == 1 for v in g.nodes)

    def test_record_trace_flag(self):
        g = with_uniform_input(path_graph(2))
        result = execute(
            PortTokenSum(1), g, tapes=_empty_tapes(g), max_rounds=5, record_trace=False
        )
        assert result.all_decided
        assert result.trace is None


class TestEmulation:
    @pytest.mark.parametrize(
        "graph",
        [
            colored(with_uniform_input(path_graph(4))),
            colored(with_uniform_input(cycle_graph(5))),
            colored(with_uniform_input(star_graph(4))),
        ],
        ids=["path4", "cycle5", "star4"],
    )
    def test_emulation_matches_native_ports(self, graph):
        """The paper's remark, as an equality of executions: running the
        port-aware algorithm natively (with color-order ports) equals
        running its broadcast emulation on the colored instance."""
        inner = PortTokenSum(rounds_needed=3)
        reported = color_order_ports(graph)

        native = execute(
            inner,
            reported.with_only_layers(["input"]).with_ports(
                {v: reported.ports(v) for v in reported.nodes}
            ),
            tapes=_empty_tapes(reported),
            max_rounds=10,
        )

        emulated = execute(
            PortEmulation(inner), graph, tapes=_empty_tapes(graph), max_rounds=10
        )

        assert native.all_decided and emulated.all_decided
        assert native.outputs == emulated.outputs
        # Emulation pays exactly one extra (hello) round.
        assert emulated.rounds == native.rounds + 1

    def test_randomized_emulation_matches_native_with_bit_accounting(self):
        """The paper's remark for *randomized* port-aware algorithms: the
        emulation is output-identical provided each node's tape funds the
        extra hello round, whose ``bits_per_round`` draw is discarded.
        Feeding the emulated run each native tape prefixed with one junk
        bit must reproduce the native outputs exactly — and the engine's
        bit accounting must show precisely one extra draw per node."""
        graph = colored(with_uniform_input(cycle_graph(5)))
        reported = color_order_ports(graph)
        native_graph = reported.with_only_layers(["input"]).with_ports(
            {v: reported.ports(v) for v in reported.nodes}
        )
        inner = RandomizedPortEcho(rounds_needed=3)
        bits = {v: format(v, "03b") for v in graph.nodes}  # distinct tapes

        native = execute(
            inner,
            native_graph,
            tapes={v: FixedTape(bits[v]) for v in graph.nodes},
            max_rounds=10,
        )
        emulated = execute(
            PortEmulation(inner),
            graph,
            tapes={v: FixedTape("1" + bits[v]) for v in graph.nodes},
            max_rounds=10,
        )

        assert native.all_decided and emulated.all_decided
        assert native.outputs == emulated.outputs
        assert emulated.rounds == native.rounds + 1
        # Each output carries the bits its node consumed: exactly its
        # native tape — the hello-round prefix bit never reaches the
        # inner algorithm.
        for v, (collected, consumed) in native.outputs.items():
            assert consumed == bits[v]
        # Engine accounting: the hello round costs one extra draw of
        # bits_per_round bits per node, and nothing else.
        n = graph.num_nodes
        assert native.metrics.bits_drawn == 3 * n
        assert emulated.metrics.bits_drawn == native.metrics.bits_drawn + n

    def test_randomized_emulation_stops_when_hello_round_is_unfunded(self):
        """Without the prefix bit the emulated tapes fund one round fewer
        than the inner algorithm needs — the run must stop cleanly short
        instead of raising mid-round."""
        graph = colored(with_uniform_input(cycle_graph(5)))
        inner = RandomizedPortEcho(rounds_needed=3)
        result = execute(
            PortEmulation(inner),
            graph,
            tapes={v: FixedTape(format(v, "03b")) for v in graph.nodes},
            max_rounds=10,
        )
        assert result.rounds == 3  # hello + only 2 steady rounds funded
        assert not result.all_decided

    def test_emulation_requires_distinct_neighbor_colors(self):
        g = with_uniform_input(star_graph(2)).with_layer(
            "color", {0: "a", 1: "b", 2: "b"}  # leaves collide at the center
        )
        with pytest.raises(RuntimeModelError, match="collide"):
            execute(PortEmulation(PortTokenSum(1)), g, tapes=_empty_tapes(g), max_rounds=5)
