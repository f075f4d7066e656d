"""Tests for the faulty delivery decorators (``repro.faults.delivery``).

``FaultyDelivery`` must be a *decorator* in the strict sense: with an
empty plan it reproduces the wrapped discipline's inboxes byte for
byte, and with a nonzero plan every deviation is scheduled, recorded,
and replayable.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import FaultInjectionError
from repro.faults import (
    LOST,
    CorruptingTape,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    FaultTrace,
    FaultyDelivery,
    LostMessage,
)
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import BroadcastDelivery, PortDelivery, execute
from repro.runtime.port_model import PortAwareAlgorithm
from repro.runtime.tape import FixedTape


def faulty(inner, plan, trace=None):
    """``FaultyDelivery`` over ``plan``'s schedule, recording into ``trace``."""
    trace = FaultTrace() if trace is None else trace
    return FaultyDelivery(inner, FaultSchedule(plan), trace)


def corrupting(inner, node, plan, trace=None):
    """``CorruptingTape`` over ``plan``'s schedule, recording into ``trace``."""
    trace = FaultTrace() if trace is None else trace
    return CorruptingTape(inner, node, FaultSchedule(plan), trace)


def ledger_algorithm(rounds_needed: int):
    """Broadcast algorithm whose output is the full per-round inbox log."""
    return FunctionAlgorithm(
        init=lambda label, deg: ((), 0),
        msg=lambda s: s[1],
        step=lambda s, received, b: (s[0] + (received,), s[1] + 1),
        out=lambda s: s[0] if s[1] >= rounds_needed else None,
        bits_per_round=0,
        name="inbox-ledger",
    )


class PortLedger(PortAwareAlgorithm):
    """Port algorithm whose output is the full per-round inbox log."""

    bits_per_round = 0
    name = "port-inbox-ledger"

    def __init__(self, rounds_needed: int) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label, degree: int):
        return ((), 0)

    def messages(self, state, degree: int):
        return [(state[1], port) for port in range(degree)]

    def transition(self, state, received, bits: str):
        return (state[0] + (tuple(repr(m) for m in received),), state[1] + 1)

    def output(self, state):
        return state[0] if state[1] >= self.rounds_needed else None


class TestLostSentinel:
    def test_singleton(self):
        assert LostMessage() is LOST
        assert repr(LOST) == "<LOST>"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(LOST)) is LOST


class TestWrapping:
    def test_only_known_disciplines_are_wrappable(self):
        class Exotic:
            name = "exotic"

        with pytest.raises(FaultInjectionError, match="Exotic"):
            faulty(Exotic(), FaultPlan())

    def test_subclasses_are_wrappable(self):
        class MyPorts(PortDelivery):
            pass

        delivery = faulty(MyPorts(), FaultPlan())
        assert delivery.name == f"faulty-{MyPorts().name}"


class TestBroadcastFaults:
    def test_empty_plan_reproduces_bare_inboxes(self):
        graph = with_uniform_input(cycle_graph(6))
        bare = execute(ledger_algorithm(4), graph, max_rounds=4)
        wrapped = execute(
            ledger_algorithm(4),
            graph,
            delivery=faulty(BroadcastDelivery(), FaultPlan()),
            max_rounds=4,
        )
        assert bare.outputs == wrapped.outputs

    def test_total_drop_empties_every_multiset(self):
        graph = with_uniform_input(cycle_graph(5))
        trace = FaultTrace()
        delivery = faulty(BroadcastDelivery(), FaultPlan(drop_rate=1.0), trace)
        result = execute(ledger_algorithm(3), graph, delivery=delivery, max_rounds=3)
        for log in result.outputs.values():
            assert all(inbox == () for inbox in log)
        assert trace.counts()["drop"] == 3 * 2 * 5  # rounds*deg*n

    def test_total_duplication_doubles_every_multiset(self):
        graph = with_uniform_input(cycle_graph(5))
        delivery = faulty(
            BroadcastDelivery(), FaultPlan(duplicate_rate=1.0)
        )
        result = execute(ledger_algorithm(2), graph, delivery=delivery, max_rounds=2)
        for log in result.outputs.values():
            assert all(len(inbox) == 4 for inbox in log)  # degree 2, doubled

    def test_partial_drop_is_deterministic(self):
        graph = with_uniform_input(cycle_graph(8))
        plan = FaultPlan(plan_seed=3, drop_rate=0.3)

        def run():
            trace = FaultTrace()
            delivery = faulty(BroadcastDelivery(), plan, trace)
            result = execute(
                ledger_algorithm(5), graph, delivery=delivery, max_rounds=5
            )
            return result.outputs, trace.counts()

        assert run() == run()
        assert run()[1]["drop"] > 0


class TestPortFaults:
    def test_empty_plan_reproduces_bare_inboxes(self):
        graph = with_uniform_input(path_graph(5))
        bare = execute(PortLedger(3), graph, max_rounds=3)
        wrapped = execute(
            PortLedger(3),
            graph,
            delivery=faulty(PortDelivery(), FaultPlan()),
            max_rounds=3,
        )
        assert bare.outputs == wrapped.outputs

    def test_drop_preserves_arity_with_lost_sentinel(self):
        graph = with_uniform_input(cycle_graph(4))
        delivery = faulty(PortDelivery(), FaultPlan(drop_rate=1.0))
        result = execute(PortLedger(2), graph, delivery=delivery, max_rounds=2)
        for log in result.outputs.values():
            assert all(inbox == ("<LOST>", "<LOST>") for inbox in log)

    def test_reordering_permutes_but_keeps_payloads(self):
        graph = with_uniform_input(cycle_graph(6))
        plan = FaultPlan(plan_seed=13, reorder_rate=1.0)
        trace = FaultTrace()
        delivery = faulty(PortDelivery(), plan, trace)
        faulted = execute(PortLedger(4), graph, delivery=delivery, max_rounds=4)
        bare = execute(PortLedger(4), graph, max_rounds=4)
        assert trace.counts().get("reorder", 0) > 0
        assert faulted.outputs != bare.outputs
        for node in graph.nodes:
            for faulted_inbox, bare_inbox in zip(
                faulted.outputs[node], bare.outputs[node]
            ):
                assert sorted(faulted_inbox) == sorted(bare_inbox)


class TestCrashStop:
    def test_crashed_node_is_silenced_symmetrically(self):
        graph = with_uniform_input(cycle_graph(4))
        delivery = faulty(BroadcastDelivery(), FaultPlan(crashes=((0, 2),)))
        result = execute(ledger_algorithm(3), graph, delivery=delivery, max_rounds=3)
        # Neighbors of node 0 hear both neighbors in round 1, then lose one.
        for neighbor in graph.neighbors(0):
            log = result.outputs[neighbor]
            assert len(log[0]) == 2
            assert len(log[1]) == 1 and len(log[2]) == 1
        # The crashed node's own clock keeps ticking: it still decides,
        # hearing everyone in round 1 and nobody afterwards.
        assert result.outputs[0][0] != () and result.outputs[0][1] == ()
        assert result.all_decided

    def test_crash_event_recorded_once_per_node(self):
        graph = with_uniform_input(cycle_graph(4))
        trace = FaultTrace()
        delivery = faulty(BroadcastDelivery(), FaultPlan(crashes=((0, 1),)), trace)
        execute(ledger_algorithm(5), graph, delivery=delivery, max_rounds=5)
        assert trace.counts()["crash"] == 1
        (event,) = [event for event in trace.events if event.kind == "crash"]
        assert event.node == 0 and event.round == 1

    def test_crash_only_plan_on_port_delivery(self):
        graph = with_uniform_input(path_graph(4))
        trace = FaultTrace()
        delivery = faulty(PortDelivery(), FaultPlan(crashes=((1, 2),)), trace)
        result = execute(PortLedger(3), graph, delivery=delivery, max_rounds=3)
        assert trace.events == [FaultEvent("crash", 2, 1)]
        assert result.all_decided


class TestErrorPropagation:
    def test_output_already_set_keeps_round_context_through_wrapper(self):
        """Irrevocability violations raise with the same node/value/round
        context whether or not the delivery is wrapped — fault injection
        must not launder kernel errors."""
        from repro.exceptions import OutputAlreadySetError

        # Endpoints decide in round 1, then illegally change in round 2;
        # the middle node never decides, so the run cannot end early.
        flipper = FunctionAlgorithm(
            init=lambda label, deg: (deg, 0),
            msg=lambda s: s[1],
            step=lambda s, received, b: (s[0], s[1] + 1),
            out=lambda s: s[1] if s[0] == 1 and s[1] >= 1 else None,
            bits_per_round=0,
            name="flipper",
        )
        graph = with_uniform_input(path_graph(3))
        delivery = faulty(BroadcastDelivery(), FaultPlan(drop_rate=1.0))
        with pytest.raises(
            OutputAlreadySetError, match=r"from 1 to 2 in round 2"
        ):
            execute(flipper, graph, delivery=delivery, max_rounds=3)

    def test_inner_delivery_errors_surface_unchanged(self):
        """A port-arity violation inside the wrapped discipline is the
        wrapped discipline's error, verbatim."""
        from repro.exceptions import RuntimeModelError

        class WrongArity(PortAwareAlgorithm):
            bits_per_round = 0
            name = "wrong-arity"

            def init_state(self, input_label, degree):
                return 0

            def messages(self, state, degree):
                return [0] * (degree + 1)

            def transition(self, state, received, bits):
                return state

            def output(self, state):
                return None

        graph = with_uniform_input(path_graph(3))
        delivery = faulty(PortDelivery(), FaultPlan())
        with pytest.raises(RuntimeModelError):
            execute(WrongArity(), graph, delivery=delivery, max_rounds=2)


class TestCorruptingTape:
    def test_zero_rate_is_a_pass_through(self):
        tape = corrupting(FixedTape("010101"), 0, FaultPlan())
        assert tape.draw(6) == "010101"

    def test_total_corruption_flips_every_bit(self):
        tape = corrupting(FixedTape("0101"), 0, FaultPlan(corrupt_rate=1.0))
        assert tape.draw(4) == "1010"

    def test_flip_indices_are_absolute_across_draws(self):
        plan = FaultPlan(plan_seed=5, corrupt_rate=0.5)
        one_shot = corrupting(FixedTape("0" * 12), "v", plan)
        chunked = corrupting(FixedTape("0" * 12), "v", plan)
        assert one_shot.draw(12) == chunked.draw(5) + chunked.draw(7)

    def test_corrupt_events_carry_bit_indices(self):
        trace = FaultTrace()
        tape = corrupting(FixedTape("0000"), "v", FaultPlan(corrupt_rate=1.0), trace)
        tape.draw(4)
        events = [event for event in trace.events if event.kind == "corrupt"]
        assert [e.detail for e in events] == [(0,), (1,), (2,), (3,)]
        assert all(e.node == "v" for e in events)

    def test_remaining_delegates_to_the_inner_tape(self):
        tape = corrupting(FixedTape("01"), 0, FaultPlan(corrupt_rate=1.0))
        assert tape.remaining(2)
        assert not tape.remaining(3)
