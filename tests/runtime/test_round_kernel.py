"""Equivalence tests for the round kernel's shared work.

The kernel keys each broadcast message once per sender per round
(:meth:`BroadcastDelivery.deliver`), freezes atoms without recursing
(:func:`_freeze`), reuses a per-graph run plan across executions and
checks tape funding once per round.  Each of these must be invisible:
the same inbox tuples, the same keys, the same metrics.
"""

from __future__ import annotations

import pickle
from collections import namedtuple
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.labeled_graph import _freeze
from repro.faults.delivery import FaultyDelivery
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import (
    BroadcastDelivery,
    DeliveryDiscipline,
    ExecutionEngine,
    _message_sort_key,
    execute,
)
from repro.runtime.tape import FixedTape
from tests.oracles import reference_freeze


Pair = namedtuple("Pair", "left right")


class Tag(str):
    """A str subclass: must stay off the atom fast path."""


@dataclass(frozen=True)
class Frozen:
    name: str
    count: int


ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.text(max_size=4).map(Tag),
    st.builds(Frozen, st.text(max_size=3), st.integers()),
)

VALUES = st.recursive(
    ATOMS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.sets(st.integers(), max_size=4),
        st.sets(st.text(max_size=3), max_size=4),
    ),
    max_leaves=12,
)


class TestFreezeFastPath:
    @given(VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_definition(self, value):
        frozen, reference = _freeze(value), reference_freeze(value)
        assert frozen == reference
        assert repr(frozen) == repr(reference)
        assert _message_sort_key(value) == repr(reference)

    def test_bool_and_int_keys_differ(self):
        assert _freeze(True) is True and _freeze(1) == 1
        assert _message_sort_key(True) == "True"
        assert _message_sort_key(1) == "1"
        assert _message_sort_key((True, [1])) == "(True, (1,))"

    def test_subclasses_take_the_general_path(self):
        pair = Pair([1], Tag("x"))
        frozen = _freeze(pair)
        assert type(frozen) is tuple and frozen == ((1,), "x")
        assert type(frozen[1]) is Tag
        assert repr(frozen) == repr(reference_freeze(pair))

    def test_atoms_are_returned_unchanged(self):
        for atom in (None, True, 3, 2.5, "s", b"b", Tag("t"), Frozen("a", 1)):
            assert _freeze(atom) is atom


class Tie:
    """Distinct objects whose reprs (and so sort keys) are all equal."""

    def __init__(self, ident: int) -> None:
        self.ident = ident

    def __repr__(self) -> str:
        return "tie"


def _assert_same_inboxes(got, want):
    assert list(got) == list(want)
    for v in want:
        assert len(got[v]) == len(want[v])
        assert all(a is b for a, b in zip(got[v], want[v])), v


GRAPHS = [
    cycle_graph(6),
    path_graph(5),
    star_graph(6),
    complete_graph(5),
    random_connected_graph(12, 0.3, seed=4),
]


class TestBroadcastDeliver:
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: repr(g))
    def test_ties_keep_neighbor_order(self, graph):
        outboxes = {v: Tie(i) for i, v in enumerate(graph.nodes)}
        delivery = BroadcastDelivery()
        want = {v: delivery.inbox(outboxes, v, graph) for v in graph.nodes}
        _assert_same_inboxes(delivery.deliver(outboxes, graph), want)
        for v in graph.nodes:
            assert [m.ident for m in want[v]] == [
                graph.nodes.index(u) for u in graph.neighbors(v)
            ]

    @given(st.integers(2, 10), st.integers(0, 50), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_node_inbox(self, n, seed, data):
        graph = random_connected_graph(n, 0.4, seed=seed)
        messages = st.one_of(VALUES, st.integers(0, 2).map(Tie))
        outboxes = {v: data.draw(messages) for v in graph.nodes}
        delivery = BroadcastDelivery()
        want = {v: delivery.inbox(outboxes, v, graph) for v in graph.nodes}
        _assert_same_inboxes(delivery.deliver(outboxes, graph), want)

    def test_overridden_inbox_is_honoured(self):
        class Reversed(BroadcastDelivery):
            def inbox(self, outboxes, node, graph):
                return tuple(reversed(super().inbox(outboxes, node, graph)))

        graph = with_uniform_input(star_graph(4))
        outboxes = {v: v for v in graph.nodes}
        delivered = Reversed().deliver(outboxes, graph)
        assert delivered[0] == (4, 3, 2, 1)
        seen = []
        algorithm = FunctionAlgorithm(
            init=lambda label, degree: 0,
            msg=lambda state: state,
            step=lambda state, received, bits: seen.append(received) or state + 1,
            out=lambda state: state if state >= 1 else None,
        )
        execute(algorithm, graph, delivery=Reversed())
        assert seen[0] == (0, 0, 0, 0)
        engine = ExecutionEngine(
            FunctionAlgorithm(
                init=lambda label, degree: degree,
                msg=lambda state: state,
                step=lambda state, received, bits: seen.append(received) or state,
                out=lambda state: None,
            ),
            graph,
            {v: FixedTape("") for v in graph.nodes},
            delivery=Reversed(),
        )
        seen.clear()
        engine.step()
        assert seen[0] == (1, 1, 1, 1) and seen[1] == (4,)

    def test_faulty_delivery_keeps_the_per_node_path(self):
        assert FaultyDelivery.deliver is DeliveryDiscipline.deliver


class TestRunPlan:
    def test_triples_and_payloads(self):
        graph = with_uniform_input(star_graph(5)).with_layer("color", {v: v % 2 for v in range(6)})
        plan, payloads = graph._run_plan()
        assert plan == tuple((v, graph.label(v), graph.degree(v)) for v in graph.nodes)
        assert payloads == sum(graph.degree(v) for v in graph.nodes)
        assert graph._run_plan()[0] is plan

    def test_dropped_on_pickling(self):
        graph = with_uniform_input(cycle_graph(5))
        graph._run_plan()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._plan is None
        assert clone._run_plan() == graph._run_plan()


def _silent():
    return FunctionAlgorithm(
        init=lambda label, degree: 0,
        msg=lambda state: state,
        step=lambda state, received, b: state + 1,
        out=lambda state: None,
        bits_per_round=1,
    )


class TestFundingRule:
    def test_run_checks_funding_once_per_round(self, monkeypatch):
        calls = []
        original = ExecutionEngine.can_fund_round
        monkeypatch.setattr(
            ExecutionEngine, "can_fund_round", lambda self: calls.append(1) or original(self)
        )
        graph = with_uniform_input(path_graph(3))
        engine = ExecutionEngine(
            _silent(), graph, {v: FixedTape("0000") for v in graph.nodes},
            delivery=BroadcastDelivery(),
        )
        result = engine.run(max_rounds=100)
        assert result.rounds == 4
        assert len(calls) == 5  # four funded rounds, then the refusal

    @pytest.mark.parametrize("max_rounds", [None, 2, 10])
    def test_assignment_run_stops_at_funded_limit(self, monkeypatch, max_rounds):
        graph = with_uniform_input(cycle_graph(4))
        assignment = {0: "0101", 1: "011", 2: "10110", 3: "1111"}
        funded = execute(
            _silent(), graph, assignment=assignment, max_rounds=max_rounds
        )
        # Explicit tapes carry no funded limit: the kernel's check stops them.
        checked = execute(
            _silent(), graph, tapes={v: FixedTape(b) for v, b in assignment.items()},
            max_rounds=max_rounds, record_trace=False,
        )
        assert funded.rounds == checked.rounds == min(3, max_rounds or 3)
        assert replace(funded.metrics, wall_s=0) == replace(checked.metrics, wall_s=0)
        monkeypatch.setattr(
            ExecutionEngine, "can_fund_round", lambda self: pytest.fail("funding re-checked")
        )
        execute(_silent(), graph, assignment=assignment, max_rounds=max_rounds)
