"""Work-count pins for the assignment searches.

The round kernel may get faster, but the search it serves must do the
same work: the same number of engine executions and the same chosen
assignment.  Each trial resumes from the end state of its failed prefix
trial, so it simulates exactly one round: the rounds equal the
executions, and the delivered payloads and drawn bits follow.  (Every
trial replayed from round 0 before; the pins then read 8,367 / 100,404 /
50,202 rounds / messages / bits for MIS on C6 and 17,476 / 209,712 /
69,904 for K4.)

Every trial of the search continues its prefix through one interned
transition table (:class:`~repro.runtime.engine.TrialMemo`): the
algorithm computes each distinct state's message and output once, and
each distinct transition once per search.  (Building one engine per
trial, the calls read 25,182 / 25,182 / 50,364 messages / transitions /
outputs for MIS on C6 and 22,132 / 22,132 / 44,264 for K4; sharing each
failed prefix's round with a table per prefix, 456 / 864 / 1,320 and
1,760 / 3,306 / 5,066.)

The lexicographic search plays a length per prefix snapshot, not per
trial, and counts the trials from the snapshot's option slots.  A
snapshot's first trial settles it: it fills each node's chunk-0 slot,
and every other slot whose transition and output the memo already holds.
Only a slot the table misses (or whose output is not computed yet, or
changes a decided one) waits for the first trial that reads it.  The
pins are those of the trial-by-trial search: the same executions,
rounds, payloads, bits and algorithm calls.

A prg search plays its trials in the search's interned round kernel
(:class:`~repro.runtime.engine.TrialMemo`): the same executions with the
same engine counts as replaying each trial through ``execute``, but each
distinct state's message and output, and each distinct transition, is
computed once.  (Replaying, the prg matching pin below called message /
transition / output 31,000 / 31,000 / 36,140 times.)
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.core.assignment_search import _PrefixMemo, smallest_successful_assignment
from repro.core.orders import canonical_node_order
from repro.factor.quotient import finite_view_graph
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.runtime import engine
from repro.runtime.engine import collect_engine_metrics

CASES = [
    pytest.param(
        AnonymousMISAlgorithm,
        cycle_graph(6),
        (0, 1, 2, 0, 1, 3),  # not periodic: the quotient keeps all six nodes
        {0: "000", 1: "000", 2: "000", 3: "000", 4: "100", 5: "100"},
        {"executions": 4197, "rounds": 4197, "messages_sent": 50364, "bits_drawn": 25182},
        {"message": 6, "transition": 22, "output": 13},
        id="mis-C6",
    ),
    pytest.param(
        TwoHopColoringAlgorithm,
        complete_graph(4),
        (0, 1, 2, 3),
        {0: "0000", 1: "0100", 2: "1000", 3: "1100"},
        {"executions": 5533, "rounds": 5533, "messages_sent": 66396, "bits_drawn": 22132},
        {"message": 78, "transition": 495, "output": 432},
        id="2-hop-coloring-K4",
    ),
]


def counting(algorithm_class):
    """A subclass of ``algorithm_class`` that counts its own calls of
    the per-round protocol."""

    class Counting(algorithm_class):
        def __init__(self) -> None:
            super().__init__()
            self.calls: Counter = Counter()

        def message(self, state):
            self.calls["message"] += 1
            return super().message(state)

        def transition(self, state, received, bits):
            self.calls["transition"] += 1
            return super().transition(state, received, bits)

        def output(self, state):
            self.calls["output"] += 1
            return super().output(state)

    return Counting


@pytest.mark.parametrize("algorithm_class, graph, colors, assignment, counts, calls", CASES)
def test_lexicographic_search_work_is_pinned(
    algorithm_class, graph, colors, assignment, counts, calls
):
    colored = apply_two_hop_coloring(with_uniform_input(graph), dict(enumerate(colors)))
    quotient = finite_view_graph(colored)
    simulation_graph = quotient.graph.with_only_layers(["input"])
    algorithm = counting(algorithm_class)()
    with collect_engine_metrics() as totals:
        chosen = smallest_successful_assignment(
            algorithm, simulation_graph, canonical_node_order(quotient.graph)
        )
    assert chosen == assignment
    assert {key: getattr(totals, key) for key in counts} == counts
    assert dict(algorithm.calls) == calls


# Option-slot fills of the pinned searches: one per settle, which fills
# every node's chunk-0 slot and each other slot whose transition and
# output the memo already holds, and one single-slot event per other
# slot at its first reader.  (With one event per option slot, 408 and
# 1,546 events.)
FILLS = {
    "mis-C6": {"settles": 76, "events": 36},
    "2-hop-coloring-K4": {"settles": 440, "events": 428},
}


@pytest.mark.parametrize("algorithm_class, graph, colors, assignment, counts, calls", CASES)
def test_lexicographic_search_events_are_pinned(
    algorithm_class, graph, colors, assignment, counts, calls, request, monkeypatch
):
    colored = apply_two_hop_coloring(with_uniform_input(graph), dict(enumerate(colors)))
    quotient = finite_view_graph(colored)
    simulation_graph = quotient.graph.with_only_layers(["input"])
    fills: Counter = Counter()
    fill = _PrefixMemo._fill

    def counted_fill(self, row, settled, slots, *rest):
        fills["events" if len(slots) == 1 else "settles"] += 1  # both graphs have n > 1
        return fill(self, row, settled, slots, *rest)

    monkeypatch.setattr(_PrefixMemo, "_fill", counted_fill)
    chosen = smallest_successful_assignment(
        algorithm_class(), simulation_graph, canonical_node_order(quotient.graph)
    )
    assert chosen == assignment
    assert dict(fills) == FILLS[request.node.callspec.id]


# The MIS-C6 search keeps the option slots of the 64 snapshots of
# length 2, twelve each, and reads the snapshots of length 3 off them,
# next to the search's memo; its traced peak here measured about 45 kB
# (CPython 3.11; 288 kB keeping each of the 4,096 trials of length 2 as
# a snapshot of six state ids, 337 kB with a transition table per
# snapshot).  Keeping a whole engine per prefix instead takes megabytes.
MIS_C6_PEAK_BYTES = 500_000


def test_prefix_memo_stays_compact():
    algorithm_class, graph, colors, _assignment, _counts, _calls = CASES[0].values
    colored = apply_two_hop_coloring(with_uniform_input(graph), dict(enumerate(colors)))
    quotient = finite_view_graph(colored)
    simulation_graph = quotient.graph.with_only_layers(["input"])
    order = canonical_node_order(quotient.graph)
    smallest_successful_assignment(algorithm_class(), simulation_graph, order)  # warm caches
    tracemalloc.start()
    try:
        smallest_successful_assignment(algorithm_class(), simulation_graph, order)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MIS_C6_PEAK_BYTES


def prg_matching_search():
    """The simulation graph and node order of prg matching on a random
    connected 20-node graph under its greedy 2-hop coloring (every view
    is distinct, so the quotient keeps all 20 nodes)."""
    graph = with_uniform_input(random_connected_graph(20, 1.5 / 20, seed=6))
    quotient = finite_view_graph(apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph)))
    return quotient.graph.with_only_layers(["input"]), canonical_node_order(quotient.graph)


def _prg_search(algorithm, graph, order):
    return smallest_successful_assignment(
        algorithm, graph, order, strategy="prg", max_length=128
    )


def test_prg_search_work_is_pinned():
    graph, order = prg_matching_search()
    algorithm = counting(AnonymousMatchingAlgorithm)()
    with collect_engine_metrics() as totals:
        chosen = _prg_search(algorithm, graph, order)
    assert len(chosen[order[0]]) == 16  # 128 trials each of lengths 4 and 8 failed
    assert totals.as_dict(include_wall=False) == {
        "executions": 257,
        "rounds": 1550,
        "messages_sent": 93000,
        "bits_drawn": 31000,
        "nodes_decided": 929,
        "faults_injected": 0,
    }
    assert dict(algorithm.calls) == {"message": 7098, "transition": 18268, "output": 9799}


# The prg matching search above holds at most 128 transitions per node in
# its memo; its traced peak measured about 0.63 MB (CPython 3.11), and
# about 3.4 MB with the memo never cleared.
PRG_MATCHING_PEAK_BYTES = 1_500_000


def _traced_peak(search) -> int:
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prg_search_memo_is_bounded(monkeypatch):
    graph, order = prg_matching_search()
    algorithm = AnonymousMatchingAlgorithm()
    _prg_search(algorithm, graph, order)  # warm caches
    assert _traced_peak(lambda: _prg_search(algorithm, graph, order)) < PRG_MATCHING_PEAK_BYTES
    # The bound has teeth: the same search with a memo that is never
    # cleared exceeds it.
    monkeypatch.setattr(engine, "_TRANSITIONS_PER_NODE", 10**9)
    assert _traced_peak(lambda: _prg_search(algorithm, graph, order)) > PRG_MATCHING_PEAK_BYTES
