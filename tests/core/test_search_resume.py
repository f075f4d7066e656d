"""The assignment searches against the ones that replay every trial.

``smallest_successful_assignment`` resumes each trial of a length from
the end state of its failed prefix trial, looking each node's step up
in one transition table per search; it plays a length per prefix
snapshot and counts the snapshot's trials from its option slots.  The
reference (``tests.oracles.reference_search``) replays every trial from
round 0 through ``execute``, as the search did before.  Both must try
the same assignments in the same order: the same chosen assignment (or the same error, raised at
the same trial), the same number of executions and decided nodes, and
— where the search falls back to replaying, under fault injection or
churn, for port-numbered algorithms and from the first state that
cannot be interned on — the same rounds, messages, bits and faults for
the replayed trials.

The prg search and ``smallest_successful_extension`` play their trials
in the search's interned round kernel (``TrialMemo``), which reports
each trial with the counts ``execute`` reports: they are checked trial
for trial against ``execute``, with every count equal.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core import assignment_search
from repro.core.assignment_search import (
    SearchBudgetExceeded,
    _trials_below,
    enumerate_extensions,
    smallest_successful_assignment,
    smallest_successful_extension,
)
from repro.dynamic import ChurnPlan, apply_churn
from repro.exceptions import DerandomizationError, OutputAlreadySetError
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import path_graph, random_connected_graph, with_uniform_input
from repro.runtime import engine
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import TrialMemo, collect_engine_metrics, execute
from repro.runtime.port_model import PortAwareAlgorithm
from tests.conftest import small_graph_zoo
from tests.oracles import (
    per_trial_search,
    reference_extension,
    reference_prg_search,
    reference_search,
)


def _outcome(search, *args, **kwargs):
    """(chosen assignment or error text, engine totals) of one search."""
    with collect_engine_metrics() as totals:
        try:
            outcome = search(*args, **kwargs)
        except (DerandomizationError, OutputAlreadySetError, ValueError) as exc:
            outcome = (type(exc).__name__, str(exc).split(";")[0])
    return outcome, totals.as_dict(include_wall=False)


def two_bit_coloring():
    """Two bits per round: propose a 2-bit color, keep it once no
    neighbour proposes or holds the same one.  Tuple states."""

    def step(state, received, bits):
        proposal, color = state
        if color is not None:
            return state
        taken = {value for message in received for value in message}
        if proposal is not None and proposal not in taken:
            return (proposal, proposal)
        return (bits, None)

    return FunctionAlgorithm(
        init=lambda label, degree: (None, None),
        msg=lambda state: state,
        step=step,
        out=lambda state: state[1],
        bits_per_round=2,
        name="two-bit-coloring",
    )


def list_state_election():
    """Unhashable (list) states: decide after drawing a 1 unless a
    neighbour drew a 1 in the same round, in which case draw again."""

    def step(state, received, bits):
        if state[1] is not None:
            return list(state)
        if state[0] == "1":
            return [state[0], "leader" if "1" not in received else "follower"]
        return [bits, None]

    return FunctionAlgorithm(
        init=lambda label, degree: ["", None],
        msg=lambda state: state[0],
        step=step,
        out=lambda state: state[1],
        bits_per_round=1,
        name="list-state-election",
    )


class PortProposal(PortAwareAlgorithm):
    """Port-numbered: propose a bit, keep it once no port brings the same
    proposal; the output also names the proposal that arrived on port 0."""

    bits_per_round = 1
    name = "port-proposal"

    def init_state(self, input_label, degree):
        return (None, None)

    def messages(self, state, degree):
        return [(state[0], port) for port in range(degree)]

    def transition(self, state, received, bits):
        proposal, color = state
        if color is not None:
            return state
        if proposal is not None and all(sent != proposal for sent, _port in received):
            return (proposal, (proposal, received[0][0] if received else None))
        return (bits, None)

    def output(self, state):
        return state[1]


ALGORITHMS = {
    "mis": AnonymousMISAlgorithm,
    "coloring": VertexColoringAlgorithm,
    "two-hop-coloring": TwoHopColoringAlgorithm,
    "matching": AnonymousMatchingAlgorithm,
    "two-bit-coloring": two_bit_coloring,
    "list-states": list_state_election,
    "port-proposal": PortProposal,
}

ZOO = [case for case in small_graph_zoo() if case[1].num_nodes <= 10]


def assert_same_search(algorithm, graph, order, **kwargs):
    searched, search_totals = _outcome(
        smallest_successful_assignment, algorithm, graph, order, **kwargs
    )
    expected, reference_totals = _outcome(reference_search, algorithm, graph, order, **kwargs)
    assert searched == expected
    assert search_totals["executions"] == reference_totals["executions"]
    assert search_totals["nodes_decided"] == reference_totals["nodes_decided"]
    return search_totals, reference_totals


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("graph_name, graph", ZOO, ids=[name for name, _ in ZOO])
def test_resumed_search_matches_replay_on_the_zoo(name, graph_name, graph):
    algorithm = ALGORITHMS[name]()
    search_totals, reference_totals = assert_same_search(
        algorithm, graph, list(graph.nodes), budget=150
    )
    assert search_totals["rounds"] <= reference_totals["rounds"]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_resumed_search_matches_replay_to_success(name):
    # Small enough that every algorithm finds its assignment.
    graph = with_uniform_input(path_graph(2))
    algorithm = ALGORITHMS[name]()
    order = list(graph.nodes)
    chosen, _totals = _outcome(smallest_successful_assignment, algorithm, graph, order)
    assert isinstance(chosen, dict)
    assert execute(algorithm, graph, assignment=chosen).successful
    assert_same_search(algorithm, graph, order)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    extra=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(sorted(ALGORITHMS)),
    reverse=st.booleans(),
    budget=st.integers(min_value=0, max_value=400),
)
def test_resumed_search_matches_replay_on_random_graphs(n, extra, seed, name, reverse, budget):
    graph = with_uniform_input(random_connected_graph(n, extra, seed=seed))
    order = list(reversed(graph.nodes)) if reverse else list(graph.nodes)
    assert_same_search(ALGORITHMS[name](), graph, order, budget=budget)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_trials_below_counts_like_enumeration(n, length, data):
    # One snapshot's trials below a stop, and their decided nodes,
    # counted digit by digit against every trial enumerated.  Node ``p``
    # sits at place ``j`` of the node order, its chunk of ``free`` bits at
    # the bottom of its ``length`` bits, the snapshot's bits above it.
    free = data.draw(st.integers(min_value=1, max_value=length))
    places = data.draw(st.permutations(range(n)))
    shifts = [(n - 1 - j) * length for j in places]
    walk = sorted(zip(shifts, range(n)), reverse=True)
    first = sum(
        data.draw(st.integers(0, (1 << (length - free)) - 1)) << (shift + free)
        for shift in shifts
    )
    row = data.draw(st.lists(st.integers(0, 7), min_size=n << free, max_size=n << free))
    trials = [
        (first + sum(c << shift for c, shift in zip(chunks, shifts)), chunks)
        for chunks in itertools.product(range(1 << free), repeat=n)
    ]
    stop = data.draw(st.integers(0, max(index for index, _ in trials) + 2))
    below = [chunks for index, chunks in trials if index < stop]
    decided = sum(row[p << free | c] & 1 for chunks in below for p, c in enumerate(chunks))
    assert _trials_below(stop, first, walk, free, row) == (len(below), decided)
    # Slots no trial below the stop reads may be unfilled.
    read = {p << free | c for chunks in below for p, c in enumerate(chunks)}
    holed = [code if slot in read else None for slot, code in enumerate(row)]
    assert _trials_below(stop, first, walk, free, holed) == (len(below), decided)


# MIS on a 2-path tries 4 assignments of length 1, 16 of length 2 and
# succeeds on the 5th of length 3 (25 trials in all).
BUDGET_EDGES = [
    (0, "exceeded its budget of 0 trials at length 1"),
    (3, "exceeded its budget of 3 trials at length 1"),
    (4, "exceeded its budget of 4 trials after length 1"),
    (5, "exceeded its budget of 5 trials at length 2"),
    (19, "exceeded its budget of 19 trials at length 2"),
    (20, "exceeded its budget of 20 trials after length 2"),
    (24, "exceeded its budget of 24 trials at length 3"),
    (25, None),
]


@pytest.mark.parametrize("budget, message", BUDGET_EDGES)
def test_budget_edges(budget, message):
    graph = with_uniform_input(path_graph(2))
    algorithm, order = AnonymousMISAlgorithm(), list(graph.nodes)
    with collect_engine_metrics() as totals:
        if message is None:
            assert smallest_successful_assignment(algorithm, graph, order, budget=budget)
        else:
            with pytest.raises(SearchBudgetExceeded) as raised:
                smallest_successful_assignment(algorithm, graph, order, budget=budget)
            assert str(raised.value) == f"assignment search {message}"
    assert totals.executions == budget
    assert_same_search(algorithm, graph, order, budget=budget)


def test_two_bits_per_round_share_snapshots_across_lengths():
    # Odd lengths fund no new round: their trials resume with no round to run.
    graph = with_uniform_input(path_graph(3))
    search_totals, reference_totals = assert_same_search(
        two_bit_coloring(), graph, list(graph.nodes), budget=5000
    )
    assert search_totals["rounds"] < reference_totals["rounds"]


def test_lengths_without_a_round_count_their_snapshots_decided_nodes():
    # Two bits a round: an end of P3 decides in round 1 on a first chunk
    # of 10 and flips its output in round 2.  Length 2 (64 trials) holds
    # 32 decided ends, length 3 funds no round and holds 8 times as many
    # (256 in 512 trials), and trial 12 of length 4 flips.
    graph = with_uniform_input(path_graph(3))
    algorithm = tripwire("flip", "10", "11", bits_per_round=2)
    search_totals, _reference_totals = assert_same_search(
        algorithm, graph, list(graph.nodes), max_length=4
    )
    assert search_totals["executions"] == 8 + 64 + 512 + 11
    assert search_totals["nodes_decided"] == 32 + 256 + 3
    assert search_totals["rounds"] == 64 + 11


def test_max_length_exhaustion_matches_replay():
    graph = with_uniform_input(path_graph(2))
    searched, totals = _outcome(
        smallest_successful_assignment,
        TwoHopColoringAlgorithm(),
        graph,
        list(graph.nodes),
        max_length=2,
    )
    assert searched == ("DerandomizationError", "no successful assignment up to length 2")
    assert totals["executions"] == 4 + 16


FAULT_PLAN = FaultPlan(plan_seed=3, drop_rate=0.2, duplicate_rate=0.1, crashes=((1, 2),))
CHURN_PLAN = ChurnPlan(plan_seed=5, insert_rate=0.5, delete_rate=0.5)


CONTEXTS = {"faults": lambda: inject_faults(FAULT_PLAN), "churn": lambda: apply_churn(CHURN_PLAN)}


# 2-hop coloring asserts a static topology, so it runs under faults only.
@pytest.mark.parametrize(
    "context_name, name",
    [
        ("faults", "mis"),
        ("faults", "two-hop-coloring"),
        ("faults", "matching"),
        ("churn", "mis"),
        ("churn", "matching"),
    ],
)
def test_active_contexts_replay_every_trial(context_name, name):
    context = CONTEXTS[context_name]
    graph = with_uniform_input(random_connected_graph(4, 0.5, seed=2))
    algorithm, order = ALGORITHMS[name](), list(graph.nodes)
    with context():
        search_totals, reference_totals = assert_same_search(
            algorithm, graph, order, budget=300
        )
    assert search_totals == reference_totals


# ----------------------------------------------------------------------
# Error paths: the same error at the same trial, with the same totals
# ----------------------------------------------------------------------


def tripwire(mode, trigger_state, trigger_bits, bits_per_round=1):
    """Draws ``bits_per_round`` bits a round into its state, a
    ``(degree, history)`` pair; only degree-1 nodes ever decide, so on P3
    every trial fails.  A degree-1 node decides once its history starts
    with ``trigger_state``.  From ``trigger_state`` with
    ``trigger_bits`` the algorithm misbehaves: ``"flip"`` changes the
    decided output from 1 to 2, ``"raise"`` raises in ``transition``."""

    def step(state, received, bits):
        degree, history = state
        if mode == "raise" and history == trigger_state and bits == trigger_bits:
            raise ValueError(f"tripwire at {history!r} with {bits!r}")
        return (degree, history + bits)

    def out(state):
        degree, history = state
        if degree != 1 or not history.startswith(trigger_state):
            return None
        return 2 if mode == "flip" and history == trigger_state + trigger_bits else 1

    return FunctionAlgorithm(
        init=lambda label, degree: (degree, ""),
        msg=lambda state: state[1],
        step=step,
        out=out,
        bits_per_round=bits_per_round,
        name=f"tripwire-{mode}",
    )


# (trigger state, trigger bits, trials completed before the error): the
# first trial where an end of P3 draws ``trigger_bits`` from
# ``trigger_state`` is trial 2 of length 1, trial 4 of length 2 (after 8
# of length 1) or trial 6 of length 3 (after 8 + 64); the last node's
# bits vary fastest.
TRIGGERS = [("", "1", 1), ("1", "1", 8 + 3), ("10", "1", 8 + 64 + 5)]


@pytest.mark.parametrize("mode", ["flip", "raise"])
@pytest.mark.parametrize("trigger_state, trigger_bits, completed", TRIGGERS)
def test_errors_surface_at_the_same_trial_as_replay(mode, trigger_state, trigger_bits, completed):
    graph = with_uniform_input(path_graph(3))
    algorithm, order = tripwire(mode, trigger_state, trigger_bits), list(graph.nodes)
    outcomes = []
    for search in (smallest_successful_assignment, reference_search):
        with collect_engine_metrics() as totals:
            with pytest.raises(Exception) as raised:
                search(algorithm, graph, order, max_length=4)
        outcomes.append((raised.type, str(raised.value), totals.as_dict(include_wall=False)))
    (searched_type, searched_text, searched), (replay_type, replay_text, replayed) = outcomes
    assert searched_type is replay_type is (OutputAlreadySetError if mode == "flip" else ValueError)
    assert searched_text == replay_text
    assert searched["executions"] == replayed["executions"] == completed
    assert searched["nodes_decided"] == replayed["nodes_decided"]
    # Every trial the search completed ran one round; at length 1 so did
    # the replayed ones.
    assert searched["rounds"] == searched["executions"]
    assert searched["bits_drawn"] == 3 * searched["executions"]
    assert searched["messages_sent"] == 4 * searched["executions"]
    if completed < 8:  # still at length 1
        assert searched == replayed


def seeded_memo(chunks, outputs):
    """A ``TrialMemo`` that, before the search starts, already holds
    every node's step on each of ``chunks`` from its initial state (with
    its target's output when ``outputs``), so the first snapshot's
    settle finds those option slots in the transition table."""

    class Seeded(TrialMemo):
        def __init__(self, algorithm, graph):
            super().__init__(algorithm, graph)
            sids = self.initial_ids()
            for sid, inbox in zip(sids, self.inbox_keys(sids)):
                for chunk in chunks:
                    target = self.target(sid, chunk, inbox)
                    if outputs:
                        self.output(target)

    return Seeded


@pytest.mark.parametrize("outputs", [True, False], ids=["output-computed", "output-unset"])
def test_table_hit_that_changes_an_output_raises_at_its_trial(outputs, monkeypatch):
    # The ends of P3 decide 1 in round 0 and output 2 after drawing a 1.
    # The settle of length 1's one snapshot finds each end's slot for a
    # 1 in the table, with an output that changes the end's decided one
    # (or none computed yet): it must leave the slot to its first
    # reader, trial 1, which raises as the per-trial search and replay do.
    monkeypatch.setattr(assignment_search, "TrialMemo", seeded_memo(("1",), outputs))
    graph = with_uniform_input(path_graph(3))
    algorithm, order = tripwire("flip", "", "1"), list(graph.nodes)
    search_totals, _reference_totals = assert_same_search(algorithm, graph, order, max_length=4)
    assert search_totals["executions"] == 1
    searched = _outcome(smallest_successful_assignment, algorithm, graph, order)
    assert searched[0][0] == "OutputAlreadySetError"
    assert searched == _outcome(per_trial_search, algorithm, graph, order)


@pytest.mark.parametrize("name", ["mis", "coloring", "two-hop-coloring", "matching"])
def test_table_hit_without_a_computed_output_waits_for_its_reader(name, monkeypatch):
    # Each node's slot for a 1 is in the table with no output computed:
    # the settle cannot tell whether it decides, so its first reader
    # fills it, and the search counts the same decided nodes.
    monkeypatch.setattr(assignment_search, "TrialMemo", seeded_memo(("1",), outputs=False))
    graph = with_uniform_input(path_graph(3))
    algorithm, order = ALGORITHMS[name](), list(graph.nodes)
    assert_same_search(algorithm, graph, order)
    searched = _outcome(smallest_successful_assignment, algorithm, graph, order)
    assert searched == _outcome(per_trial_search, algorithm, graph, order)


# (bits a round, first chunk that decides, chunks the memo holds, the
# chosen assignment, trials played).  With one bit a round the table
# answers each node's slot for a 1, which decides: the settle itself
# resolves both nodes, and the search stops at trial 3 of length 1.
# With two bits a round the table answers 10 and 11 but not 01: the
# node resolves once the reader of 01 finds it undecided, and the
# search stops at trial 10 of length 2 (after the 4 trials of length 1).
SETTLE_RESOLUTIONS = [
    (1, "1", ("1",), "1", 4),
    (2, "10", ("10", "11"), "10", 4 + 11),
]


@pytest.mark.parametrize(
    "bits, decides, seeded, chosen, executions", SETTLE_RESOLUTIONS, ids=["at-settle", "at-event"]
)
def test_a_node_resolves_on_a_slot_its_settle_filled(
    bits, decides, seeded, chosen, executions, monkeypatch
):
    # Each node of P2 decides on the first chunk ``decides``.
    algorithm = FunctionAlgorithm(
        init=lambda label, degree: "",
        msg=lambda state: state,
        step=lambda state, received, drawn: state + drawn,
        out=lambda state: 1 if state.startswith(decides) else None,
        bits_per_round=bits,
        name=f"decide-on-{decides}",
    )
    monkeypatch.setattr(assignment_search, "TrialMemo", seeded_memo(seeded, True))
    graph = with_uniform_input(path_graph(2))
    order = list(graph.nodes)
    search_totals, _reference_totals = assert_same_search(algorithm, graph, order)
    assert search_totals["executions"] == executions
    searched = _outcome(smallest_successful_assignment, algorithm, graph, order)
    assert searched[0] == {0: chosen, 1: chosen}
    assert searched == _outcome(per_trial_search, algorithm, graph, order)


# Algorithms whose searches stop late: inside a length's trials (by
# budget), at a tripwire error after a few rounds, or at success, with
# one and two bits per round.
LATE_STOPS = {
    "mis": AnonymousMISAlgorithm,
    "matching": AnonymousMatchingAlgorithm,
    "two-bit-coloring": two_bit_coloring,
    "flip-after-1": lambda: tripwire("flip", "1", "0"),
    "raise-after-01": lambda: tripwire("raise", "01", "1"),
    "flip-after-10": lambda: tripwire("flip", "10", "1"),
    # Decides in round 1 on a first chunk of 10, so the lengths that fund
    # no round hold decided nodes; flips in round 2.
    "two-bits-flip-after-10": lambda: tripwire("flip", "10", "11", bits_per_round=2),
}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    extra=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(sorted(LATE_STOPS)),
    reverse=st.booleans(),
    budget=st.integers(min_value=0, max_value=600),
)
def test_snapshot_search_matches_replay_at_late_stops(n, extra, seed, name, reverse, budget):
    # A length's trials are played per prefix snapshot and counted per
    # snapshot up to the stop, which mostly falls inside some snapshot's
    # trials: the same outcome, executions and decided nodes as replay.
    graph = with_uniform_input(random_connected_graph(n, extra, seed=seed))
    order = list(reversed(graph.nodes)) if reverse else list(graph.nodes)
    assert_same_search(LATE_STOPS[name](), graph, order, budget=budget, max_length=6)


@pytest.mark.parametrize("budget", [2, 6, 13])
def test_budget_runs_out_mid_length_with_the_same_totals(budget):
    # MIS on a 2-path: 4 trials of length 1, then 16 of length 2.
    graph = with_uniform_input(path_graph(2))
    algorithm, order = AnonymousMISAlgorithm(), list(graph.nodes)
    searched, search_totals = _outcome(
        smallest_successful_assignment, algorithm, graph, order, budget=budget
    )
    expected, reference_totals = _outcome(reference_search, algorithm, graph, order, budget=budget)
    assert searched == expected == ("SearchBudgetExceeded", searched[1])
    assert "at length" in searched[1]
    assert search_totals["executions"] == reference_totals["executions"] == budget
    assert search_totals["nodes_decided"] == reference_totals["nodes_decided"]
    assert search_totals["rounds"] == budget
    if budget < 4:
        assert search_totals == reference_totals


def test_a_round_runs_every_transition_before_any_output():
    # On P2 the "flipper" decides 1 after drawing a 1 and outputs 2 from
    # round 2 on; the "raiser" raises in round 2 once it hears that the
    # flipper drew a 1.  Both first happen in trial 9 of length 2: the
    # kernel runs every transition before it checks any output, so the
    # transition's error wins.
    def step(state, received, bits):
        label, history = state
        if label == "raiser" and len(history) == 1 and "1" in received:
            raise ValueError("raiser heard a 1")
        return (label, history + bits)

    def out(state):
        label, history = state
        if label != "flipper" or not history.startswith("1"):
            return None
        return len(history)

    algorithm = FunctionAlgorithm(
        init=lambda label, degree: (label[0], ""),
        msg=lambda state: state[1],
        step=step,
        out=out,
        bits_per_round=1,
        name="flipper-raiser",
    )
    graph = path_graph(2).with_layer("input", {0: "flipper", 1: "raiser"})
    for search in (smallest_successful_assignment, reference_search):
        with collect_engine_metrics() as totals:
            with pytest.raises(ValueError, match="raiser heard a 1"):
                search(algorithm, graph, [0, 1], max_length=3)
        assert totals.executions == 4 + 8


# ----------------------------------------------------------------------
# prg and extension searches: memo trials against execute
# ----------------------------------------------------------------------


def prg_search(algorithm, graph, order, **kwargs):
    return smallest_successful_assignment(algorithm, graph, order, strategy="prg", **kwargs)


def one_bit_prefix(order):
    """A prefix of one bit per node, alternating along ``order``."""
    return {v: "01"[index % 2] for index, v in enumerate(order)}


def assert_same_outcome(search, reference, *args, **kwargs):
    """The same result (or error) with every engine count equal."""
    searched = _outcome(search, *args, **kwargs)
    assert searched == _outcome(reference, *args, **kwargs)
    return searched


def _any_outcome(run, *args, **kwargs):
    """(result or error type and text, engine totals) of one call."""
    with collect_engine_metrics() as totals:
        try:
            outcome = run(*args, **kwargs)
        except Exception as exc:  # compared with the replay's error
            outcome = (type(exc).__name__, str(exc))
    return outcome, totals.as_dict(include_wall=False)


def assert_same_trials(algorithm, graph, assignments):
    """Each assignment played in one memo (which replays through
    ``execute`` what it cannot play) and replayed through ``execute``:
    the same success or error, the same counts.  Returns the memo."""
    memo = TrialMemo(algorithm, graph)
    for assignment in assignments:
        played = _any_outcome(memo.run, assignment)
        replayed = _any_outcome(lambda: execute(algorithm, graph, assignment=assignment).successful)
        assert played == replayed, assignment
    return memo


def trial_assignments(order):
    """The empty assignment (no round funded), the first prg trials of
    lengths 4 and 8, and lexicographic extensions of a one-bit prefix to
    3 bits."""
    empty = {v: "" for v in order}
    return [
        empty,
        *enumerate_extensions(empty, order, 4, strategy="prg", prg_seed=4, limit=16),
        *enumerate_extensions(empty, order, 8, strategy="prg", prg_seed=8, limit=8),
        *enumerate_extensions(one_bit_prefix(order), order, 3, limit=8),
    ]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("graph_name, graph", ZOO, ids=[name for name, _ in ZOO])
def test_memo_trials_match_execute_on_the_zoo(name, graph_name, graph, monkeypatch):
    # A bound of one transition per node clears the memo between most trials.
    monkeypatch.setattr(engine, "_TRANSITIONS_PER_NODE", 1)
    order = list(graph.nodes)
    assert_same_trials(ALGORITHMS[name](), graph, trial_assignments(order))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("graph_name, graph", ZOO, ids=[name for name, _ in ZOO])
def test_prg_and_extension_searches_match_replay_on_the_zoo(name, graph_name, graph):
    algorithm, order = ALGORITHMS[name](), list(graph.nodes)
    assert_same_outcome(prg_search, reference_prg_search, algorithm, graph, order, budget=150)
    prefix = one_bit_prefix(order)
    assert_same_outcome(
        smallest_successful_extension, reference_extension, algorithm, graph, order, prefix, 3,
        budget=150,
    )


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_prg_search_matches_replay_to_success(name):
    graph = with_uniform_input(path_graph(5))  # bipartite: port proposals of one bit succeed
    algorithm, order = ALGORITHMS[name](), list(graph.nodes)
    chosen, totals = assert_same_outcome(prg_search, reference_prg_search, algorithm, graph, order)
    assert isinstance(chosen, dict)
    assert totals["executions"] >= 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    extra=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(sorted(ALGORITHMS)),
    reverse=st.booleans(),
    budget=st.integers(min_value=0, max_value=300),
    target_length=st.integers(min_value=1, max_value=4),
)
def test_prg_and_extension_searches_match_replay_on_random_graphs(
    n, extra, seed, name, reverse, budget, target_length
):
    graph = with_uniform_input(random_connected_graph(n, extra, seed=seed))
    order = list(reversed(graph.nodes)) if reverse else list(graph.nodes)
    algorithm = ALGORITHMS[name]()
    assert_same_outcome(
        prg_search, reference_prg_search, algorithm, graph, order, max_length=16, budget=budget
    )
    assert_same_outcome(
        smallest_successful_extension, reference_extension, algorithm, graph, order,
        one_bit_prefix(order), target_length, budget=budget,
    )


@pytest.mark.parametrize(
    "context_name, name",
    [("faults", "mis"), ("faults", "matching"), ("churn", "mis"), ("churn", "matching")],
)
def test_memo_searches_replay_under_active_contexts(context_name, name):
    graph = with_uniform_input(random_connected_graph(4, 0.5, seed=2))
    algorithm, order = ALGORITHMS[name](), list(graph.nodes)
    with CONTEXTS[context_name]():
        assert_same_outcome(prg_search, reference_prg_search, algorithm, graph, order, budget=200)
        assert_same_outcome(
            smallest_successful_extension, reference_extension, algorithm, graph, order,
            one_bit_prefix(order), 3, budget=200,
        )
        assert_same_trials(algorithm, graph, trial_assignments(order))


def test_unhashable_states_fall_back_to_execute_for_the_rest_of_the_search():
    # The memo answers every trial with ``execute``'s outcome and counts:
    # list states abort the first trial before it reports anything, and
    # a port algorithm's trials replay from the first.
    graph = with_uniform_input(path_graph(3))
    order = list(graph.nodes)
    trials = [{v: bits for v in order} for bits in ("1111", "0000", "0110")]
    for algorithm in (list_state_election(), PortProposal()):
        memo = assert_same_trials(algorithm, graph, trials)
        assert memo._replays
        assert_same_outcome(prg_search, reference_prg_search, algorithm, graph, order)


def late_list_messages():
    """Hashable states; the message turns into a list once a node has
    drawn a 1, so a trial finds the message unhashable after its first
    round.  Every node decides after three rounds."""
    return FunctionAlgorithm(
        init=lambda label, degree: "",
        msg=lambda state: [state] if "1" in state else state,
        step=lambda state, received, bits: state + bits,
        out=lambda state: len(state) if len(state) >= 3 else None,
        bits_per_round=1,
        name="late-list-messages",
    )


def late_list_states():
    """The state turns from a tuple into a list once its history holds
    ``11``: on P3 the lexicographic search first meets one in trial 4 of
    length 2.  Every node decides after three rounds."""

    def step(state, received, bits):
        history = state[0] + bits
        return [history] if "11" in history else (history,)

    return FunctionAlgorithm(
        init=lambda label, degree: ("",),
        msg=lambda state: state[0],
        step=step,
        out=lambda state: len(state[0]) if len(state[0]) >= 3 else None,
        bits_per_round=1,
        name="late-list-states",
    )


# (algorithm, whether the memo falls back to ``execute`` partway through
# the trials).  A message that turns into a list is interned by its sort
# key, so the memo plays every trial; a state that turns into a list
# makes the memo replay from that trial on.
MIDWAY_LISTS = [(late_list_messages, False), (late_list_states, True)]


@pytest.mark.parametrize(
    "make, falls_back", MIDWAY_LISTS, ids=["late-list-messages", "late-list-states"]
)
def test_midway_list_message_is_interned_and_list_state_replays(make, falls_back):
    algorithm = make()
    graph = with_uniform_input(path_graph(3))
    order = list(graph.nodes)
    memo = assert_same_trials(algorithm, graph, trial_assignments(order))
    assert memo._replays is falls_back
    assert_same_outcome(prg_search, reference_prg_search, algorithm, graph, order)


# (algorithm, trials the lexicographic search continues before it
# replays through ``execute``).  A message that turns into a list is
# still interned by its sort key, so nothing replays; a state that turns
# into a list is met in trial 4 of length 2, after 8 + 3 continuations;
# a port-numbered algorithm, or one with list states from the start,
# replays every trial.
LEXICOGRAPHIC_FALLBACKS = [
    ("late-list-messages", None),
    ("late-list-states", 8 + 3),
    ("port-proposal", 0),
    ("list-states", 0),
]


@pytest.mark.parametrize("name, continued", LEXICOGRAPHIC_FALLBACKS)
def test_lexicographic_search_falls_back_with_the_same_outcome(name, continued):
    algorithm = {
        **ALGORITHMS, "late-list-messages": late_list_messages, "late-list-states": late_list_states
    }[name]()
    graph = with_uniform_input(path_graph(3))
    search_totals, reference_totals = assert_same_search(algorithm, graph, list(graph.nodes))
    assert search_totals["nodes_decided"] == reference_totals["nodes_decided"]
    if continued is None:  # one round per continued trial
        assert search_totals["rounds"] == search_totals["executions"]
    elif continued == 0:
        assert search_totals == reference_totals
    else:
        # A continued trial runs one round and a replayed one all of its
        # own, so each of the 3 continued trials of length 2 saves one
        # round, and the replayed trials run more than one each.
        assert search_totals["executions"] < search_totals["rounds"]
        assert reference_totals["rounds"] - search_totals["rounds"] == continued - 8


@pytest.mark.parametrize("strategy", ["lexicographic", "prg"])
@pytest.mark.parametrize("budget", [0, 5])
def test_deterministic_algorithm_raises_like_replay(strategy, budget):
    algorithm = FunctionAlgorithm(
        init=lambda label, degree: 0,
        msg=lambda state: state,
        step=lambda state, received, bits: state + 1,
        out=lambda state: state if state >= 1 else None,
        bits_per_round=0,
        name="deterministic-counter",
    )
    graph = with_uniform_input(path_graph(2))
    order = list(graph.nodes)
    reference = reference_search if strategy == "lexicographic" else reference_prg_search
    outcome = _any_outcome(
        smallest_successful_assignment, algorithm, graph, order, budget=budget, strategy=strategy
    )
    assert outcome == _any_outcome(reference, algorithm, graph, order, budget=budget)
    assert outcome[0][0] == ("SimulationError" if budget else "SearchBudgetExceeded")


@pytest.mark.parametrize("mode", ["flip", "raise"])
@pytest.mark.parametrize("trigger_state, trigger_bits", [("", "1"), ("1", "0"), ("10", "1")])
def test_memo_errors_match_replay(mode, trigger_state, trigger_bits):
    """A flipped output raises ``execute``'s ``OutputAlreadySetError``
    text; a raising ``transition`` raises at the same trial.  Either way
    every earlier trial, and nothing of the failing one, is counted."""
    graph = with_uniform_input(path_graph(3))
    algorithm, order = tripwire(mode, trigger_state, trigger_bits), list(graph.nodes)
    error = OutputAlreadySetError if mode == "flip" else ValueError
    # The first prg trial in which a node draws ``trigger_bits`` after
    # ``trigger_state`` (any node raises; only the ends of P3 decide).
    trigger = trigger_state + trigger_bits
    tripping = order if mode == "raise" else [order[0], order[2]]
    empty = {v: "" for v in order}
    trials = list(enumerate_extensions(empty, order, 4, strategy="prg", prg_seed=4, limit=128))
    completed = next(
        index for index, trial in enumerate(trials)
        if any(trial[v].startswith(trigger) for v in tripping)
    )
    outcome, totals = _any_outcome(prg_search, algorithm, graph, order)
    assert (outcome, totals) == _any_outcome(reference_prg_search, algorithm, graph, order)
    assert outcome[0] == error.__name__
    assert totals["executions"] == completed
    assert_same_trials(algorithm, graph, trials[: completed + 1])
    arguments = (algorithm, graph, order, {v: "" for v in order}, 3)
    extended = _any_outcome(smallest_successful_extension, *arguments)
    assert extended == _any_outcome(reference_extension, *arguments)
    assert extended[0][0] == error.__name__


def test_equal_messages_with_different_reprs_stay_apart():
    # The ends of P3 keep their first bit and then send True for a 1 and
    # 1 for a 0.  True == 1, but their sort keys differ, so in round 2
    # the middle receives (1, True) exactly when the ends drew different
    # first bits, and decides only then.
    def step(state, received, bits):
        degree, kept = state
        if degree == 2:
            return (degree, repr(received))
        return (degree, bits if kept is None else kept)

    def message(state):
        degree, kept = state
        if degree != 1 or kept is None:
            return None
        return True if kept == "1" else 1

    def out(state):
        degree, kept = state
        if degree != 2:
            return kept
        return "mixed" if kept == "(1, True)" else None

    algorithm = FunctionAlgorithm(
        init=lambda label, degree: (degree, None),
        msg=message,
        step=step,
        out=out,
        bits_per_round=1,
        name="true-or-one",
    )
    graph = with_uniform_input(path_graph(3))
    order = list(graph.nodes)
    assignments = [
        dict(zip(order, bits))
        for bits in (("00", "00", "00"), ("10", "00", "00"), ("00", "11", "10"),
                     ("11", "00", "11"), ("01", "00", "00"))
    ]
    assert_same_trials(algorithm, graph, assignments)
    memo = TrialMemo(algorithm, graph)
    assert [memo.run(assignment) for assignment in assignments] == [
        False, True, True, False, False
    ]
