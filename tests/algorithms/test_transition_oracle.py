"""The four randomized algorithms' transitions against their spec.

Each ``transition`` builds its next state directly and tests prefixes
inline.  The references below are the plain forms they replaced: they
decide through :mod:`repro.algorithms.bitstrings` and step with the
states' ``_replace``.  On any drawn state, inbox and bits both
must return equal states or raise the same error.  The draws reach every
status, echo-less two-hop lists (an ``AssertionError``) and proposals
that are or are not prefixes of a neighbour's token.

The message sort key takes a fast path for an exact tuple that nests
only exact tuples and atoms; it must equal ``repr`` of the frozen
message, and anything else must still freeze first.
"""

from __future__ import annotations

from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import luby_mis, matching, two_hop_coloring, vertex_coloring
from repro.algorithms.bitstrings import diverged, prefix_related, stream_greater
from repro.graphs.labeled_graph import _freeze
from repro.problems.matching import MATCHED, UNMATCHED
from repro.runtime import engine
from repro.runtime.engine import _message_sort_key

# ----------------------------------------------------------------------
# The reference transitions
# ----------------------------------------------------------------------


def reference_mis(algorithm, state, received, bits):
    State, ACTIVE, IN, OUT = luby_mis._State, luby_mis.ACTIVE, luby_mis.IN, luby_mis.OUT
    round_number = state.round_number + 1
    if state.decided:
        return state._replace(round_number=round_number)
    if any(status == IN for (status, _priority) in received):
        return State(status=OUT, priority=state.priority, round_number=round_number)
    active_neighbors = [priority for (status, priority) in received if status == ACTIVE]
    dominates_all = all(
        diverged(state.priority, other) and stream_greater(state.priority, other)
        for other in active_neighbors
    )
    if dominates_all and round_number >= algorithm._FIRST_JOIN_ROUND:
        return State(status=IN, priority=state.priority, round_number=round_number)
    return State(status=ACTIVE, priority=state.priority + bits, round_number=round_number)


def _entry_conflicts(my_color, other_color, other_committed):
    if other_committed:
        return other_color == my_color
    return prefix_related(my_color, other_color)


def reference_coloring(algorithm, state, received, bits):
    State = vertex_coloring._State
    round_number = state.round_number + 1
    if state.committed:
        return state._replace(round_number=round_number)
    conflict = any(
        _entry_conflicts(state.color, color_u, committed_u) for (color_u, committed_u) in received
    )
    if not conflict and round_number >= algorithm._FIRST_COMMIT_ROUND:
        return State(color=state.color, committed=True, output=state.color, round_number=round_number)
    return State(color=state.color + bits, committed=False, output=None, round_number=round_number)


def _two_hop_conflict(state, received):
    for (color_u, committed_u, list_u) in received:
        if _entry_conflicts(state.color, color_u, committed_u):
            return True
        entries = list(list_u)
        if entries:
            try:
                entries.remove(state.prev_entry)
            except ValueError as exc:
                raise AssertionError(
                    "own echo missing from a neighbor list; message flow is inconsistent"
                ) from exc
        for (color_w, committed_w) in entries:
            if _entry_conflicts(state.color, color_w, committed_w):
                return True
    return False


def reference_two_hop(algorithm, state, received, bits):
    State = two_hop_coloring._State
    round_number = state.round_number + 1
    heard_now = tuple((color, committed) for (color, committed, _lists) in received)
    if state.committed:
        return state._replace(
            round_number=round_number,
            prev_entry=(state.color, state.committed),
            heard=heard_now,
        )
    conflict = _two_hop_conflict(state, received)
    if not conflict and round_number >= algorithm._FIRST_COMMIT_ROUND:
        return State(
            color=state.color, committed=True, output=state.color, round_number=round_number,
            prev_entry=(state.color, False), heard=heard_now,
        )
    return State(
        color=state.color + bits, committed=False, output=None, round_number=round_number,
        prev_entry=(state.color, False), heard=heard_now,
    )


def _find_partner_entry(state, received):
    ACTIVE, PENDING = matching.ACTIVE, matching.PENDING
    if state.proposal is None:
        raise AssertionError  # the bare ``assert`` it stands for
    for entry in received:
        status_u, token_u, proposal_u = entry
        if status_u not in (ACTIVE, PENDING, MATCHED):
            continue
        if proposal_u is None:
            continue
        if prefix_related(state.proposal, token_u) and len(state.proposal) <= len(token_u):
            if prefix_related(proposal_u, state.token) and len(proposal_u) <= len(state.token):
                return entry
    return None


def reference_matching(algorithm, state, received, bits):
    State, ACTIVE, PENDING = matching._State, matching.ACTIVE, matching.PENDING
    round_number = state.round_number + 1
    if state.status in (MATCHED, UNMATCHED):
        return state._replace(round_number=round_number)
    if state.status == PENDING:
        partner = _find_partner_entry(state, received)
        if partner is not None and partner[0] in (PENDING, MATCHED):
            _status, partner_token, _proposal = partner
            return State(
                status=MATCHED, token=state.token, proposal=state.proposal,
                output=(MATCHED, state.token, partner_token), round_number=round_number,
            )
        return state._replace(round_number=round_number)
    candidates = []
    for (status_u, token_u, proposal_u) in received:
        if status_u == ACTIVE:
            candidates.append(token_u)
        elif status_u == PENDING:
            if proposal_u is not None and len(proposal_u) <= len(state.token) and prefix_related(
                proposal_u, state.token
            ):
                candidates.append(token_u)
    if not candidates and round_number >= algorithm._FIRST_DECISION_ROUND:
        if not received or all(
            status_u in (MATCHED, UNMATCHED, PENDING) for (status_u, _t, _p) in received
        ):
            return State(
                status=UNMATCHED, token=state.token, proposal=None, output=(UNMATCHED,),
                round_number=round_number,
            )
    can_propose = bool(candidates) and all(diverged(state.token, other) for other in candidates)
    if can_propose:
        for i, a in enumerate(candidates):
            for b in candidates[i + 1 :]:
                if not diverged(a, b):
                    can_propose = False
                    break
            if not can_propose:
                break
    proposal = None
    if can_propose:
        target = candidates[0]
        for other in candidates[1:]:
            if stream_greater(other, target):
                target = other
        proposal = target
    if proposal is not None:
        partner = _find_partner_entry(state._replace(proposal=proposal), received)
        if partner is not None:
            status_u, token_u, _proposal_u = partner
            if status_u in (PENDING, MATCHED):
                return State(
                    status=MATCHED, token=state.token, proposal=token_u,
                    output=(MATCHED, state.token, token_u), round_number=round_number,
                )
            return State(
                status=PENDING, token=state.token, proposal=token_u, output=None,
                round_number=round_number,
            )
    return State(
        status=ACTIVE, token=state.token + bits, proposal=proposal, output=None,
        round_number=round_number,
    )


def outcome(transition, *args):
    """The next state, or the error's type and text."""
    try:
        return transition(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_step(algorithm, reference, state, received, bits):
    received = tuple(received)
    expected = outcome(reference, algorithm, state, received, bits)
    assert outcome(algorithm.transition, state, received, bits) == expected


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------

bitstrings = st.text(alphabet="01", max_size=4)
rounds = st.integers(min_value=0, max_value=4)
chunks = st.text(alphabet="01", max_size=2)


def prefix_of(base):
    return st.integers(min_value=0, max_value=len(base)).map(lambda k: base[:k])


def diverging(base):
    """A bitstring that differs from ``base`` at a position both have."""
    if not base:
        return bitstrings
    flips = st.integers(min_value=0, max_value=len(base) - 1)
    return st.tuples(flips, bitstrings).map(
        lambda drawn: base[: drawn[0]] + "10"[int(base[drawn[0]])] + drawn[1]
    )


def near(base):
    """A bitstring that is a prefix of ``base``, extends it, or diverges
    from it."""
    tails = st.text(alphabet="01", min_size=1, max_size=2)
    return st.one_of(prefix_of(base), tails.map(lambda tail: base + tail), diverging(base))


def inboxes(message):
    return st.lists(message, max_size=5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mis_transition_matches_reference(data):
    ACTIVE, IN, OUT = luby_mis.ACTIVE, luby_mis.IN, luby_mis.OUT
    priority = data.draw(bitstrings)
    state = luby_mis._State(data.draw(st.sampled_from([ACTIVE, IN, OUT])), priority, data.draw(rounds))
    received = data.draw(inboxes(st.tuples(st.sampled_from([ACTIVE, ACTIVE, IN, OUT]), near(priority))))
    algorithm = luby_mis.AnonymousMISAlgorithm()
    assert_same_step(algorithm, reference_mis, state, received, data.draw(chunks))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_coloring_transition_matches_reference(data):
    color, committed = data.draw(bitstrings), data.draw(st.booleans())
    state = vertex_coloring._State(color, committed, color if committed else None, data.draw(rounds))
    received = data.draw(inboxes(st.tuples(near(color), st.booleans())))
    algorithm = vertex_coloring.VertexColoringAlgorithm()
    assert_same_step(algorithm, reference_coloring, state, received, data.draw(chunks))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_two_hop_transition_matches_reference(data):
    color, committed = data.draw(bitstrings), data.draw(st.booleans())
    prev_entry = (color[: data.draw(st.integers(min_value=0, max_value=len(color)))], committed)
    entries = st.tuples(near(color), st.booleans())

    @st.composite
    def heard_list(draw):
        # Usually empty or holding my echo once; sometimes without it.
        listed = draw(st.lists(entries, max_size=3))
        if listed and draw(st.integers(min_value=0, max_value=5)):
            listed.insert(draw(st.integers(min_value=0, max_value=len(listed))), prev_entry)
        return tuple(listed)

    state = two_hop_coloring._State(
        color, committed, color if committed else None, data.draw(rounds), prev_entry,
        tuple(data.draw(st.lists(entries, max_size=3))),
    )
    received = data.draw(inboxes(st.tuples(near(color), st.booleans(), heard_list())))
    algorithm = two_hop_coloring.TwoHopColoringAlgorithm()
    assert_same_step(algorithm, reference_two_hop, state, received, data.draw(chunks))


MATCHING_CASES = [
    (matching.ACTIVE, True), (matching.ACTIVE, False), (matching.PENDING, True),
    (matching.PENDING, False), (MATCHED, False), (UNMATCHED, False),
]


@pytest.mark.parametrize("status, handshake", MATCHING_CASES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_matching_transition_matches_reference(status, handshake, data):
    statuses = st.sampled_from([matching.ACTIVE, matching.PENDING, MATCHED, UNMATCHED])
    token = data.draw(bitstrings)
    mine = st.one_of(st.none(), prefix_of(token), diverging(token))
    received = data.draw(st.lists(st.tuples(statuses, near(token), mine), max_size=4))
    # A would-be partner: a token diverged from mine, which my own
    # proposal mostly names.  In a handshake it proposes a prefix of my
    # token; otherwise a prefix or not, or it is absent.
    partner_token = data.draw(diverging(token))
    if handshake or data.draw(st.booleans()):
        proposed = prefix_of(token) if handshake else mine
        partner = (data.draw(statuses), partner_token, data.draw(proposed))
        received.insert(data.draw(st.integers(min_value=0, max_value=len(received))), partner)
    proposal = data.draw(st.one_of(st.none(), prefix_of(partner_token), bitstrings))
    output = {
        MATCHED: (MATCHED, token, data.draw(bitstrings)), UNMATCHED: (UNMATCHED,)
    }.get(status)
    state = matching._State(status, token, proposal, output, data.draw(rounds))
    algorithm = matching.AnonymousMatchingAlgorithm()
    assert_same_step(algorithm, reference_matching, state, received, data.draw(chunks))


# ----------------------------------------------------------------------
# The message sort key
# ----------------------------------------------------------------------

atoms = st.one_of(
    st.text(max_size=4), st.integers(), st.booleans(), st.floats(), st.none(), st.binary(max_size=4)
)


Entry = namedtuple("Entry", "status token")

messages = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.tuples(inner, inner).map(lambda pair: Entry(*pair)),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(message=messages)
def test_message_sort_key_equals_the_frozen_repr(message):
    assert _message_sort_key(message) == repr(_freeze(message))


class Tag(str):
    def __repr__(self):
        return f"Tag({str(self)!r})"


@pytest.mark.parametrize(
    "message, frozen",
    [
        (("ACTIVE", "01", None), False),
        ((), False),
        (Entry("ACTIVE", "01"), True),
        (("ACTIVE", Tag("01")), True),
        (("ACTIVE", ("01", True)), False),
        ("ACTIVE", True),
    ],
)
def test_only_plain_tuples_of_atoms_skip_the_freeze(message, frozen, monkeypatch):
    calls = []

    def spy(value):
        calls.append(value)
        return _freeze(value)

    monkeypatch.setattr(engine, "_freeze", spy)
    assert _message_sort_key(message) == repr(_freeze(message))
    assert bool(calls) is frozen
