"""Randomized anonymous maximal independent set.

In the spirit of Luby's algorithm, adapted to the anonymous Las-Vegas
setting: every *active* node grows a random priority bitstring (one bit
per round) and joins the MIS once its priority stream *visibly
dominates* every active neighbor's.  Dominance is decided at the first
differing bit of the two streams; because streams only extend, a visible
divergence orders them permanently (see
:mod:`repro.algorithms.bitstrings`).

Round structure (all broadcast):

* a node's message carries its status (``ACTIVE`` / ``IN`` / ``OUT``)
  and, while active, its priority as of the previous round;
* an active node that sees an ``IN`` neighbor leaves as ``OUT``;
* an active node joins (``IN``) when, for every neighbor that is still
  active, the streams have visibly diverged and its own is greater.

Independence: two adjacent nodes joining in the same round would each
have seen visible strict dominance over the other — impossible.  A node
joining cannot have an already-``IN`` neighbor (it would have gone
``OUT`` on hearing it).  Maximality: ``OUT`` is only ever caused by an
``IN`` neighbor.  Termination: streams of adjacent active nodes diverge
with probability 1, and the maximal visible stream in any active
component dominates its neighbors, so progress is a.s. perpetual.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.runtime.algorithm import AnonymousAlgorithm

ACTIVE = "ACTIVE"
IN = "IN"
OUT = "OUT"


class _State(NamedTuple):
    status: str
    priority: str
    round_number: int

    @property
    def decided(self) -> bool:
        return self.status != ACTIVE


class AnonymousMISAlgorithm(AnonymousAlgorithm):
    """Las-Vegas anonymous MIS (outputs ``True`` for IN, ``False`` for OUT)."""

    bits_per_round = 1
    name = "anonymous-mis"

    # A join needs at least one round of neighbor information.
    _FIRST_JOIN_ROUND = 2

    def init_state(self, input_label, degree: int) -> _State:
        return _State(status=ACTIVE, priority="", round_number=0)

    def message(self, state: _State):
        return (state.status, state.priority)

    def transition(self, state: _State, received, bits: str) -> _State:
        round_number = state.round_number + 1
        status, priority = state.status, state.priority
        if status != ACTIVE:
            return _State(status, priority, round_number)

        if any(status_u == IN for (status_u, _priority) in received):
            return _State(OUT, priority, round_number)

        # Diverged streams compare as strings at their first difference.
        if round_number >= self._FIRST_JOIN_ROUND and all(
            priority > other and not (priority.startswith(other) or other.startswith(priority))
            for (status_u, other) in received
            if status_u == ACTIVE
        ):
            return _State(IN, priority, round_number)

        return _State(ACTIVE, priority + bits, round_number)

    def output(self, state: _State) -> bool | None:
        if state.status == IN:
            return True
        if state.status == OUT:
            return False
        return None
