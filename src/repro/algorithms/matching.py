"""Randomized anonymous maximal matching.

Broadcast-only matching must solve an addressing problem: a proposal
cannot name its target.  The paper's remark that "by including the
sender's color in every message missing port numbers can be emulated"
is realized here with *growing random tokens* in place of colors:

* every active node grows a random token (one bit per round) and
  broadcasts ``(status, token, proposal)``;
* a node proposes only when the tokens of all its active neighbors are
  visibly pairwise diverged and diverged from its own — from then on
  prefixes identify neighbors unambiguously and permanently;
* the proposal value is the (stale) token of the chosen target: the
  maximum active-neighbor token stream.  Because stream order is stable
  and candidate sets only shrink (matched neighbors leave), a proposal
  only ever moves to smaller streams, and once two nodes target each
  other they are locked;
* on seeing mutual proposals a node freezes its token (``PENDING``) and
  waits for the partner's frozen token, then outputs
  ``("matched", own_token, partner_token)`` — the reciprocal pair the
  validity checker of
  :class:`~repro.problems.matching.MaximalMatchingProblem` verifies;
* a node outputs ``("unmatched",)`` once it has no possible partner
  left: every neighbor is matched or pending with someone else.

Progress: once tokens have pairwise diverged (probability 1), the
globally maximal active token and its maximal active neighbor propose
to each other and match.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.runtime.algorithm import AnonymousAlgorithm
from repro.problems.matching import MATCHED, UNMATCHED

ACTIVE = "ACTIVE"
PENDING = "PENDING"


class _State(NamedTuple):
    status: str
    token: str
    proposal: str | None
    output: tuple | None
    round_number: int


class AnonymousMatchingAlgorithm(AnonymousAlgorithm):
    """Las-Vegas anonymous maximal matching with token-pair outputs."""

    bits_per_round = 1
    name = "anonymous-matching"

    _FIRST_DECISION_ROUND = 2

    def init_state(self, input_label, degree: int) -> _State:
        return _State(
            status=ACTIVE, token="", proposal=None, output=None, round_number=0
        )

    def message(self, state: _State):
        return (state.status, state.token, state.proposal)

    def output(self, state: _State) -> tuple | None:
        return state.output

    # ------------------------------------------------------------------

    def transition(self, state: _State, received, bits: str) -> _State:
        round_number = state.round_number + 1
        status = state.status
        if status in (MATCHED, UNMATCHED):
            return _State(status, state.token, state.proposal, state.output, round_number)

        if status == PENDING:
            return self._pending_step(state, received, round_number)
        return self._active_step(state, received, bits, round_number)

    # ------------------------------------------------------------------

    def _pending_step(self, state: _State, received, round_number: int) -> _State:
        # The partner's token is frozen once it is PENDING; it may already
        # have moved on to MATCHED if it saw my PENDING message first.
        assert state.proposal is not None
        token = state.token
        partner = _partner_entry(state.proposal, token, received)
        if partner is not None and partner[0] in (PENDING, MATCHED):
            return _State(
                MATCHED, token, state.proposal, (MATCHED, token, partner[1]), round_number
            )
        return _State(PENDING, token, state.proposal, state.output, round_number)

    # ------------------------------------------------------------------

    def _active_step(self, state: _State, received, bits: str, round_number: int) -> _State:
        token = state.token
        # Partition the neighborhood by status.
        candidates = []  # tokens of neighbors I could still match with
        for (status_u, token_u, proposal_u) in received:
            if status_u == ACTIVE:
                candidates.append(token_u)
            elif status_u == PENDING:
                # Pending toward me: still my candidate.  Pending toward
                # another node: will become matched, not a candidate.
                if proposal_u is not None and token.startswith(proposal_u):
                    candidates.append(token_u)

        if not candidates and round_number >= self._FIRST_DECISION_ROUND:
            if not received or all(
                status_u in (MATCHED, UNMATCHED, PENDING) for (status_u, _t, _p) in received
            ):
                return _State(UNMATCHED, token, None, (UNMATCHED,), round_number)

        # Propose only when every candidate has visibly diverged from me
        # and candidates are pairwise visibly diverged — from then on
        # token prefixes are unambiguous addresses.  The target is the
        # greatest candidate stream.
        proposal = _greatest_diverged(token, candidates) if candidates else None

        if proposal is not None:
            # Mutuality check uses my *current* (this round's) target.  The
            # partner's proposal toward me is enough: its target is locked
            # on me (I am its maximal candidate and I only leave its
            # candidate set by matching with it).
            partner = _partner_entry(proposal, token, received)
            if partner is not None:
                status_u, token_u, _proposal_u = partner
                if status_u in (PENDING, MATCHED):
                    # The partner's token is already frozen: match outright.
                    return _State(
                        MATCHED, token, token_u, (MATCHED, token, token_u), round_number
                    )
                # My token is frozen from now on; my proposal is the
                # freshest stale token of my partner.
                return _State(PENDING, token, token_u, None, round_number)

        return _State(ACTIVE, token + bits, proposal, None, round_number)


def _greatest_diverged(token: str, candidates: list[str]) -> str | None:
    """The greatest of ``candidates`` if each has diverged from ``token``
    and from every other, else ``None``.

    Diverged strings compare as strings at their first difference.  In
    sorted order everything between a string and one it prefixes also
    starts with it, so neighbours in that order show any prefix pair."""
    ordered = sorted(candidates)
    previous = None
    for other in ordered:
        if token.startswith(other) or other.startswith(token):
            return None
        if previous is not None and other.startswith(previous):
            return None
        previous = other
    return ordered[-1]


def _partner_entry(target: str, token: str, received):
    """The entry whose token extends my ``target`` prefix and whose
    proposal is a prefix of my ``token`` — my handshake partner."""
    for entry in received:
        status_u, token_u, proposal_u = entry
        if status_u not in (ACTIVE, PENDING, MATCHED) or proposal_u is None:
            continue
        if token_u.startswith(target) and token.startswith(proposal_u):
            return entry
    return None
