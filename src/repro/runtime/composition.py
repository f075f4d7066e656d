"""Sequential composition of anonymous algorithms, with a synchronizer.

The paper's headline says every randomized anonymous computation
decouples into a randomized 2-hop coloring stage followed by a
deterministic stage.  This module makes the decoupled pair a *single*
anonymous algorithm again: :class:`TwoStageComposition` runs stage 1 to
(local) completion and then runs stage 2 on top of stage 1's output —
which requires solving a genuinely distributed problem along the way:

**staggered starts.**  Nodes finish stage 1 in different rounds, but
stage 2's semantics assume synchronous rounds.  The composition embeds a
local (α-style) synchronizer:

* every stage-2 message is tagged with its stage-2 round number, and a
  node re-broadcasts, each physical round, the payloads of its current
  stage-2 round and the one before;
* a node executes its stage-2 round ``k`` transition in the first
  physical round in which *every* neighbor's message contains a round-``k``
  payload — each physical round delivers exactly one message per
  neighbor, so the round-``k`` payloads can be collected one-per-neighbor
  without sender identities;
* neighbors' stage-2 progress can never differ by more than one round
  (a node only advances past ``k`` after hearing everyone's round-``k``),
  so the two-round message history always suffices — violations raise.

Stage 1 must keep producing messages after its output is set (all
algorithms in this library do — committed nodes keep relaying), because
slower neighbors may still depend on them; the composition keeps
broadcasting the stage-1 payload alongside stage-2 traffic.

For a *deterministic* stage 2 the composed execution is
message-for-message equivalent to running stage 2 directly on the
stage-1-labeled graph — the equivalence the tests assert.

A composition is an ordinary :class:`AnonymousAlgorithm`, so it runs
unchanged through the unified kernel
(:func:`repro.runtime.engine.execute` with
:class:`~repro.runtime.engine.BroadcastDelivery`); the synchronizer's
reliance on "each physical round delivers exactly one message per
neighbor" is precisely the broadcast discipline's delivery guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable
from typing import Any

from repro.exceptions import RuntimeModelError
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import _message_sort_key


@dataclass(frozen=True)
class _State:
    s1_state: Any
    s1_output: Any | None
    original_input: Any
    degree: int
    started_s2: bool
    s2_state: Any
    s2_round: int  # completed stage-2 rounds; trying round = s2_round + 1
    s2_prev_payload: Any  # my payload of round s2_round (for laggards)


class TwoStageComposition(AnonymousAlgorithm):
    """Run ``stage1``; feed its output into ``stage2``; output stage 2's.

    Parameters
    ----------
    stage1, stage2:
        The two anonymous algorithms.
    make_stage2_input:
        ``(original_input, degree, stage1_output) -> stage2_input`` —
        typically packing the stage-1 color next to the original input,
        e.g. ``lambda inp, deg, color: (inp, color)`` for the
        greedy-by-color consumers.
    """

    def __init__(
        self,
        stage1: AnonymousAlgorithm,
        stage2: AnonymousAlgorithm,
        make_stage2_input: Callable[[Any, int, Any], Any],
        name: str | None = None,
    ) -> None:
        self.stage1 = stage1
        self.stage2 = stage2
        self.make_stage2_input = make_stage2_input
        self.bits_per_round = max(stage1.bits_per_round, stage2.bits_per_round)
        self.name = name or f"compose({stage1.name} ; {stage2.name})"

    # ------------------------------------------------------------------

    def init_state(self, input_label: Any, degree: int) -> _State:
        return _State(
            s1_state=self.stage1.init_state(input_label, degree),
            s1_output=None,
            original_input=input_label,
            degree=degree,
            started_s2=False,
            s2_state=None,
            s2_round=0,
            s2_prev_payload=None,
        )

    def message(self, state: _State):
        s1_payload = self.stage1.message(state.s1_state)
        if not state.started_s2:
            return ("s1-only", s1_payload)
        trying = state.s2_round + 1
        history = [(trying, self.stage2.message(state.s2_state))]
        if state.s2_round >= 1:
            history.append((state.s2_round, state.s2_prev_payload))
        return ("both", s1_payload, tuple(history))

    def transition(self, state: _State, received, bits: str) -> _State:
        s1_bits = bits[: self.stage1.bits_per_round]
        s2_bits = bits[: self.stage2.bits_per_round]

        # --- stage 1 always advances (it keeps relaying after output).
        s1_messages = tuple(
            sorted((message[1] for message in received), key=_message_sort_key)
        )
        new_s1_state = self.stage1.transition(state.s1_state, s1_messages, s1_bits)
        s1_output = state.s1_output
        if s1_output is None:
            s1_output = self.stage1.output(new_s1_state)
        state = replace(state, s1_state=new_s1_state, s1_output=s1_output)

        # --- enter stage 2 once stage 1 decided locally.
        if not state.started_s2:
            if s1_output is None:
                return state
            s2_input = self.make_stage2_input(
                state.original_input, state.degree, s1_output
            )
            return replace(
                state,
                started_s2=True,
                s2_state=self.stage2.init_state(s2_input, state.degree),
                s2_round=0,
                s2_prev_payload=None,
            )

        # --- stage 2 synchronizer: one payload per neighbor for the
        # round being tried, or hold.
        wanted = state.s2_round + 1
        payloads = []
        for message in received:
            if message[0] != "both":
                continue  # neighbor still in stage 1
            _tag, _s1, history = message
            matches = [payload for (round_number, payload) in history
                       if round_number == wanted]
            if len(matches) > 1:
                raise RuntimeModelError(
                    "synchronizer invariant violated: duplicate round "
                    f"{wanted} payloads in one message"
                )
            if matches:
                payloads.append(matches[0])
            else:
                rounds_seen = [round_number for (round_number, _p) in history]
                if rounds_seen and min(rounds_seen) > wanted:
                    raise RuntimeModelError(
                        "synchronizer invariant violated: neighbor ran "
                        f"{min(rounds_seen) - wanted} rounds ahead"
                    )
        if len(payloads) < state.degree:
            return state  # some neighbor is not there yet: hold
        my_payload = self.stage2.message(state.s2_state)
        ordered = tuple(sorted(payloads, key=_message_sort_key))
        new_s2_state = self.stage2.transition(state.s2_state, ordered, s2_bits)
        return replace(
            state,
            s2_state=new_s2_state,
            s2_round=wanted,
            s2_prev_payload=my_payload,
        )

    def output(self, state: _State) -> Any | None:
        if not state.started_s2:
            return None
        return self.stage2.output(state.s2_state)
