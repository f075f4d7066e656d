"""Anonymous deciders — the second half of a GRAN certificate.

The problems in this reproduction (MIS, coloring, matching) accept every
connected graph with well-formed inputs, so their instance decision
problems Δ_Π reduce to *local* checks; the decider below performs them
anonymously.  Deterministic algorithms are a special case of randomized
ones, so they witness GRAN membership just fine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.problems.decision import NO, YES
from repro.runtime.algorithm import AnonymousAlgorithm


@dataclass(frozen=True)
class _DecState:
    verdict: str | None
    round_number: int = 0


class WellFormedInputDecider(AnonymousAlgorithm):
    """Decides Δ_Π for input-format problems: YES iff every node's input
    label is a tuple whose first entry equals its degree.

    Each node checks only itself — a single bad node says NO, which is
    exactly the Δ_Y acceptance rule.  Decides in zero rounds.
    """

    bits_per_round = 0
    name = "decide-well-formed-input"

    def init_state(self, input_label, degree: int) -> _DecState:
        well_formed = (
            isinstance(input_label, tuple)
            and len(input_label) >= 1
            and isinstance(input_label[0], tuple)
            and len(input_label[0]) >= 1
            and input_label[0][0] == degree
        )
        return _DecState(verdict=YES if well_formed else NO)

    def message(self, state: _DecState):
        return ()

    def transition(self, state: _DecState, received, bits: str) -> _DecState:
        return replace(state, round_number=state.round_number + 1)

    def output(self, state: _DecState) -> str | None:
        return state.verdict
