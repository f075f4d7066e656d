"""Randomized anonymous (1-hop) vertex coloring.

The 1-hop little sibling of
:class:`~repro.algorithms.two_hop_coloring.TwoHopColoringAlgorithm`:
colors only need to differ between *adjacent* nodes, so no neighbor
lists are relayed — a node commits once every neighbor's (one round
stale) color has visibly diverged from its own, by the same
prefix-permanence argument.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.runtime.algorithm import AnonymousAlgorithm


class _State(NamedTuple):
    color: str
    committed: bool
    output: str | None
    round_number: int


class VertexColoringAlgorithm(AnonymousAlgorithm):
    """Las-Vegas anonymous proper coloring (outputs are bitstring colors)."""

    bits_per_round = 1
    name = "vertex-coloring"

    _FIRST_COMMIT_ROUND = 2

    def init_state(self, input_label, degree: int) -> _State:
        return _State(color="", committed=False, output=None, round_number=0)

    def message(self, state: _State):
        return (state.color, state.committed)

    def transition(self, state: _State, received, bits: str) -> _State:
        round_number = state.round_number + 1
        color = state.color
        if state.committed:
            return _State(color, state.committed, state.output, round_number)
        # A committed neighbour conflicts by equality, a growing one by a
        # prefix relation.
        conflict = any(
            color_u == color
            if committed_u
            else color.startswith(color_u) or color_u.startswith(color)
            for (color_u, committed_u) in received
        )
        if not conflict and round_number >= self._FIRST_COMMIT_ROUND:
            return _State(color, True, color, round_number)
        return _State(color + bits, False, None, round_number)

    def output(self, state: _State):
        return state.output
