"""The randomized anonymous 2-hop coloring algorithm — the paper's
"generic preprocessing randomized stage".

Every node grows a random bitstring (its *candidate color*) by one bit
per round and commits it as output once it is certain that no node
within two hops can ever end up with the same color.  Certainty comes
from the prefix argument: colors only extend, so once the visible prefix
of another node's color has diverged from mine, our colors differ
forever.

Information flow (everything by broadcast):

* a node's round-``r`` message carries its color as of round ``r-1``
  (one round stale at the receiver) and the colors of *its* neighbors as
  of round ``r-2`` (two rounds stale) — giving every receiver its full
  2-hop color picture;
* a receiver hears its own (2-rounds-stale) color once inside every
  neighbor's list — it removes exactly one matching occurrence per list
  before looking for conflicts (it cannot *identify* itself, but it
  knows it appears exactly once, and if a removal leaves another equal
  entry then a genuine conflicting node exists);
* a node commits when every surviving 1-hop and 2-hop entry from a
  still-growing (uncommitted) node has visibly diverged from its own
  color.  Entries from *committed* nodes never conflict: a committed
  color is strictly shorter than the committing node's current color
  (lengths equal rounds), so the two final colors differ by length.

Safety of simultaneous commits: if two nodes within two hops commit in
the same round, each saw the other's stale color diverged, so their
final colors differ; commits in different rounds differ by length.
Liveness: adjacent-in-2-hops streams diverge with probability 1, and a
divergence becomes visible within two rounds.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.runtime.algorithm import AnonymousAlgorithm

ColorEntry = tuple[str, bool]  # (bitstring color, committed flag)


class _State(NamedTuple):
    color: str
    committed: bool
    output: str | None
    round_number: int
    # My (color, committed) one round ago — what neighbors echo back at me.
    prev_entry: ColorEntry
    # Neighbor entries heard this round; broadcast next round for 2-hop info.
    heard: tuple[ColorEntry, ...]


class TwoHopColoringAlgorithm(AnonymousAlgorithm):
    """Las-Vegas anonymous 2-hop coloring (outputs are bitstring colors)."""

    bits_per_round = 1
    name = "two-hop-coloring"

    # The first round whose transition may commit: by then a node has seen
    # one full round of 2-hop (twice-stale) information.
    _FIRST_COMMIT_ROUND = 3

    def init_state(self, input_label, degree: int) -> _State:
        return _State(
            color="",
            committed=False,
            output=None,
            round_number=0,
            prev_entry=("", False),
            heard=(),
        )

    def message(self, state: _State):
        return (state.color, state.committed, state.heard)

    def transition(self, state: _State, received, bits: str) -> _State:
        round_number = state.round_number + 1
        heard_now: tuple[ColorEntry, ...] = tuple(
            [(color, committed) for (color, committed, _lists) in received]
        )
        color = state.color
        if state.committed:
            return _State(
                color, state.committed, state.output, round_number,
                (color, state.committed), heard_now,
            )
        if not _has_conflict(color, state.prev_entry, received) and (
            round_number >= self._FIRST_COMMIT_ROUND
        ):
            return _State(color, True, color, round_number, (color, False), heard_now)
        return _State(color + bits, False, None, round_number, (color, False), heard_now)

    def output(self, state: _State):
        return state.output


def _has_conflict(color: str, prev_entry: ColorEntry, received) -> bool:
    """Whether any visible 1-hop or 2-hop entry still threatens ``color``.

    A committed color is final, so only exact equality could ever
    collide with it (mine keeps its current value or grows); a growing
    color conflicts while it is prefix-related to mine, since a future
    collision is still possible."""
    for (color_u, committed_u, list_u) in received:
        if (
            color_u == color
            if committed_u
            else color.startswith(color_u) or color_u.startswith(color)
        ):
            return True
        entries = list(list_u)
        # Remove my own echo exactly once per neighbor list (I appear
        # once in every neighbor's neighborhood; the lists carry
        # 2-rounds-stale entries and ``prev_entry`` is exactly my
        # 2-rounds-stale entry).  Lists are empty only in round 1.
        if entries:
            try:
                entries.remove(prev_entry)
            except ValueError as exc:
                raise AssertionError(
                    "own echo missing from a neighbor list; "
                    "message flow is inconsistent"
                ) from exc
        for (color_w, committed_w) in entries:
            if (
                color_w == color
                if committed_w
                else color.startswith(color_w) or color_w.startswith(color)
            ):
                return True
    return False
