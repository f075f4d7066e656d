"""Fault plans: declarative, seeded, byte-replayable fault specs.

A :class:`FaultPlan` is a *pure value* describing which faults a run
should suffer: message drop/duplication rates, within-inbox reordering
for the port model, crash-stop nodes, and tape bit corruption.  It
contains no mutable state and no RNG object — every per-round,
per-edge decision is derived on demand by :class:`FaultSchedule` from a
SHA-256 hash of ``(plan_seed, kind, round, node, ...)``, exactly like
the experiment runner's :func:`~repro.experiments.runner.derive_seed`.
Two consequences:

* **Replayability** — the same plan applied to the same execution
  injects the same faults, bit for bit, in any process, on any worker,
  in any schedule order.
* **Locality** — whether the payload on edge ``u -> v`` in round ``r``
  is dropped depends only on the plan and ``(r, u, v)``, never on what
  happened in earlier rounds or on other edges.

See ``docs/FAULTS.md`` for the full determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import FaultInjectionError
from repro.runtime.engine import KeyedSchedule, check_plan

_RATE_FIELDS = ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate")


def _node_key(node: Any) -> str:
    """A deterministic string identity for a node (ints, strings and
    tuples — everything the graph builders produce — repr stably)."""
    return repr(node)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative fault specification; hashable, picklable, comparable.

    Attributes
    ----------
    plan_seed:
        Seed mixed into every fault decision.  Two plans that differ
        only in ``plan_seed`` inject statistically independent faults.
    drop_rate:
        Probability that the payload on a directed edge ``u -> v`` is
        lost in a given round (both delivery disciplines).
    duplicate_rate:
        Probability that a surviving broadcast payload is delivered
        twice (the anonymous multiset gains a copy).  Ignored by the
        port model, whose inbox is a fixed-arity tuple.
    reorder_rate:
        Probability that a node's port-indexed inbox is permuted in a
        given round (port model only; the broadcast multiset is sorted,
        so reordering it is unobservable by construction).
    corrupt_rate:
        Probability that any single tape bit a node draws is flipped.
    crashes:
        ``((node, round), ...)`` crash-stop schedule: from ``round``
        (1-based, inclusive) onward the node neither sends nor receives
        — every payload from or to it is silenced.
    first_round / last_round:
        The round window (1-based, inclusive) in which the *rate-based*
        faults apply; ``last_round=None`` means unbounded.  Crashes
        carry their own rounds and ignore the window.
    """

    plan_seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    crashes: tuple[tuple[Any, int], ...] = ()
    first_round: int = 1
    last_round: int | None = None

    def __post_init__(self) -> None:
        check_plan(self, _RATE_FIELDS, FaultInjectionError)
        object.__setattr__(self, "crashes", tuple(
            (node, int(round_)) for node, round_ in self.crashes
        ))
        for node, crash_round in self.crashes:
            if crash_round < 1:
                raise FaultInjectionError(
                    f"crash round for node {node!r} must be >= 1 "
                    f"(rounds are 1-based), got {crash_round}"
                )


class FaultSchedule(KeyedSchedule):
    """Derives every concrete fault decision of a :class:`FaultPlan`.

    Each decision compares a keyed-hash fraction
    (:class:`~repro.runtime.engine.KeyedSchedule`) against the relevant
    rate, so the schedule is stateless: any decision can be asked for in
    any order, any number of times, and always answers the same.
    """

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan)
        self._crash_rounds = {node: r for node, r in plan.crashes}

    def drops(self, round_number: int, receiver: Any, sender: Any) -> bool:
        """Whether the ``sender -> receiver`` payload is lost this round."""
        if self.plan.drop_rate == 0.0 or not self.in_window(round_number):
            return False
        return (
            self._fraction("drop", round_number, _node_key(receiver), _node_key(sender))
            < self.plan.drop_rate
        )

    def duplicates(self, round_number: int, receiver: Any, sender: Any) -> bool:
        """Whether the (surviving) payload is delivered twice."""
        if self.plan.duplicate_rate == 0.0 or not self.in_window(round_number):
            return False
        return (
            self._fraction("dup", round_number, _node_key(receiver), _node_key(sender))
            < self.plan.duplicate_rate
        )

    def reorder_permutation(
        self, round_number: int, receiver: Any, degree: int
    ) -> list[int] | None:
        """The permutation applied to the receiver's port-indexed inbox
        this round, or ``None``.  ``result[i]`` is the source index of
        inbox slot ``i``.  Identity draws are reported as ``None`` so a
        recorded reorder event always denotes an observable change."""
        if (
            self.plan.reorder_rate == 0.0
            or degree < 2
            or not self.in_window(round_number)
        ):
            return None
        key = _node_key(receiver)
        if self._fraction("reorder", round_number, key) >= self.plan.reorder_rate:
            return None
        # Deterministic Fisher-Yates driven by per-step hash fractions.
        perm = list(range(degree))
        for i in range(degree - 1, 0, -1):
            j = int(self._fraction("reorder-step", round_number, key, i) * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        if perm == list(range(degree)):
            return None
        return perm

    def crashed(self, node: Any, round_number: int) -> bool:
        """Whether ``node`` is crash-stopped in ``round_number``."""
        crash_round = self._crash_rounds.get(node)
        return crash_round is not None and round_number >= crash_round

    def flips(self, node: Any, bit_index: int) -> bool:
        """Whether the node's ``bit_index``-th drawn bit is flipped."""
        if self.plan.corrupt_rate == 0.0:
            return False
        return (
            self._fraction("corrupt", _node_key(node), bit_index)
            < self.plan.corrupt_rate
        )
