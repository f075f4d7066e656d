"""Fault traces: the record of every injected event.

Every observable perturbation — a dropped payload, a duplicated
broadcast, a permuted port inbox, a node going silent, a flipped tape
bit — is recorded as a :class:`FaultEvent`.
:meth:`ActiveInjection.wrap <repro.faults.context.ActiveInjection.wrap>`
gives each execution its own :class:`FaultTrace` (chained to the
block's parent trace), so both "what happened to this run" and "what
happened under this ``inject_faults`` block" are answerable, and the
per-execution event count lands in :class:`~repro.runtime.engine.ExecutionMetrics`
as ``faults_injected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    ``round`` is the 1-based execution round for message-level faults,
    and the round of first silence for ``crash`` events.  A tape does
    not know the engine's round counter, so ``corrupt`` events carry
    ``round=0`` and record the node's absolute bit index in ``detail``
    instead.
    """

    kind: str
    round: int
    node: Any
    detail: tuple[Any, ...] = ()


@dataclass
class FaultTrace:
    """An append-only log of injected faults.

    ``parent`` chains a per-execution trace to the surrounding
    injection context's trace: recording into the child also records
    into the parent, so the context sees the union of all its runs.
    """

    events: list[FaultEvent] = field(default_factory=list)
    parent: "FaultTrace" | None = None

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)
        if self.parent is not None:
            self.parent.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> dict[str, int]:
        """Event count per kind (only kinds that occurred appear)."""
        totals: dict[str, int] = {}
        for event in self.events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals
