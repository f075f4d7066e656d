"""Ambient fault injection: ``with inject_faults(plan): ...``.

Every :func:`~repro.runtime.engine.execute` call that happens inside an
:func:`inject_faults` block runs under the plan: its delivery discipline
is wrapped in :class:`~repro.faults.delivery.FaultyDelivery`, every
node's tape in :class:`~repro.faults.delivery.CorruptingTape`, and a
metrics hook streams the per-execution fault count into
``result.metrics.faults_injected``.  The wrapping is unconditional —
an *empty* plan still routes every payload and every bit through the
decorators, which is exactly what the zero-fault differential gate
(``make smoke``) exploits: transparency of the wrappers is a
tested property, not an assumption.

Contexts live on the engine's one ambient stack
(:func:`~repro.runtime.engine.ambient_context`): they nest (the
innermost plan of each kind wins, and the kinds wrap an execution in
nesting order) and are plain process-local state: a worker process of
the parallel experiment runner does not inherit the parent's context.
Experiments that want faults construct plans *inside* their
(picklable, top-level) experiment functions — see
:mod:`repro.experiments.resilience`.

Engines constructed directly (``ExecutionEngine(...)``) bypass the
ambient context; wrap their delivery explicitly if needed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from contextlib import AbstractContextManager
from typing import Any

from repro.faults.delivery import CorruptingTape, FaultyDelivery
from repro.faults.plan import FaultPlan, FaultSchedule
from repro.faults.trace import FaultTrace
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.engine import DeliveryDiscipline, RoundHook, ambient_context
from repro.runtime.tape import BitSource


class _FaultMetricsHook(RoundHook):
    """Streams the execution's fault-event count into its metrics."""

    def __init__(self, trace: FaultTrace) -> None:
        self._trace = trace

    def on_round(self, engine: Any, new_outputs: Any) -> None:
        engine.metrics.faults_injected = len(self._trace)


class ActiveInjection:
    """One active ``inject_faults`` block.

    ``trace`` accumulates every event injected by every execution in
    the block; :meth:`wrap` gives each execution fresh decorators and a
    child trace (decorators carry per-run round counters, so they are
    never shared between runs).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.schedule = FaultSchedule(plan)
        self.trace = FaultTrace()

    def wrap(
        self,
        delivery: DeliveryDiscipline,
        tapes: Mapping[Node, BitSource],
        graph: LabeledGraph,
        hooks: Sequence[RoundHook],
    ) -> tuple[DeliveryDiscipline, Mapping[Node, BitSource], Sequence[RoundHook]]:
        local = FaultTrace(parent=self.trace)
        wrapped_delivery = FaultyDelivery(delivery, self.schedule, trace=local)
        wrapped_tapes = {
            v: CorruptingTape(tape, v, self.schedule, trace=local)
            for v, tape in tapes.items()
        }
        return wrapped_delivery, wrapped_tapes, [*hooks, _FaultMetricsHook(local)]


def inject_faults(plan: FaultPlan) -> AbstractContextManager[ActiveInjection]:
    """Run every ``execute()`` call in the block under ``plan``.

    Yields the :class:`ActiveInjection`, whose ``trace`` records every
    injected event across the block's executions.
    """
    return ambient_context(ActiveInjection(plan))
