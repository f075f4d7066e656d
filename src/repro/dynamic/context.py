"""Ambient topology churn: ``with apply_churn(plan): ...``.

Every :func:`~repro.runtime.engine.execute` call that happens inside an
:func:`apply_churn` block gets a :class:`TopologyHook` appended to its
hooks: after each completed round the hook derives the round's delta
batch from the plan's :class:`~repro.dynamic.delta.ChurnSchedule`,
applies it through a per-execution
:class:`~repro.dynamic.graph.DynamicGraph`, and swaps the engine onto
the new snapshot — so round ``r+1``'s delivery runs over the churned
edges.  The hook is installed unconditionally: an *empty* plan still
rides along (observing every round, churning nothing), which is exactly
what the zero-churn transparency gate (``make smoke``) exploits
— a full-registry run under ``ChurnPlan()`` must be byte-identical to a
bare run.

Churn composes with fault injection: fault decisions key on ``(round,
receiver, sender)`` and never on the edge set, and the fault wrappers
read the engine's graph fresh each round, so ``inject_faults`` and
``apply_churn`` blocks nest in either order.

Contexts nest (the innermost plan wins) and are plain process-local
state: a worker process of the parallel experiment runner does not
inherit the parent's context.  Experiments that want churn construct
plans *inside* their (picklable, top-level) experiment functions — see
:mod:`repro.experiments.dynamic`.

Engines constructed directly (``ExecutionEngine(...)``) bypass the
ambient context; attach a :class:`TopologyHook` explicitly if needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.dynamic.delta import ChurnPlan, ChurnSchedule, Delta
from repro.dynamic.graph import DynamicGraph
from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime import engine as _engine
from repro.runtime.engine import RoundHook


class TopologyHook(RoundHook):
    """Applies one schedule's churn to one execution, round by round.

    The hook owns a :class:`DynamicGraph` overlay seeded from the
    engine's starting graph; the batch derived *for* round ``r`` is
    applied after round ``r`` completes, so it affects delivery from
    round ``r+1`` on.  The overlay's delta log is the execution's full
    churn record (``hook.dynamic.log``).
    """

    def __init__(
        self, schedule: ChurnSchedule, context: "ActiveChurn | None" = None
    ) -> None:
        self._schedule = schedule
        self._context = context
        self.dynamic: DynamicGraph | None = None

    @property
    def log(self) -> tuple[Delta, ...]:
        """Every delta this hook has applied so far."""
        return self.dynamic.log if self.dynamic is not None else ()

    def on_start(self, engine: Any) -> None:
        self.dynamic = DynamicGraph(engine.graph)

    def on_round(self, engine: Any, new_outputs: Any) -> None:
        if self.dynamic is None:  # manual step() without run(): lazy-seed
            self.dynamic = DynamicGraph(engine.graph)
        deltas = self._schedule.batch(engine.rounds, self.dynamic.graph)
        if not deltas:
            return
        applied = self.dynamic.apply(deltas)
        engine.swap_graph(applied.graph)
        if self._context is not None:
            self._context.deltas_applied += len(deltas)

    def on_finish(self, engine: Any, result: Any) -> None:
        if self._context is not None and self.dynamic is not None:
            self._context.execution_logs.append(self.dynamic.log)


class ActiveChurn:
    """One active ``apply_churn`` block.

    ``deltas_applied`` counts every delta applied by every execution in
    the block; ``execution_logs`` keeps each finished execution's full
    delta log (in execution order).  :meth:`hook_for` gives each
    execution a fresh hook — hooks carry per-run overlay state, so they
    are never shared between runs.
    """

    def __init__(self, plan: ChurnPlan) -> None:
        self.plan = plan
        self.schedule = ChurnSchedule(plan)
        self.deltas_applied = 0
        self.execution_logs: list[tuple[Delta, ...]] = []

    def hook_for(self, graph: LabeledGraph) -> TopologyHook:
        return TopologyHook(self.schedule, context=self)

    @property
    def last_execution_log(self) -> "tuple[Delta, ...] | None":
        """The delta log of the most recently finished execution."""
        return self.execution_logs[-1] if self.execution_logs else None


_ACTIVE: list[ActiveChurn] = []


def current() -> ActiveChurn | None:
    """The innermost active churn context, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def apply_churn(plan: ChurnPlan) -> Iterator[ActiveChurn]:
    """Run every ``execute()`` call in the block under ``plan``.

    Yields the :class:`ActiveChurn`, whose ``execution_logs`` record
    each execution's applied deltas.
    """
    churn = ActiveChurn(plan)
    _ACTIVE.append(churn)
    try:
        yield churn
    finally:
        _ACTIVE.remove(churn)


_engine.register_topology_provider(current)
