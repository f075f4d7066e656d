"""Resilience probing: classify faulty runs, find the breaking point.

The paper's guarantees are all-or-nothing — a Las-Vegas run either
decides every node with a valid output or it doesn't.  Under fault
injection there are four distinguishable outcomes, and
:func:`probe` maps one faulty execution to exactly one of them:

* ``"ok"`` — every node decided and the validator accepted the output;
* ``"invalid"`` — every node decided but the output violates the
  problem (the silent failure mode: the network *thinks* it succeeded);
* ``"undecided"`` — the round budget ran out with nodes still open
  (livelock/stall);
* ``"error"`` — the execution raised (an algorithm invariant tripped
  over a lost or corrupted message — the loud failure mode).

:func:`first_break` reports the smallest fault intensity at which a
sweep stops being ``"ok"`` — the number the ``resilience`` experiment
family tabulates per graph family.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

from repro.faults.context import inject_faults
from repro.faults.plan import FaultPlan
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.engine import execute

Validator = Callable[[LabeledGraph, dict[Node, Any]], bool]


@dataclass(frozen=True)
class ResilienceOutcome:
    """The classified result of one faulty execution."""

    status: str  # "ok" | "invalid" | "undecided" | "error"
    rounds: int
    faults_injected: int
    fault_counts: tuple[tuple[str, int], ...]
    error: str | None = None
    outputs: dict[Node, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def probe(
    algorithm: Any,
    graph: LabeledGraph,
    plan: FaultPlan,
    validator: Validator,
    **execute_kwargs: Any,
) -> ResilienceOutcome:
    """Run one faulty execution and classify it.

    Catches *any* exception the run raises — under aggressive plans
    algorithms legitimately trip internal invariants (``AssertionError``,
    ``KeyError``, ...), and that is data, not a harness failure.  The
    outcome is deterministic: same algorithm, graph, plan and keywords
    produce the same classification, byte for byte.
    """
    try:
        with inject_faults(plan) as injection:
            result = execute(algorithm, graph, **execute_kwargs)
    except Exception as exc:
        return ResilienceOutcome(
            status="error",
            rounds=0,
            faults_injected=0,
            fault_counts=(),
            error=f"{type(exc).__name__}: {exc}",
        )
    counts = tuple(sorted(injection.trace.counts().items()))
    if not result.all_decided:
        status = "undecided"
    elif validator(graph, dict(result.outputs)):
        status = "ok"
    else:
        status = "invalid"
    return ResilienceOutcome(
        status=status,
        rounds=result.rounds,
        faults_injected=len(injection.trace),
        fault_counts=counts,
        outputs=dict(result.outputs),
    )


def first_break(
    intensities: Sequence[float],
    outcomes: Sequence[ResilienceOutcome],
) -> float | None:
    """The smallest intensity whose outcome is not ``"ok"`` (``None`` if
    the whole sweep survived).  ``intensities`` and ``outcomes`` are
    parallel, in increasing-intensity order."""
    if len(intensities) != len(outcomes):
        raise ValueError(
            f"{len(intensities)} intensities vs {len(outcomes)} outcomes"
        )
    for intensity, outcome in zip(intensities, outcomes):
        if not outcome.ok:
            return intensity
    return None


def independence_preserved(
    graph: LabeledGraph,
    outputs: dict[Node, Any],
    exclude: Sequence[Node] = (),
) -> bool:
    """No two adjacent non-excluded nodes both claim MIS membership.

    The *safety* half of MIS validity, restricted to survivors: crashed
    nodes keep a meaningless local state, so they (and edges into them)
    are excluded from the judgment.  Maximality is deliberately not
    checked — a crash legitimately stalls the nodes that were waiting
    on the crashed one, and that shows up as ``"undecided"`` instead.
    """
    excluded = set(exclude)
    for u, v in graph.edges():
        if u in excluded or v in excluded:
            continue
        if outputs.get(u) == 1 and outputs.get(v) == 1:
            return False
    return True
