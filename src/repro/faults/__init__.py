"""Deterministic, replayable fault injection for the unified engine.

The paper's model is perfectly synchronous and reliable; this package
makes the *departures* from that model first-class, so the repro can
measure where the paper's guarantees (Las-Vegas simulations, 2-hop
coloring validity, view/quotient agreement) actually break:

* :class:`FaultPlan` / :class:`FaultSchedule` — declarative fault
  specs whose every decision is SHA-256-derived from the plan seed and
  the fault's coordinates, so a plan is a pure value and any faulty run
  is byte-replayable (:mod:`repro.faults.plan`);
* :class:`FaultyDelivery` / :class:`CorruptingTape` / :data:`LOST` —
  decorators applying the schedule at the delivery and randomness
  boundaries
  (:mod:`repro.faults.delivery`);
* :class:`FaultTrace` / :class:`FaultEvent` — the record of every
  injected event (:mod:`repro.faults.trace`);
* :func:`inject_faults` — the ambient context every
  :func:`~repro.runtime.engine.execute` call inside it runs under, on
  the engine's one ambient stack (:mod:`repro.faults.context`);
* the ``faults`` gate of :mod:`repro.experiments.gates` — zero-fault
  identity and replay determinism (``make smoke``).

See ``docs/FAULTS.md`` for the plan schema, the determinism contract
and the replay recipe.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.context import ActiveInjection, inject_faults
    from repro.faults.delivery import (
        LOST,
        CorruptingTape,
        FaultyDelivery,
        LostMessage,
    )
    from repro.faults.plan import FaultPlan, FaultSchedule
    from repro.faults.trace import FaultEvent, FaultTrace

_EXPORTS = {
    "ActiveInjection": "repro.faults.context",
    "inject_faults": "repro.faults.context",
    "LOST": "repro.faults.delivery",
    "CorruptingTape": "repro.faults.delivery",
    "FaultyDelivery": "repro.faults.delivery",
    "LostMessage": "repro.faults.delivery",
    "FaultPlan": "repro.faults.plan",
    "FaultSchedule": "repro.faults.plan",
    "FaultEvent": "repro.faults.trace",
    "FaultTrace": "repro.faults.trace",
}

__all__ = [
    "LOST",
    "ActiveInjection",
    "CorruptingTape",
    "FaultEvent",
    "FaultPlan",
    "FaultSchedule",
    "FaultTrace",
    "FaultyDelivery",
    "LostMessage",
    "inject_faults",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
