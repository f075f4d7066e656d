"""The synchronous anonymous message-passing runtime (paper Section 1.1).

Algorithms are *port-oblivious broadcast state machines*: in every round
a node broadcasts one message to all neighbors and receives the multiset
of its neighbors' messages.  The paper notes (end of Section 1.3) that
port numbers are unnecessary in its setting — senders can include their
color in messages — and port-obliviousness is exactly the property that
makes executions lift along label-respecting local isomorphisms (the
lifting lemma), which the derandomization machinery depends on.

Randomness is modeled explicitly: a node receives ``bits_per_round``
random bits each round, either from a seeded source (a real randomized
execution) or from a fixed *bit assignment* ``b : V -> {0,1}^t`` — the
"simulation induced by b" of Section 2.2.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.algorithm import (
        AnonymousAlgorithm,
        FunctionAlgorithm,
        RandomizedShell,
        randomized_shell,
    )
    from repro.runtime.composition import TwoStageComposition
    from repro.runtime.engine import (
        BroadcastDelivery,
        DeliveryDiscipline,
        EngineMetricsTotals,
        ExecutionEngine,
        ExecutionMetrics,
        ExecutionResult,
        PortDelivery,
        RoundHook,
        collect_engine_metrics,
        execute,
    )
    from repro.runtime.port_model import PortAwareAlgorithm, PortEmulation
    from repro.runtime.tape import BitSource, FixedTape, RandomTape, RecordingTape
    from repro.runtime.trace import ExecutionTrace, RoundRecord

_EXPORTS = {
    "AnonymousAlgorithm": "repro.runtime.algorithm",
    "FunctionAlgorithm": "repro.runtime.algorithm",
    "RandomizedShell": "repro.runtime.algorithm",
    "randomized_shell": "repro.runtime.algorithm",
    "TwoStageComposition": "repro.runtime.composition",
    "BroadcastDelivery": "repro.runtime.engine",
    "DeliveryDiscipline": "repro.runtime.engine",
    "EngineMetricsTotals": "repro.runtime.engine",
    "ExecutionEngine": "repro.runtime.engine",
    "ExecutionMetrics": "repro.runtime.engine",
    "ExecutionResult": "repro.runtime.engine",
    "PortDelivery": "repro.runtime.engine",
    "RoundHook": "repro.runtime.engine",
    "collect_engine_metrics": "repro.runtime.engine",
    "execute": "repro.runtime.engine",
    "PortAwareAlgorithm": "repro.runtime.port_model",
    "PortEmulation": "repro.runtime.port_model",
    "BitSource": "repro.runtime.tape",
    "FixedTape": "repro.runtime.tape",
    "RandomTape": "repro.runtime.tape",
    "RecordingTape": "repro.runtime.tape",
    "ExecutionTrace": "repro.runtime.trace",
    "RoundRecord": "repro.runtime.trace",
}

__all__ = [
    "AnonymousAlgorithm",
    "FunctionAlgorithm",
    "RandomizedShell",
    "randomized_shell",
    "BroadcastDelivery",
    "DeliveryDiscipline",
    "EngineMetricsTotals",
    "ExecutionEngine",
    "ExecutionMetrics",
    "PortDelivery",
    "RoundHook",
    "collect_engine_metrics",
    "execute",
    "PortAwareAlgorithm",
    "PortEmulation",
    "TwoStageComposition",
    "BitSource",
    "FixedTape",
    "RandomTape",
    "RecordingTape",
    "ExecutionTrace",
    "RoundRecord",
    "ExecutionResult",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
