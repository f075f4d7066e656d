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
    ExecutionPolicy,
    ExecutionResult,
    PortDelivery,
    RoundHook,
    collect_engine_metrics,
    execute,
)
from repro.runtime.port_model import (
    PortAwareAlgorithm,
    PortEmulation,
    emulate_ports,
)
from repro.runtime.tape import BitSource, FixedTape, RandomTape, RecordingTape
from repro.runtime.trace import ExecutionTrace, RoundRecord

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
    "ExecutionPolicy",
    "PortDelivery",
    "RoundHook",
    "collect_engine_metrics",
    "execute",
    "PortAwareAlgorithm",
    "PortEmulation",
    "emulate_ports",
    "TwoStageComposition",
    "BitSource",
    "FixedTape",
    "RandomTape",
    "RecordingTape",
    "ExecutionTrace",
    "RoundRecord",
    "ExecutionResult",
]
