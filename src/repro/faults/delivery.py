"""Faulty delivery: decorators applying a fault schedule at the
``emit``/``inbox`` boundary of any :class:`DeliveryDiscipline`.

:class:`FaultyDelivery` wraps a broadcast or port discipline and
perturbs what each node receives, per the plan's
:class:`~repro.faults.plan.FaultSchedule`:

* **broadcast** — dropped payloads vanish from the anonymous multiset,
  duplicated ones appear twice; the survivors are sorted with the same
  canonical key the bare discipline uses, so an empty plan reproduces
  the bare inbox byte for byte.
* **port** — the inbox keeps its fixed arity: a dropped payload is
  replaced by the :data:`LOST` sentinel, and a reorder event permutes
  the port-indexed tuple.  Duplication has no port-model analogue (the
  tuple cannot grow) and is ignored.

Crash-stop nodes are silenced symmetrically: from their crash round on,
no payload from them reaches anyone and nothing reaches them.  The
crashed node's *local* clock keeps ticking (it still transitions, on an
empty multiset or an all-``LOST`` tuple) — what the network observes is
exactly a crash-stop.  :class:`CorruptingTape` is the matching
decorator for the randomness boundary: it flips tape bits per the
schedule.

The decorator never re-enters the wrapped discipline's logic: it calls
``inner.emit`` verbatim and reassembles inboxes itself, tracking the
round number by counting ``emit`` calls (the engine calls ``emit``
exactly once per round).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.exceptions import FaultInjectionError
from repro.faults.plan import FaultSchedule
from repro.faults.trace import FaultEvent, FaultTrace
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.engine import (
    BroadcastDelivery,
    DeliveryDiscipline,
    PortDelivery,
    _message_sort_key,
)
from repro.runtime.tape import BitSource


class LostMessage:
    """Singleton sentinel delivered on a port whose payload was lost."""

    _instance: "LostMessage" | None = None

    def __new__(cls) -> "LostMessage":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<LOST>"

    def __reduce__(self):
        return (LostMessage, ())


LOST = LostMessage()


class FaultyDelivery(DeliveryDiscipline):
    """A :class:`DeliveryDiscipline` decorator injecting scheduled faults.

    Wraps exactly one execution: the round counter advances on every
    ``emit`` call, so reuse across executions would misalign fault
    rounds.  :meth:`ActiveInjection.wrap
    <repro.faults.context.ActiveInjection.wrap>` creates a fresh
    decorator per run.
    """

    def __init__(
        self, inner: DeliveryDiscipline, schedule: FaultSchedule, trace: FaultTrace
    ) -> None:
        if isinstance(inner, PortDelivery):
            self._mode = "port"
        elif isinstance(inner, BroadcastDelivery):
            self._mode = "broadcast"
        else:
            raise FaultInjectionError(
                f"FaultyDelivery cannot wrap {type(inner).__name__}; only "
                "BroadcastDelivery and PortDelivery (and subclasses) are "
                "supported"
            )
        self._inner = inner
        self._schedule = schedule
        self._trace = trace
        self._round = 0
        self._crash_noted: set = set()
        self._keys: dict[Node, str] = {}
        self.name = f"faulty-{inner.name}"

    def emit(
        self, algorithm: Any, states: Mapping[Node, Any], graph: LabeledGraph
    ) -> dict[Node, Any]:
        self._round += 1
        outboxes = self._inner.emit(algorithm, states, graph)
        if self._mode == "broadcast":
            # Key each sender's message once per round, the way
            # ``BroadcastDelivery.deliver`` does; inboxes sort senders.
            self._keys = {u: _message_sort_key(message) for u, message in outboxes.items()}
        return outboxes

    def _silenced(self, node: Node) -> bool:
        """Whether ``node`` is crash-silenced this round (noting the
        crash event once, at the first silenced round)."""
        if not self._schedule.crashed(node, self._round):
            return False
        if node not in self._crash_noted:
            self._crash_noted.add(node)
            self._trace.record(FaultEvent("crash", self._round, node))
        return True

    def inbox(
        self, outboxes: Mapping[Node, Any], node: Node, graph: LabeledGraph
    ) -> tuple[Any, ...]:
        if self._mode == "broadcast":
            return self._broadcast_inbox(outboxes, node, graph)
        return self._port_inbox(outboxes, node, graph)

    def _broadcast_inbox(
        self, outboxes: Mapping[Node, Any], node: Node, graph: LabeledGraph
    ) -> tuple[Any, ...]:
        r, schedule = self._round, self._schedule
        receiver_down = self._silenced(node)
        senders: list[Node] = []
        for u in graph.neighbors(node):
            if receiver_down or self._silenced(u):
                continue
            if schedule.drops(r, node, u):
                self._trace.record(FaultEvent("drop", r, node, (u,)))
                continue
            senders.append(u)
            if schedule.duplicates(r, node, u):
                self._trace.record(FaultEvent("duplicate", r, node, (u,)))
                senders.append(u)
        senders.sort(key=self._keys.__getitem__)
        return tuple([outboxes[u] for u in senders])

    def _port_inbox(
        self, outboxes: Mapping[Node, Any], node: Node, graph: LabeledGraph
    ) -> tuple[Any, ...]:
        r, schedule = self._round, self._schedule
        receiver_down = self._silenced(node)
        senders = list(graph.ports(node))
        entries: list[Any] = []
        for port, u in enumerate(senders):
            if receiver_down or self._silenced(u):
                entries.append(LOST)
            elif schedule.drops(r, node, u):
                self._trace.record(FaultEvent("drop", r, node, (u, port)))
                entries.append(LOST)
            else:
                entries.append(outboxes[u][graph.neighbor_to_port(u, node)])
        permutation = schedule.reorder_permutation(r, node, len(entries))
        if permutation is not None:
            self._trace.record(
                FaultEvent("reorder", r, node, tuple(permutation))
            )
            entries = [entries[source] for source in permutation]
        return tuple(entries)


class CorruptingTape(BitSource):
    """A :class:`BitSource` decorator flipping bits per the schedule.

    The flip decision for a node's ``i``-th drawn bit depends only on
    ``(plan_seed, node, i)``, so the corrupted stream is as replayable
    as the underlying tape.  With ``corrupt_rate == 0`` the adapter is
    an exact pass-through.
    """

    def __init__(
        self, inner: BitSource, node: Node, schedule: FaultSchedule, trace: FaultTrace
    ) -> None:
        self._inner = inner
        self._node = node
        self._schedule = schedule
        self._trace = trace
        self._drawn = 0

    def draw(self, count: int) -> str:
        bits = self._inner.draw(count)
        out = []
        for offset, bit in enumerate(bits):
            index = self._drawn + offset
            if self._schedule.flips(self._node, index):
                self._trace.record(
                    FaultEvent("corrupt", 0, self._node, (index,))
                )
                out.append("1" if bit == "0" else "0")
            else:
                out.append(bit)
        self._drawn += len(bits)
        return "".join(out)

    def remaining(self, count: int) -> bool:
        return self._inner.remaining(count)
