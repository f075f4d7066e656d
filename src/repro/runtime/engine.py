"""The unified execution engine: one round kernel, pluggable delivery.

Every execution in this library — broadcast or port-numbered, seeded or
induced by a bit assignment — runs the *same* synchronous round kernel:

    state init -> message emit -> delivery -> bit draw -> transition
               -> irrevocable-output check -> trace/metrics

What varies between the paper's models is only **how messages move**,
captured by a :class:`DeliveryDiscipline`:

* :class:`BroadcastDelivery` — every node broadcasts one message; each
  node receives the canonically sorted tuple of its neighbors' messages
  (the anonymous multiset of Section 1.1).
* :class:`PortDelivery` — every node emits one payload per port and
  receives payloads indexed by its own ports (the port-numbering model
  of Section 1.3).

The kernel is configured by an :class:`ExecutionPolicy` (round limit,
tape-funding rule, trace level) and reports an :class:`ExecutionMetrics`
record on every result.

:func:`execute` is the one entry point the rest of the library uses; it
picks the delivery discipline from the algorithm type and the
bit sources from whichever of ``seed`` / ``assignment`` / ``tapes`` is
given.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.exceptions import (
    OutputAlreadySetError,
    RuntimeModelError,
    SimulationError,
)
from repro.graphs.labeled_graph import LabeledGraph, Node, _freeze
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.tape import BitSource, FixedTape, RandomTape, RecordingTape
from repro.runtime.trace import ExecutionTrace, RoundRecord

TRACE_LEVELS = ("off", "outputs", "full")


def _message_sort_key(message: Any) -> str:
    """The canonical order key of a message (or any payload) in an
    anonymous multiset: ``repr`` of its frozen form."""
    return repr(_freeze(message))


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPolicy:
    """Kernel configuration, orthogonal to the delivery discipline.

    Attributes
    ----------
    max_rounds:
        Default round budget for :meth:`ExecutionEngine.run` (a ``run``
        call may override it).
    stop_before_unfunded:
        The tape-funding rule.  ``True`` (the paper's ``l = min length``
        convention for simulations induced by an assignment, Section 2.2)
        stops *before* any round some node's tape cannot pay for, so
        state is never mutated by a partially funded round.  ``False``
        skips the check; a dry :class:`~repro.runtime.tape.FixedTape`
        then raises mid-round from ``draw`` — only useful for tests that
        exercise that failure mode, and for :func:`execute` with an
        assignment, whose round limit already stops at the last funded
        round.  :meth:`ExecutionEngine.run` checks once per round;
        :meth:`ExecutionEngine.step` checks on its own.
    trace:
        ``"full"`` records messages, bits and new outputs per round;
        ``"outputs"`` records only the round's newly decided outputs
        (cheap round accounting, e.g. ``trace.output_round``);
        ``"off"`` records nothing (``result.trace is None``).
    """

    max_rounds: int = 10_000
    stop_before_unfunded: bool = True
    trace: str = "full"

    def __post_init__(self) -> None:
        if self.trace not in TRACE_LEVELS:
            raise RuntimeModelError(
                f"unknown trace level {self.trace!r}; expected one of {TRACE_LEVELS}"
            )
        if self.max_rounds < 0:
            raise RuntimeModelError(
                f"max_rounds must be nonnegative, got {self.max_rounds}"
            )


def _trace_level(record_trace: "bool | str | None", default: str = "full") -> str:
    """Normalize a ``record_trace`` flag (bool or level name) to a level."""
    if record_trace is None:
        return default
    if record_trace is True:
        return "full"
    if record_trace is False:
        return "off"
    if record_trace in TRACE_LEVELS:
        return record_trace
    raise RuntimeModelError(
        f"unknown trace level {record_trace!r}; expected a bool or one of {TRACE_LEVELS}"
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@dataclass
class ExecutionMetrics:
    """Instrumentation record for one execution.

    ``decided_per_round[r]`` is the number of nodes that first produced
    their output in round ``r`` (index 0 = decided at initialization);
    the entries sum to the number of decided nodes.  ``messages_sent``
    counts point-to-point payload deliveries (one broadcast by a node of
    degree ``d`` counts ``d``, as does one payload per port), making
    broadcast and port executions directly comparable.
    ``faults_injected`` counts the fault events the :mod:`repro.faults`
    subsystem injected into this execution (0 for bare runs and for
    runs under an empty plan).

    A continuation of a snapshot (:func:`fork`) has no record of its
    own; collectors count it as one execution of the rounds it
    simulated (none or one), with ``nodes_decided`` the total.
    """

    rounds: int = 0
    messages_sent: int = 0
    bits_drawn: int = 0
    decided_per_round: list[int] = field(default_factory=list)
    faults_injected: int = 0
    wall_s: float = 0.0

    @property
    def nodes_decided(self) -> int:
        return sum(self.decided_per_round)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "bits_drawn": self.bits_drawn,
            "nodes_decided": self.nodes_decided,
            "decided_per_round": list(self.decided_per_round),
            "faults_injected": self.faults_injected,
            "wall_s": self.wall_s,
        }


@dataclass
class EngineMetricsTotals:
    """Aggregate of every execution observed by a metrics collector."""

    executions: int = 0
    rounds: int = 0
    messages_sent: int = 0
    bits_drawn: int = 0
    nodes_decided: int = 0
    faults_injected: int = 0
    wall_s: float = 0.0

    def absorb(self, metrics: ExecutionMetrics) -> None:
        self.executions += 1
        self.rounds += metrics.rounds
        self.messages_sent += metrics.messages_sent
        self.bits_drawn += metrics.bits_drawn
        self.nodes_decided += metrics.nodes_decided
        self.faults_injected += metrics.faults_injected
        self.wall_s += metrics.wall_s

    def as_dict(self, include_wall: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "executions": self.executions,
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "bits_drawn": self.bits_drawn,
            "nodes_decided": self.nodes_decided,
            "faults_injected": self.faults_injected,
        }
        if include_wall:
            payload["wall_s"] = self.wall_s
        return payload


_COLLECTORS: list[EngineMetricsTotals] = []


@contextmanager
def collect_engine_metrics() -> Iterator[EngineMetricsTotals]:
    """Accumulate the metrics of every engine run inside the ``with``.

    Collectors nest: each active collector absorbs every execution that
    completes while it is open.  The experiment runner wraps each
    experiment in one of these to attach a per-experiment ``metrics``
    block to ``RESULTS_experiments.json``.
    """
    totals = EngineMetricsTotals()
    _COLLECTORS.append(totals)
    try:
        yield totals
    finally:
        # By identity: totals are dataclasses, so an equal outer
        # collector would match ``list.remove``'s ``==``.
        _COLLECTORS[:] = [active for active in _COLLECTORS if active is not totals]


class RoundHook:
    """Observer of kernel progress; subclass and override what you need.

    ``on_round`` fires after every completed round (also for manual
    ``step()`` calls); ``on_start``/``on_finish`` bracket ``run()``.
    """

    def on_start(self, engine: "ExecutionEngine") -> None:  # pragma: no cover
        pass

    def on_round(
        self, engine: "ExecutionEngine", new_outputs: dict[Node, Any]
    ) -> None:  # pragma: no cover
        pass

    def on_finish(
        self, engine: "ExecutionEngine", result: "ExecutionResult"
    ) -> None:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Delivery disciplines
# ----------------------------------------------------------------------


class DeliveryDiscipline(ABC):
    """How one round's emitted messages reach their receivers.

    The kernel asks for a whole round at once through :meth:`deliver`;
    a discipline only has to say what one node receives (:meth:`inbox`)
    and may override :meth:`deliver` to share work across receivers.
    """

    name: str = "delivery"

    @abstractmethod
    def emit(
        self, algorithm: Any, states: Mapping[Node, Any], graph: LabeledGraph
    ) -> dict[Node, Any]:
        """Each node's outbox for this round (validated)."""

    @abstractmethod
    def inbox(
        self, outboxes: Mapping[Node, Any], node: Node, graph: LabeledGraph
    ) -> tuple[Any, ...]:
        """The tuple handed to ``node``'s transition this round."""

    def deliver(
        self, outboxes: Mapping[Node, Any], graph: LabeledGraph
    ) -> dict[Node, tuple[Any, ...]]:
        """Every node's inbox for this round, in node order."""
        return {v: self.inbox(outboxes, v, graph) for v in graph.nodes}


class BroadcastDelivery(DeliveryDiscipline):
    """Anonymous broadcast: the sorted multiset of neighbor messages."""

    name = "broadcast"

    def emit(self, algorithm, states, graph):
        return {v: algorithm.message(states[v]) for v in graph.nodes}

    def inbox(self, outboxes, node, graph):
        return tuple(
            sorted(
                (outboxes[u] for u in graph.neighbors(node)),
                key=_message_sort_key,
            )
        )

    def deliver(self, outboxes, graph):
        """Key each sender's message once, then order every receiver's
        neighbors by their senders' keys.  The sort is stable over
        ``graph.neighbors(v)``, so each inbox equals :meth:`inbox`'s."""
        if type(self).inbox is not BroadcastDelivery.inbox:
            return super().deliver(outboxes, graph)  # honour an overridden inbox
        keys = {u: _message_sort_key(message) for u, message in outboxes.items()}
        key_of = keys.__getitem__
        neighbors = graph.neighbors
        inboxes = {}
        for v in graph.nodes:
            inboxes[v] = tuple([outboxes[u] for u in sorted(neighbors(v), key=key_of)])
        return inboxes


class PortDelivery(DeliveryDiscipline):
    """Port-numbered delivery: one payload per port, indexed by the
    receiver's own port numbering."""

    name = "port"

    def emit(self, algorithm, states, graph):
        outboxes = {
            v: list(algorithm.messages(states[v], graph.degree(v)))
            for v in graph.nodes
        }
        for v in graph.nodes:
            if len(outboxes[v]) != graph.degree(v):
                raise RuntimeModelError(
                    f"node {v!r} produced {len(outboxes[v])} messages for "
                    f"{graph.degree(v)} ports"
                )
        return outboxes

    def inbox(self, outboxes, node, graph):
        return tuple(
            outboxes[u][graph.neighbor_to_port(u, node)]
            for u in graph.ports(node)
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Outcome of running an algorithm on a graph.

    Attributes
    ----------
    outputs:
        Output per node; nodes that never decided are absent.
    rounds:
        Rounds actually executed.
    all_decided:
        Whether every node produced an output (a *successful* run).
    trace:
        Full per-round record (``None`` when tracing was disabled).
    metrics:
        Instrumentation for the run (``None`` only for results built by
        code outside the engine).
    """

    outputs: dict[Node, Any]
    rounds: int
    all_decided: bool
    trace: ExecutionTrace | None
    metrics: ExecutionMetrics | None = None

    @property
    def successful(self) -> bool:
        """The paper's success notion: every node decided within the
        rounds the run could fund (alias of ``all_decided``)."""
        return self.all_decided

    def output_labeling(self) -> dict[Node, Any]:
        """The output labeling ``o``; raises if some node is undecided."""
        if not self.all_decided:
            missing = self.rounds  # for the message only
            raise RuntimeModelError(
                f"execution did not decide every node within {missing} rounds"
            )
        return dict(self.outputs)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def _wall_clock() -> float:
    """Seconds for ``wall_s``, a metrics-only field stripped from
    canonical results."""
    return time.perf_counter()  # repro-lint: disable=DET001 -- wall-time metric only


def _output_changed(
    node: Node, before: Any, value: Any, round_number: int
) -> OutputAlreadySetError:
    """The error for a node that decided ``before`` and now outputs
    ``value`` (``value is None or value != before``).

    The single source of truth for output enforcement: an output may
    never change once set — not to a different value and not back to
    ``None`` — and violations name the node, both values and the round,
    whichever delivery discipline or entry point is running.
    """
    return OutputAlreadySetError(
        f"node {node!r} changed its irrevocable output from "
        f"{before!r} to {value!r} in round {round_number}"
    )


class ExecutionEngine:
    """The single synchronous round kernel behind every execution."""

    def __init__(
        self,
        algorithm: Any,
        graph: LabeledGraph,
        tapes: Mapping[Node, BitSource],
        delivery: DeliveryDiscipline,
        policy: ExecutionPolicy | None = None,
        hooks: Sequence[RoundHook] = (),
    ) -> None:
        missing = [v for v in graph.nodes if v not in tapes]
        if missing:
            raise RuntimeModelError(f"no bit source for nodes {missing!r}")
        self._algorithm = algorithm
        self._graph = graph
        self._tapes = dict(tapes)
        self._delivery = delivery
        self._policy = policy or ExecutionPolicy()
        self._hooks = list(hooks)
        plan, self._payloads_per_round = graph._run_plan()
        init_state = algorithm.init_state
        self._states: dict[Node, Any] = {
            v: init_state(label, degree) for v, label, degree in plan
        }
        self._outputs: dict[Node, Any] = {}
        self._rounds = 0
        self._trace = (
            ExecutionTrace(algorithm.name) if self._policy.trace != "off" else None
        )
        self._metrics = ExecutionMetrics()
        # Outputs may be decided already at round 0 (initialization).
        initial = self._note_outputs({})
        self._metrics.decided_per_round.append(len(initial))

    # ------------------------------------------------------------------

    @property
    def algorithm(self) -> Any:
        return self._algorithm

    @property
    def graph(self) -> LabeledGraph:
        return self._graph

    @property
    def delivery(self) -> DeliveryDiscipline:
        return self._delivery

    @property
    def policy(self) -> ExecutionPolicy:
        return self._policy

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def all_decided(self) -> bool:
        return len(self._outputs) == self._graph.num_nodes

    @property
    def metrics(self) -> ExecutionMetrics:
        return self._metrics

    def state_of(self, node: Node) -> Any:
        return self._states[node]

    def add_hook(self, hook: RoundHook) -> None:
        self._hooks.append(hook)

    def swap_graph(self, new_graph: LabeledGraph) -> None:
        """Replace the topology between rounds (dynamic networks).

        The node set must be invariant — states, tapes and outputs are
        keyed by node and survive the swap untouched; only delivery (and
        the per-round payload accounting) sees the new edges, starting
        with the next ``step()``.  Called by the topology hooks of
        :mod:`repro.dynamic`; the kernel itself knows nothing about
        churn semantics.
        """
        if new_graph.nodes != self._graph.nodes:
            raise RuntimeModelError(
                "swap_graph requires an invariant node set: "
                f"{self._graph.num_nodes} nodes became {new_graph.num_nodes} "
                "or the node identities changed"
            )
        self._graph = new_graph
        self._payloads_per_round = new_graph._run_plan()[1]

    def can_fund_round(self) -> bool:
        """Whether every node's tape can pay for one more round."""
        need = self._algorithm.bits_per_round
        return all(tape.remaining(need) for tape in self._tapes.values())

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one synchronous round."""
        if self._policy.stop_before_unfunded and not self.can_fund_round():
            raise RuntimeModelError(
                "cannot step: some node's bit tape is exhausted"
            )
        self._step()

    def _step(self) -> None:
        """One round, its funding already checked by the caller."""
        graph, algorithm = self._graph, self._algorithm
        states, tapes = self._states, self._tapes
        need = algorithm.bits_per_round
        transition = algorithm.transition
        outboxes = self._delivery.emit(algorithm, states, graph)
        inboxes = self._delivery.deliver(outboxes, graph)
        bits_drawn: dict[Node, str] = {}
        new_states: dict[Node, Any] = {}
        for v in graph.nodes:
            bits = bits_drawn[v] = tapes[v].draw(need)
            new_states[v] = transition(states[v], inboxes[v], bits)
        self._states = new_states
        self._rounds += 1
        new_outputs = self._note_outputs(bits_drawn)
        self._metrics.rounds += 1
        self._metrics.messages_sent += self._payloads_per_round
        self._metrics.bits_drawn += need * graph.num_nodes
        self._metrics.decided_per_round.append(len(new_outputs))
        if self._trace is not None:
            record = (
                RoundRecord(self._rounds, dict(outboxes), bits_drawn, new_outputs)
                if self._policy.trace == "full"
                else RoundRecord(self._rounds, {}, {}, new_outputs)
            )
            self._trace.rounds.append(record)
        for hook in self._hooks:
            hook.on_round(self, new_outputs)

    def _note_outputs(self, bits_drawn: dict[Node, str]) -> dict[Node, Any]:
        """Register newly decided nodes, enforcing irrevocability
        (:func:`_output_changed`)."""
        new_outputs: dict[Node, Any] = {}
        output, states, outputs = self._algorithm.output, self._states, self._outputs
        for v in self._graph.nodes:
            value = output(states[v])
            if v in outputs:
                if value is None or value != outputs[v]:
                    raise _output_changed(v, outputs[v], value, self._rounds)
            elif value is not None:
                outputs[v] = value
                new_outputs[v] = value
        return new_outputs

    def run(self, max_rounds: int | None = None) -> ExecutionResult:
        """Run until all nodes decide, tapes run dry, or the round limit."""
        if max_rounds is None:
            max_rounds = self._policy.max_rounds
        if max_rounds < 0:
            raise RuntimeModelError(f"max_rounds must be nonnegative, got {max_rounds}")
        start = _wall_clock()
        for hook in self._hooks:
            hook.on_start(self)
        funding_rule = self._policy.stop_before_unfunded
        while (
            not self.all_decided
            and self._rounds < max_rounds
            and (not funding_rule or self.can_fund_round())
        ):
            self._step()
        self._metrics.wall_s += _wall_clock() - start
        result = ExecutionResult(
            outputs=dict(self._outputs),
            rounds=self._rounds,
            all_decided=self.all_decided,
            trace=self._trace,
            metrics=self._metrics,
        )
        for collector in _COLLECTORS:
            collector.absorb(self._metrics)
        for hook in self._hooks:
            hook.on_finish(self, result)
        return result


# ----------------------------------------------------------------------
# The high-level entry point
# ----------------------------------------------------------------------

# Ambient fault injection (see repro.faults.context).  The engine knows
# nothing about fault semantics: repro.faults registers a zero-argument
# provider here on import, and execute() asks it for the active
# injection, if any, letting that injection wrap the resolved delivery,
# tapes and hooks.  When repro.faults is never imported the provider
# stays None and execute() pays a single `is None` check.
_INJECTION_PROVIDER: Any | None = None


def register_injection_provider(provider: Any) -> None:
    """Install the callable yielding the active fault injection (or
    ``None``).  Called once by :mod:`repro.faults.context` on import."""
    global _INJECTION_PROVIDER
    _INJECTION_PROVIDER = provider


# Ambient topology churn (see repro.dynamic.context), same shape as the
# fault provider: repro.dynamic registers a zero-argument provider on
# import, and execute() asks it for the active churn context, if any,
# letting that context append its per-execution TopologyHook.  Faults
# and churn compose: fault decisions key on (round, receiver, sender)
# and never on the edge set, so the two wrappers are orthogonal.
_TOPOLOGY_PROVIDER: Any | None = None


def register_topology_provider(provider: Any) -> None:
    """Install the callable yielding the active churn context (or
    ``None``).  Called once by :mod:`repro.dynamic.context` on import."""
    global _TOPOLOGY_PROVIDER
    _TOPOLOGY_PROVIDER = provider


def _infer_delivery(algorithm: Any) -> DeliveryDiscipline:
    from repro.runtime.port_model import PortAwareAlgorithm

    if isinstance(algorithm, PortAwareAlgorithm):
        return PortDelivery()
    if isinstance(algorithm, AnonymousAlgorithm):
        return BroadcastDelivery()
    # Duck-typed algorithms (tests build minimal ones): port-aware ones
    # have per-port `messages`, broadcast ones a single `message`.
    if hasattr(algorithm, "messages") and not hasattr(algorithm, "message"):
        return PortDelivery()
    return BroadcastDelivery()


def _induced_bits_per_round(algorithm: Any) -> int:
    """The algorithm's ``bits_per_round``, which a simulation induced by
    an assignment needs to be positive."""
    bits_per_round = algorithm.bits_per_round
    if bits_per_round == 0:
        raise SimulationError(
            "simulations induced by an assignment require a randomized "
            "algorithm (bits_per_round >= 1); deterministic algorithms "
            "run via execute() with no randomness source"
        )
    return bits_per_round


def _assignment_tapes(
    algorithm: Any, graph: LabeledGraph, assignment: Mapping[Node, str]
) -> tuple[dict[Node, BitSource], int]:
    """Each node's tape replaying its bits of ``assignment``, and the
    number of rounds the shortest of them funds."""
    missing = [v for v in graph.nodes if v not in assignment]
    if missing:
        raise SimulationError(f"assignment does not cover nodes {missing!r}")
    bits_per_round = _induced_bits_per_round(algorithm)
    tapes: dict[Node, BitSource] = {v: FixedTape(assignment[v]) for v in graph.nodes}
    return tapes, min(len(assignment[v]) // bits_per_round for v in graph.nodes)


def execute(
    algorithm: Any,
    graph: LabeledGraph,
    *,
    tapes: Mapping[Node, BitSource] | None = None,
    assignment: Mapping[Node, str] | None = None,
    seed: int | None = None,
    delivery: DeliveryDiscipline | None = None,
    max_rounds: int | None = None,
    record_trace: "bool | str | None" = None,
    require_decided: bool = False,
    policy: ExecutionPolicy | None = None,
    hooks: Sequence[RoundHook] = (),
) -> ExecutionResult:
    """Run ``algorithm`` on ``graph`` through the unified kernel.

    Randomness comes from exactly one of:

    * ``seed`` — a seeded randomized execution with per-node recording
      tapes, so ``result.trace.assignment()`` replays it;
    * ``assignment`` — the paper's *simulation induced by b* (Section
      2.2): each node replays its fixed bitstring and the run lasts at
      most ``l = min_v floor(|b(v)| / bits_per_round)`` rounds;
    * ``tapes`` — explicit per-node :class:`~repro.runtime.tape.BitSource`s;
    * none of them — a deterministic run (``bits_per_round == 0``).

    ``delivery`` defaults to the discipline matching the algorithm type
    (port-aware algorithms get :class:`PortDelivery`, broadcast ones
    :class:`BroadcastDelivery`).  ``record_trace`` accepts a bool or a
    trace level; it defaults to ``"off"`` for assignment-induced
    simulations (they run in bulk inside searches) and ``"full"``
    otherwise.  ``require_decided=True`` raises
    :class:`~repro.exceptions.SimulationError` unless every node decided
    — the Las-Vegas contract for seeded and deterministic runs.
    """
    given = [name for name, value in
             (("tapes", tapes), ("assignment", assignment), ("seed", seed))
             if value is not None]
    if len(given) > 1:
        raise SimulationError(
            f"pass at most one randomness source, got {' and '.join(given)}"
        )

    bits_per_round = algorithm.bits_per_round
    funded_limit: int | None = None
    if assignment is not None:
        tapes, funded_limit = _assignment_tapes(algorithm, graph, assignment)
    elif seed is not None:
        tapes = {
            v: RecordingTape(RandomTape(seed * 1_000_003 + index))
            for index, v in enumerate(graph.nodes)
        }
    elif tapes is None:
        if bits_per_round != 0:
            raise SimulationError(
                f"{algorithm.name} is randomized (bits_per_round="
                f"{bits_per_round}); pass seed=, assignment= or tapes="
            )
        tapes = {v: FixedTape("") for v in graph.nodes}

    if policy is None:
        trace = _trace_level(
            record_trace, default="off" if assignment is not None else "full"
        )
    delivery = delivery or _infer_delivery(algorithm)
    injection = _INJECTION_PROVIDER() if _INJECTION_PROVIDER is not None else None
    if injection is not None:
        delivery, tapes, hooks = injection.wrap(delivery, tapes, graph, hooks)
    # An assignment funds exactly ``funded_limit`` rounds and the run
    # stops there, so the kernel's per-round funding check is already
    # discharged (fault-wrapped tapes keep it).
    funded = funded_limit is not None and injection is None
    if policy is None:
        policy = ExecutionPolicy(trace=trace, stop_before_unfunded=not funded)
    elif funded and policy.stop_before_unfunded:
        policy = replace(policy, stop_before_unfunded=False)
    limit = policy.max_rounds if max_rounds is None else max_rounds
    if funded_limit is not None:
        limit = funded_limit if max_rounds is None else min(limit, funded_limit)
    if _TOPOLOGY_PROVIDER is not None:
        churn = _TOPOLOGY_PROVIDER()
        if churn is not None:
            hooks = [*hooks, churn.hook_for(graph)]

    engine = ExecutionEngine(
        algorithm,
        graph,
        tapes,
        delivery=delivery,
        policy=policy,
        hooks=hooks,
    )
    result = engine.run(max_rounds=limit)
    if require_decided and not result.all_decided:
        suffix = f" with seed {seed}" if seed is not None else ""
        raise SimulationError(
            f"{algorithm.name} did not terminate within {limit} rounds "
            f"on {graph!r}{suffix}"
        )
    return result


def ambient_context_active() -> bool:
    """Whether a fault injection or churn context is active, so that an
    :func:`execute` call started now would be wrapped by it."""
    return (_INJECTION_PROVIDER is not None and _INJECTION_PROVIDER() is not None) or (
        _TOPOLOGY_PROVIDER is not None and _TOPOLOGY_PROVIDER() is not None
    )


class Branches:
    """The one-round continuations of one snapshot of a simulation
    induced by an assignment (see :func:`fork`).

    Every continuation shares the snapshot's round: the nodes' messages
    and inboxes depend only on the snapshot, and a node's new state only
    on its state, its inbox and its own bits.  So the snapshot's outputs
    are computed on first use, its outboxes and inboxes on the first
    continuation that runs a round, and each node's ``transition`` and
    ``output`` once per distinct bit chunk; a continuation whose chunks
    are all known is a table lookup.  The ``wall_s`` the continuations
    report is the time spent computing the snapshot's round and the
    table, not the lookups.
    """

    __slots__ = (
        "_algorithm", "_graph", "_per_round", "_states", "_rounds", "_interned",
        "_outputs", "_decided", "_inboxes", "_table",
        "_executions", "_extended", "_nodes_decided", "_wall_s",
    )

    def __init__(
        self,
        algorithm: Any,
        graph: LabeledGraph,
        states: Sequence[Any] | None,
        rounds: int,
        interned: dict,
    ) -> None:
        self._algorithm = algorithm
        self._graph = graph
        self._per_round = _induced_bits_per_round(algorithm)
        if states is not None and len(states) != graph.num_nodes:
            raise RuntimeModelError(
                f"snapshot has {len(states)} states for {graph.num_nodes} nodes"
            )
        self._states: tuple[Any, ...] | None = None if states is None else tuple(states)
        self._rounds = rounds
        self._interned = interned
        self._outputs: list[Any] | None = None  # the snapshot's, in node order
        self._decided = 0
        self._inboxes: list[tuple[Any, ...]] | None = None
        # Per node: bit chunk -> (new state, 1 if it decides else 0).
        self._table: list[dict[int, tuple[Any, int]]] = []
        # Continuations since the last absorb(), and those that ran a round.
        self._executions = self._extended = self._nodes_decided = 0
        self._wall_s = 0.0

    def extend(self, chunks: Sequence[int] | None) -> tuple[int, tuple[Any, ...]]:
        """One continuation: every node draws its ``chunks`` entry (an
        integer below ``2 ** bits_per_round``, in ``graph.nodes`` order)
        as the bits of one new round; ``None`` funds no round.  Like
        :func:`execute`, no round runs once every node has decided.

        Returns the number of decided nodes and every node's state
        afterwards, in node order.  Irrevocability is enforced as by the
        kernel, with the same error.  Each call counts as one execution
        (see :meth:`absorb`)."""
        if self._outputs is None:
            self._settle()
        table = self._table
        if chunks is None or self._decided == len(table):
            decided, states = self._decided, self._states
        else:
            if len(chunks) != len(table):
                raise RuntimeModelError(f"{len(chunks)} bit chunks for {len(table)} nodes")
            row = [entries.get(chunk) for entries, chunk in zip(table, chunks)]
            if None in row:
                row = self._fill(chunks)
            states = tuple([state for state, _decides in row])
            decided = sum([decides for _state, decides in row])
            self._extended += 1
        self._executions += 1
        self._nodes_decided += decided
        return decided, states

    def absorb(self) -> None:
        """Hand every continuation since the last call to every active
        collector, each as one execution of the rounds it ran."""
        rounds = self._extended
        messages = rounds * self._graph._run_plan()[1]
        bits = rounds * self._per_round * len(self._table)
        for collector in _COLLECTORS:
            collector.executions += self._executions
            collector.rounds += rounds
            collector.messages_sent += messages
            collector.bits_drawn += bits
            collector.nodes_decided += self._nodes_decided
            collector.wall_s += self._wall_s
        self._executions = self._extended = self._nodes_decided = 0
        self._wall_s = 0.0

    def _settle(self) -> None:
        """The snapshot's states (the initial ones by default) and outputs."""
        start = _wall_clock()
        plan = self._graph._run_plan()[0]
        if self._states is None:
            init_state = self._algorithm.init_state
            self._states = tuple([init_state(label, degree) for _v, label, degree in plan])
        output = self._algorithm.output
        self._outputs = [output(state) for state in self._states]
        self._decided = sum([value is not None for value in self._outputs])
        self._table = [{} for _ in plan]
        self._wall_s += _wall_clock() - start

    def _fill(self, chunks: Sequence[int]) -> list[tuple[Any, int]]:
        """The table entries of ``chunks``, computing the missing ones in
        the kernel's order: every transition of the round before any
        output."""
        start = _wall_clock()
        algorithm, graph, states, table = self._algorithm, self._graph, self._states, self._table
        interned = self._interned
        if self._inboxes is None:
            delivery = _infer_delivery(algorithm)
            outboxes = delivery.emit(algorithm, dict(zip(graph.nodes, states)), graph)
            self._inboxes = list(delivery.deliver(outboxes, graph).values())
        width = self._per_round
        new_states: dict[int, Any] = {}
        for index, chunk in enumerate(chunks):
            if chunk not in table[index]:
                if not 0 <= chunk < 1 << width:
                    raise RuntimeModelError(f"bit chunk {chunk!r} does not fit in {width} bits")
                state = algorithm.transition(
                    states[index], self._inboxes[index], format(chunk, f"0{width}b")
                )
                new_states[index] = _intern(interned, state)
        row = []
        for index, chunk in enumerate(chunks):
            entry = table[index].get(chunk)
            if entry is None:
                state = new_states[index]
                value, before = algorithm.output(state), self._outputs[index]
                if before is not None and (value is None or value != before):
                    raise _output_changed(graph.nodes[index], before, value, self._rounds + 1)
                entry = table[index][chunk] = (state, int(value is not None))
            row.append(entry)
        self._wall_s += _wall_clock() - start
        return row


def _intern(table: dict, state: Any) -> Any:
    """The first state stored in ``table`` equal to ``state`` (``state``
    itself when it is new or unhashable)."""
    try:
        return table.setdefault(state, state)
    except TypeError:
        return state


def fork(
    algorithm: Any,
    graph: LabeledGraph,
    states: Sequence[Any] | None,
    rounds: int,
    interned: dict,
) -> Branches:
    """The one-round continuations of a simulation induced by an
    assignment, from a snapshot.

    ``states`` is every node's state after ``rounds`` rounds, in
    ``graph.nodes`` order (``None``: the initial states, with
    ``rounds == 0``).  Each :meth:`Branches.extend` call continues the
    snapshot by one round with given bits and counts as one execution:
    :meth:`Branches.absorb` hands the calls to every active collector.
    Every new state is interned by value in ``interned``, a table the
    caller may share between forks so that equal states share one object
    (the purity contract of
    :class:`~repro.runtime.algorithm.AnonymousAlgorithm` makes that
    safe); unhashable states are kept as they are.  The
    continuations are untraced and hook-free, so :func:`fork` refuses to
    start while a fault injection or churn context is active
    (:func:`ambient_context_active`); run such executions through
    :func:`execute` from round 0.
    """
    if ambient_context_active():
        raise RuntimeModelError(
            "cannot fork under an active fault injection or churn context; "
            "use execute()"
        )
    return Branches(algorithm, graph, states, rounds, interned)
