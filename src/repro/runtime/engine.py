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

The kernel stops before any round some node's tape cannot fund, records
a full trace unless told not to, and reports an :class:`ExecutionMetrics`
record on every result.

:func:`execute` is the one entry point the rest of the library uses; it
picks the delivery discipline from the algorithm type and the
bit sources from whichever of ``seed`` / ``assignment`` / ``tapes`` is
given.
"""

from __future__ import annotations

import hashlib
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import Any

from repro.exceptions import (
    OutputAlreadySetError,
    RuntimeModelError,
    SimulationError,
)
from repro.graphs.labeled_graph import _ATOMS, LabeledGraph, Node, _freeze
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.port_model import PortAwareAlgorithm
from repro.runtime.tape import BitSource, FixedTape, RandomTape, RecordingTape
from repro.runtime.trace import ExecutionTrace, RoundRecord

# The round budget of a run given none.
DEFAULT_MAX_ROUNDS = 10_000


def _plain(value: tuple) -> bool:
    """Whether an exact tuple nests only exact tuples and atoms."""
    for item in value:
        kind = type(item)
        if kind not in _ATOMS and (kind is not tuple or not _plain(item)):
            return False
    return True


def _message_sort_key(message: Any) -> str:
    """The canonical order key of a message (or any payload) in an
    anonymous multiset: ``repr`` of its frozen form.  An exact tuple
    that nests only exact tuples and atoms freezes to an equal tuple, so
    its own ``repr`` is the key."""
    if type(message) is tuple and _plain(message):
        return repr(message)
    return repr(_freeze(message))


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

    A lexicographic search's continuation of a failed prefix trial
    (:mod:`repro.core.assignment_search`) has no record of its own;
    collectors count it as one execution of the rounds it simulated
    (none or one), with ``nodes_decided`` the total.
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
    """The single synchronous round kernel behind every execution.

    ``trace=False`` records no trace (``result.trace is None``); a trace
    holds every round's messages, bits and newly decided outputs.
    """

    def __init__(
        self,
        algorithm: Any,
        graph: LabeledGraph,
        tapes: Mapping[Node, BitSource],
        delivery: DeliveryDiscipline,
        trace: bool = True,
        hooks: Sequence[RoundHook] = (),
    ) -> None:
        missing = [v for v in graph.nodes if v not in tapes]
        if missing:
            raise RuntimeModelError(f"no bit source for nodes {missing!r}")
        self._algorithm = algorithm
        self._graph = graph
        self._tapes = dict(tapes)
        self._delivery = delivery
        self._hooks = tuple(hooks)
        plan, self._payloads_per_round = graph._run_plan()
        init_state = algorithm.init_state
        self._states: dict[Node, Any] = {
            v: init_state(label, degree) for v, label, degree in plan
        }
        self._outputs: dict[Node, Any] = {}
        self._rounds = 0
        self._trace = ExecutionTrace(algorithm.name) if trace else None
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
        if not self.can_fund_round():
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
            self._trace.rounds.append(
                RoundRecord(self._rounds, dict(outboxes), bits_drawn, new_outputs)
            )
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
        """Run until all nodes decide, tapes run dry, or the round limit
        (:data:`DEFAULT_MAX_ROUNDS` when ``max_rounds`` is ``None``)."""
        return self._run(DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds, True)

    def _run(self, max_rounds: int, check_funding: bool) -> ExecutionResult:
        """:meth:`run`; ``check_funding=False`` when every round below
        ``max_rounds`` is known to be funded."""
        if max_rounds < 0:
            raise RuntimeModelError(f"max_rounds must be nonnegative, got {max_rounds}")
        start = _wall_clock()
        for hook in self._hooks:
            hook.on_start(self)
        while (
            not self.all_decided
            and self._rounds < max_rounds
            and (not check_funding or self.can_fund_round())
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

# Ambient contexts: ``inject_faults`` (repro.faults) and ``apply_churn``
# (repro.dynamic) push a context onto one stack for the length of their
# block.  The engine knows nothing of their semantics: execute() lets
# the innermost active context of each kind wrap the resolved delivery,
# tapes and hooks through its ``wrap(delivery, tapes, graph, hooks)``,
# kinds in nesting order.  Faults and churn compose: fault decisions key
# on (round, receiver, sender) and never on the edge set, so the two
# wrappers are orthogonal.
_ACTIVE: list[Any] = []


@contextmanager
def ambient_context(context: Any) -> Iterator[Any]:
    """Make ``context`` active for every :func:`execute` call in the
    block; yields ``context``."""
    _ACTIVE.append(context)
    try:
        yield context
    finally:
        for index in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[index] is context:
                del _ACTIVE[index]
                break


def _wrapping_contexts() -> list[Any]:
    """The innermost active context of each kind, outermost first."""
    kinds: set[type] = set()
    chosen = []
    for context in reversed(_ACTIVE):
        if type(context) not in kinds:
            kinds.add(type(context))
            chosen.append(context)
    return chosen[::-1]


class KeyedSchedule:
    """The decisions of a seeded plan, each a keyed hash.

    A decision hashes ``(plan_seed, kind, *coordinates)`` with SHA-256
    and scales the leading 64 bits to ``[0, 1)``, so any decision can be
    asked for in any order, any number of times, and always answers the
    same.  The fault and churn schedules share it; ``plan`` carries
    ``plan_seed`` and the ``first_round``/``last_round`` window.
    """

    def __init__(self, plan: Any) -> None:
        self.plan = plan

    def _fraction(self, kind: str, *coords: Any) -> float:
        key = "\x1f".join([str(self.plan.plan_seed), kind, *map(str, coords)])
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def in_window(self, round_number: int) -> bool:
        if round_number < self.plan.first_round:
            return False
        last = self.plan.last_round
        return last is None or round_number <= last


def check_plan(plan: Any, rate_fields: Sequence[str], error: type[Exception]) -> None:
    """Raise ``error`` unless every rate of ``plan`` lies in ``[0, 1]``
    and its ``first_round``/``last_round`` window is well formed."""
    for name in rate_fields:
        rate = getattr(plan, name)
        if not 0.0 <= rate <= 1.0:
            raise error(f"{name} must lie in [0, 1], got {rate!r}")
    if plan.first_round < 1:
        raise error(f"first_round must be >= 1, got {plan.first_round}")
    if plan.last_round is not None and plan.last_round < plan.first_round:
        raise error(
            f"last_round {plan.last_round} precedes first_round {plan.first_round}"
        )


def _infer_delivery(algorithm: Any) -> DeliveryDiscipline:
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
    rounds = _funded_rounds(algorithm, graph, assignment)
    tapes: dict[Node, BitSource] = {v: FixedTape(assignment[v]) for v in graph.nodes}
    return tapes, rounds


def _funded_rounds(algorithm: Any, graph: LabeledGraph, assignment: Mapping[Node, str]) -> int:
    """The rounds ``l = min_v floor(|b(v)| / bits_per_round)`` that
    ``assignment``, which must cover every node, funds."""
    missing = [v for v in graph.nodes if v not in assignment]
    if missing:
        raise SimulationError(f"assignment does not cover nodes {missing!r}")
    bits_per_round = _induced_bits_per_round(algorithm)
    return min(len(assignment[v]) // bits_per_round for v in graph.nodes)


def execute(
    algorithm: Any,
    graph: LabeledGraph,
    *,
    tapes: Mapping[Node, BitSource] | None = None,
    assignment: Mapping[Node, str] | None = None,
    seed: int | None = None,
    delivery: DeliveryDiscipline | None = None,
    max_rounds: int | None = None,
    record_trace: bool | None = None,
    require_decided: bool = False,
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
    :class:`BroadcastDelivery`).  ``record_trace`` defaults to no trace
    for assignment-induced simulations (they run in bulk inside
    searches) and a full trace otherwise.  ``max_rounds`` defaults to
    :data:`DEFAULT_MAX_ROUNDS`.  ``require_decided=True`` raises
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

    if not (record_trace is None or isinstance(record_trace, bool)):
        raise RuntimeModelError(f"record_trace must be a bool or None, got {record_trace!r}")
    delivery = delivery or _infer_delivery(algorithm)
    hooks: Sequence[RoundHook] = ()
    funded_tapes = tapes
    if _ACTIVE:  # bare runs skip the per-kind scan and its temporaries
        for context in _wrapping_contexts():
            delivery, tapes, hooks = context.wrap(delivery, tapes, graph, hooks)
    limit = DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds
    if funded_limit is not None:
        limit = funded_limit if max_rounds is None else min(limit, funded_limit)

    engine = ExecutionEngine(
        algorithm,
        graph,
        tapes,
        delivery=delivery,
        trace=assignment is None if record_trace is None else record_trace,
        hooks=hooks,
    )
    # An assignment funds exactly ``funded_limit`` rounds and the run
    # stops there, so the kernel's per-round funding check is already
    # discharged, unless a context replaced the tapes.
    result = engine._run(limit, funded_limit is None or tapes is not funded_tapes)
    if require_decided and not result.all_decided:
        suffix = f" with seed {seed}" if seed is not None else ""
        raise SimulationError(
            f"{algorithm.name} did not terminate within {limit} rounds "
            f"on {graph!r}{suffix}"
        )
    return result


def ambient_context_active() -> bool:
    """Whether an ambient context is active, so that an :func:`execute`
    call started now would be wrapped by it."""
    return bool(_ACTIVE)


def _absorb_all(
    executions: int, rounds: int, messages_sent: int, bits_drawn: int,
    nodes_decided: int, wall_s: float,
) -> None:
    """Hand executions that ran outside :meth:`ExecutionEngine.run` to
    every active collector."""
    for collector in _COLLECTORS:
        collector.executions += executions
        collector.rounds += rounds
        collector.messages_sent += messages_sent
        collector.bits_drawn += bits_drawn
        collector.nodes_decided += nodes_decided
        collector.wall_s += wall_s


class _NotInternable(Exception):
    """A trial the memo cannot play: a port algorithm's, or one whose
    state or message cannot be interned."""


_UNSET = object()  # an output not computed yet

# A trial memo is cleared between trials once it holds more than this
# many transitions per node: a trial's reuse is almost all in its first
# rounds, and the later rounds' transitions are rarely met again.
_TRANSITIONS_PER_NODE = 128


def _gather(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """The tuple of a sequence's entries at ``positions``, in that order."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda items: (items[only],)
    return lambda items: ()


class TrialMemo:
    """The interned round kernel of one assignment search.

    Every trial of a search is a simulation induced by an assignment
    (Section 2.2) on one graph, and the purity contract of
    :class:`~repro.runtime.algorithm.AnonymousAlgorithm` makes a node's
    next state a function of its state, its inbox and its bits, with
    equal states behaving alike.  The memo interns:

    * states by value; each state caches its message and output;
    * messages by their sort key, the canonical order key of delivery,
      computed once per state.  A message stands for one value and one
      delivery class (``True`` and ``1`` have different keys); two
      unequal messages with one key cannot be interned;
    * transitions by ``(state id, bits, *inbox keys)``, the keys sorted,
      which is the order delivery hands the inbox over in.

    :meth:`run` plays a trial from the initial states in one round loop
    of lookups, gathering each node's inbox keys by a precomputed
    :func:`operator.itemgetter`; a miss calls the algorithm on the real
    state and inbox.  The lexicographic search continues its prefix
    snapshots through the same pieces (:meth:`initial_ids`,
    :meth:`inbox_keys`, and the transition table and output cache
    read directly, with :meth:`_transition` and :meth:`_output` on a
    miss; :meth:`target` and :meth:`output` wrap those two), which
    raise :class:`_NotInternable` where the memo cannot play.

    Reuse is almost all in a trial's first rounds, so :meth:`run` clears
    the memo between trials once it holds more than 128 transitions per
    node of the graph.
    """

    def __init__(self, algorithm: Any, graph: LabeledGraph) -> None:
        self.algorithm = algorithm
        self.graph = graph
        position = {v: index for index, v in enumerate(graph.nodes)}
        self._gathers = [_gather([position[u] for u in graph.neighbors(v)]) for v in graph.nodes]
        # Port inboxes are indexed by port, not sorted: those trials replay.
        self._replays = type(_infer_delivery(algorithm)) is not BroadcastDelivery
        self._clear()

    def _clear(self) -> None:
        self._state_ids: dict[Any, int] = {}
        self._states: list[Any] = []
        self._key_of: list[str | None] = []  # each state's message key
        self._output_of: list[Any] = []
        self._messages: dict[str, Any] = {}  # sort key -> message
        self._transitions: dict[tuple, int] = {}
        self._initial: list[int] | None = None

    def run(self, assignment: Mapping[Node, str]) -> bool:
        """Whether the simulation induced by ``assignment`` succeeds,
        reported to every active collector as one execution with the
        counts :func:`execute` reports; it raises what :func:`execute`
        raises.

        A trial the memo cannot play runs through :func:`execute`
        instead: every trial while an ambient context is active or of an
        algorithm that is not a broadcast one, and every trial from the
        first whose state or message cannot be interned on."""
        if self._replays or ambient_context_active():
            return execute(self.algorithm, self.graph, assignment=assignment).successful
        start = _wall_clock()
        graph = self.graph
        limit = _funded_rounds(self.algorithm, graph, assignment)
        bits = [assignment[v] for v in graph.nodes]
        for string in bits:
            if string.strip("01"):
                FixedTape(string)  # raises the tape's error for this bitstring
        if len(self._transitions) > _TRANSITIONS_PER_NODE * graph.num_nodes:
            self._clear()
        try:
            rounds, decided = self._play(bits, limit)
        except _NotInternable:
            self._replays = True
            self._clear()
            return execute(self.algorithm, graph, assignment=assignment).successful
        n = graph.num_nodes
        _absorb_all(
            1, rounds, rounds * graph._run_plan()[1],
            rounds * self.algorithm.bits_per_round * n, decided, _wall_clock() - start,
        )
        return decided == n

    def _play(self, bits: list[str], limit: int) -> tuple[int, int]:
        """``(rounds, decided nodes)`` of one trial, in the kernel's
        order: every message of a round before any transition, and every
        transition before any output."""
        sids = self.initial_ids()
        outputs = self.outputs(sids)
        n = len(sids)
        decided = n - sum([value is None for value in outputs])
        per_round = self.algorithm.bits_per_round
        key_of, output_of, transitions = self._key_of, self._output_of, self._transitions
        steps = list(zip(self._gathers, bits))
        rounds = low = 0
        while decided < n and rounds < limit:
            keys = [key_of[s] or self._message_key(s) for s in sids]
            high = low + per_round
            new = []
            for sid, (gather, string) in zip(sids, steps):
                key = (sid, string[low:high], *sorted(gather(keys)))
                target = transitions.get(key)
                new.append(target if target is not None else self._transition(key))
            sids, low = new, high
            rounds += 1
            for index, sid in enumerate(sids):
                value = output_of[sid]
                if value is _UNSET:
                    value = self._output(sid)
                before = outputs[index]
                if before is None:
                    if value is not None:
                        outputs[index] = value
                        decided += 1
                elif value is None or value != before:
                    raise _output_changed(self.graph.nodes[index], before, value, rounds)
        return rounds, decided

    def initial_ids(self) -> list[int]:
        """Every node's initial state id, in ``graph.nodes`` order;
        :class:`_NotInternable` for a port algorithm."""
        if self._initial is None:
            if self._replays:
                raise _NotInternable
            init_state = self.algorithm.init_state
            self._initial = [
                self._state_id(init_state(label, degree))
                for _v, label, degree in self.graph._run_plan()[0]
            ]
        return self._initial

    def inbox_keys(self, sids: Sequence[int]) -> list[list[str]]:
        """Every node's inbox while the nodes are in states ``sids``: its
        neighbours' message keys, sorted."""
        key_of = self._key_of
        keys = [key_of[s] or self._message_key(s) for s in sids]
        return [sorted(gather(keys)) for gather in self._gathers]

    def target(self, sid: int, chunk: str, inbox: Sequence[str]) -> int:
        """The state id one round on from state ``sid`` for a node that
        receives the sorted message keys ``inbox`` and draws ``chunk``."""
        key = (sid, chunk, *inbox)
        target = self._transitions.get(key)
        return target if target is not None else self._transition(key)

    def outputs(self, sids: Sequence[int]) -> list[Any]:
        """The outputs of states ``sids``, each computed once."""
        return [self.output(s) for s in sids]

    def output(self, sid: int) -> Any:
        """The output of state ``sid``, computed once."""
        value = self._output_of[sid]
        return value if value is not _UNSET else self._output(sid)

    def _state_id(self, state: Any) -> int:
        states = self._states
        try:
            sid = self._state_ids.setdefault(state, len(states))  # hashes once
        except TypeError:  # unhashable
            raise _NotInternable from None
        if sid == len(states):
            states.append(state)
            self._key_of.append(None)
            self._output_of.append(_UNSET)
        return sid

    def _message_key(self, sid: int) -> str:
        message = self.algorithm.message(self._states[sid])
        key = self._key_of[sid] = _message_sort_key(message)
        known = self._messages.setdefault(key, message)
        if known is not message and known != message:
            raise _NotInternable  # unequal messages in one place of the order
        return key

    def _output(self, sid: int) -> Any:
        value = self._output_of[sid] = self.algorithm.output(self._states[sid])
        return value

    def _transition(self, key: tuple) -> int:
        messages = self._messages
        state = self.algorithm.transition(
            self._states[key[0]], tuple([messages[k] for k in key[2:]]), key[1]
        )
        target = self._transitions[key] = self._state_id(state)
        return target
