"""The anonymous-algorithm interface.

An :class:`AnonymousAlgorithm` is a pure state machine executed
identically by every node:

* ``init_state(input_label, degree)`` — the state before round 1.  The
  input label is whatever the instance's labeling gives the node (the
  paper assumes it includes the degree; the runtime also passes the
  degree explicitly since it is structural).
* ``message(state)`` — the value broadcast to *all* neighbors this round.
* ``transition(state, received, bits)`` — the next state, given the
  *sorted tuple* of received neighbor messages (a canonical multiset —
  anonymity means a node cannot tell which neighbor sent what beyond the
  message contents) and this round's random bits as a ``"01"`` string of
  length ``bits_per_round``.
* ``output(state)`` — ``None`` while undecided, else the irrevocable
  output.  The engine enforces irrevocability.

Purity (no hidden per-node mutable context, all entropy via ``bits``) is
what makes executions replayable from a bit assignment and liftable along
factorizing maps.  States are values: ``transition`` returns a new state
and never mutates its argument, and equal states behave alike, so the
assignment search interns states by value and computes each distinct
``(state, inbox, bits)`` step once for all of its trials.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import Any

Message = Any
State = Any


class AnonymousAlgorithm(ABC):
    """Base class for anonymous message-passing algorithms.

    Attributes
    ----------
    bits_per_round:
        Random bits consumed by every node in every round.  ``0`` makes
        the algorithm deterministic.  The paper's model grants one bit
        per round and notes that any finite number is equivalent
        (Section 1.1); we allow the constant to be chosen per algorithm.
    name:
        Human-readable identifier used in traces and experiment tables.
    """

    bits_per_round: int = 1
    name: str = "anonymous-algorithm"

    @abstractmethod
    def init_state(self, input_label: Any, degree: int) -> State:
        """The node state before the first round."""

    @abstractmethod
    def message(self, state: State) -> Message:
        """The value this node broadcasts to every neighbor this round."""

    @abstractmethod
    def transition(self, state: State, received: tuple[Message, ...], bits: str) -> State:
        """The next state.  ``received`` is the canonical (sorted) tuple of
        neighbor messages; ``bits`` is a string over ``{'0','1'}`` of
        length ``bits_per_round``."""

    @abstractmethod
    def output(self, state: State) -> Any | None:
        """``None`` while undecided; otherwise the node's irrevocable output."""

    @property
    def is_deterministic(self) -> bool:
        return self.bits_per_round == 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, bits_per_round={self.bits_per_round})"


class RandomizedShell(AnonymousAlgorithm):
    """A deterministic algorithm viewed as a (bit-ignoring) randomized one.

    Deterministic algorithms are a special case of randomized ones, but
    the machinery around "simulations induced by b" insists on
    ``bits_per_round >= 1`` (an assignment must fund rounds).  This
    wrapper declares one bit per round and discards it, making any
    deterministic algorithm acceptable to that machinery without
    touching its semantics.
    """

    def __init__(self, inner: AnonymousAlgorithm) -> None:
        if not inner.is_deterministic:
            raise ValueError(
                f"{inner.name} is already randomized; wrap deterministic "
                "algorithms only"
            )
        self.inner = inner
        self.bits_per_round = 1
        self.name = f"randomized-shell({inner.name})"

    def init_state(self, input_label: Any, degree: int) -> State:
        return self.inner.init_state(input_label, degree)

    def message(self, state: State) -> Message:
        return self.inner.message(state)

    def transition(self, state: State, received: tuple[Message, ...], bits: str) -> State:
        return self.inner.transition(state, received, "")

    def output(self, state: State) -> Any | None:
        return self.inner.output(state)


def randomized_shell(algorithm: AnonymousAlgorithm) -> AnonymousAlgorithm:
    """``algorithm`` unchanged if randomized, else its RandomizedShell."""
    if algorithm.is_deterministic:
        return RandomizedShell(algorithm)
    return algorithm


class FunctionAlgorithm(AnonymousAlgorithm):
    """Adapter building an algorithm from four functions.

    Convenient for tests and tiny examples::

        alg = FunctionAlgorithm(
            init=lambda label, deg: 0,
            msg=lambda s: s,
            step=lambda s, received, bits: s + sum(received),
            out=lambda s: s if s > 10 else None,
            bits_per_round=0,
        )
    """

    def __init__(
        self,
        init: Callable[[Any, int], State],
        msg: Callable[[State], Message],
        step: Callable[[State, tuple[Message, ...], str], State],
        out: Callable[[State], Any | None],
        bits_per_round: int = 0,
        name: str = "function-algorithm",
    ) -> None:
        self._init = init
        self._msg = msg
        self._step = step
        self._out = out
        self.bits_per_round = bits_per_round
        self.name = name

    def init_state(self, input_label: Any, degree: int) -> State:
        return self._init(input_label, degree)

    def message(self, state: State) -> Message:
        return self._msg(state)

    def transition(self, state: State, received: tuple[Message, ...], bits: str) -> State:
        return self._step(state, received, bits)

    def output(self, state: State) -> Any | None:
        return self._out(state)
