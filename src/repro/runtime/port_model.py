"""The port-numbering model, and its emulation over broadcast + colors.

The paper's model grants each node a local numbering of its incident
edges, but remarks (end of Section 1.3) that *"port numbers are not
necessary under the assumption of randomized algorithms … by including
the sender's color in every message missing port numbers can be
emulated."*  This module makes both halves executable:

* :class:`PortAwareAlgorithm` — a native port-numbering algorithm: a
  node sends a (possibly different) message on each port and receives
  messages indexed by port.  :func:`repro.runtime.engine.execute` runs
  it on the unified kernel with
  :class:`~repro.runtime.engine.PortDelivery`, which it picks
  automatically for port-aware algorithms.
* :func:`emulate_ports` — an adapter compiling a port-aware algorithm
  into a broadcast :class:`~repro.runtime.algorithm.AnonymousAlgorithm`
  for 2-hop colored instances: virtual port ``i`` of a node is its
  ``i``-th neighbor in color order (colors in a closed neighborhood are
  distinct, so this is well-defined); messages are broadcast as
  ``(sender color, {target color: payload})`` and receivers select their
  own entry and attribute it to the sender-color port.

The equivalence test in the suite runs the same port-aware algorithm
natively (with color-order port numbering) and emulated, and checks the
outputs coincide — reproducing the paper's remark as a theorem about
this codebase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.exceptions import RuntimeModelError
from repro.runtime.algorithm import AnonymousAlgorithm


class PortAwareAlgorithm(ABC):
    """An anonymous algorithm in the port-numbering model.

    Same contract as :class:`AnonymousAlgorithm` except that messaging is
    per-port: ``messages(state, degree)`` returns one payload per port
    (length = degree) and ``transition`` receives the tuple of payloads
    indexed by *this node's* ports.
    """

    bits_per_round: int = 0
    name: str = "port-aware-algorithm"

    @abstractmethod
    def init_state(self, input_label: Any, degree: int) -> Any: ...

    @abstractmethod
    def messages(self, state: Any, degree: int) -> Sequence[Any]:
        """The payload to send on each port, in port order."""

    @abstractmethod
    def transition(self, state: Any, received: tuple[Any, ...], bits: str) -> Any:
        """``received[i]`` is the payload that arrived on port ``i``."""

    @abstractmethod
    def output(self, state: Any) -> Any | None: ...


# ----------------------------------------------------------------------
# Emulation over broadcast + colors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _EmulationState:
    phase: str  # "hello" | "steady"
    color: Any
    neighbor_colors: tuple[Any, ...]  # sorted; index = virtual port
    inner: Any


def _color_key(color: Any) -> tuple[str, str]:
    return (type(color).__name__, repr(color))


class PortEmulation(AnonymousAlgorithm):
    """A broadcast algorithm emulating a port-aware one via colors.

    Requires the composed node label to be ``(input_label, color)`` with
    the color layer a 2-hop coloring.  One extra "hello" round exchanges
    colors; afterwards every emulated round costs one broadcast round.
    Virtual port order is ascending neighbor-color order.
    """

    def __init__(self, inner: PortAwareAlgorithm) -> None:
        self.inner = inner
        self.bits_per_round = inner.bits_per_round
        self.name = f"port-emulation({inner.name})"

    def init_state(self, input_label: Any, degree: int) -> _EmulationState:
        real_input, color = input_label
        return _EmulationState(
            phase="hello",
            color=color,
            neighbor_colors=(),
            inner=self.inner.init_state(real_input, degree),
        )

    def message(self, state: _EmulationState):
        if state.phase == "hello":
            return ("hello", state.color)
        payloads = self.inner.messages(state.inner, len(state.neighbor_colors))
        if len(payloads) != len(state.neighbor_colors):
            raise RuntimeModelError(
                f"{self.inner.name} produced {len(payloads)} messages for "
                f"{len(state.neighbor_colors)} virtual ports"
            )
        return (
            "data",
            state.color,
            tuple(
                (target_color, payload)
                for target_color, payload in zip(state.neighbor_colors, payloads)
            ),
        )

    def transition(self, state: _EmulationState, received, bits: str) -> _EmulationState:
        if state.phase == "hello":
            colors = tuple(
                sorted((message[1] for message in received), key=_color_key)
            )
            if len(set(colors)) != len(colors):
                raise RuntimeModelError(
                    "neighbor colors collide; the color layer is not a "
                    "2-hop coloring"
                )
            return _EmulationState(
                phase="steady",
                color=state.color,
                neighbor_colors=colors,
                inner=state.inner,
            )
        by_port: dict[int, Any] = {}
        port_of = {c: i for i, c in enumerate(state.neighbor_colors)}
        for message in received:
            _tag, sender_color, addressed = message
            port = port_of[sender_color]
            for target_color, payload in addressed:
                if target_color == state.color:
                    by_port[port] = payload
                    break
        inbox = tuple(by_port[i] for i in range(len(state.neighbor_colors)))
        new_inner = self.inner.transition(state.inner, inbox, bits)
        return _EmulationState(
            phase="steady",
            color=state.color,
            neighbor_colors=state.neighbor_colors,
            inner=new_inner,
        )

    def output(self, state: _EmulationState) -> Any | None:
        if state.phase == "hello":
            return None
        return self.inner.output(state.inner)


def emulate_ports(inner: PortAwareAlgorithm) -> PortEmulation:
    """Compile a port-aware algorithm into its broadcast emulation.

    The returned :class:`PortEmulation` runs on 2-hop colored instances
    (labels ``(input_label, color)``) and pays exactly one extra "hello"
    round — including one extra draw of ``bits_per_round`` bits per node,
    discarded during the hello exchange.
    """
    return PortEmulation(inner)
