"""Execution traces: a per-round record of what happened.

Traces serve three purposes: debugging, the lifting-lemma experiments
(comparing a product execution with its factor execution round by
round), and round/bit accounting in the analysis harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.graphs.labeled_graph import Node


@dataclass(frozen=True)
class RoundRecord:
    """One synchronous round.

    Attributes
    ----------
    round_number:
        1-based round index.
    sent:
        Message broadcast by each node this round.
    bits:
        Random bits drawn by each node this round.
    new_outputs:
        Outputs that became set *during* this round.
    """

    round_number: int
    sent: dict[Node, Any]
    bits: dict[Node, str]
    new_outputs: dict[Node, Any]


@dataclass
class ExecutionTrace:
    """The full record of an execution."""

    algorithm_name: str
    rounds: list[RoundRecord] = field(default_factory=list)

    def bits_of(self, node: Node) -> str:
        """All bits node ``node`` drew, concatenated in round order."""
        return "".join(record.bits.get(node, "") for record in self.rounds)

    def assignment(self) -> dict[Node, str]:
        """The bit assignment ``b`` that induces (replays) this execution."""
        nodes: set = set()
        for record in self.rounds:
            nodes.update(record.bits)
        return {node: self.bits_of(node) for node in sorted(nodes, key=repr)}

    def output_round(self, node: Node) -> int | None:
        """The round in which ``node`` set its output, or ``None``."""
        for record in self.rounds:
            if node in record.new_outputs:
                return record.round_number
        return None

    def messages_of(self, node: Node) -> tuple[Any, ...]:
        """The messages ``node`` broadcast, in round order."""
        return tuple(record.sent[node] for record in self.rounds if node in record.sent)
