"""Human-readable rendering of execution traces.

The output timeline of an execution — when each node set its
irrevocable output — for the examples.  Output values are abbreviated
so the timeline stays scannable.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.graphs.labeled_graph import sorted_nodes
from repro.runtime.trace import ExecutionTrace


def _abbreviate(value: Any, width: int) -> str:
    text = repr(value)
    if len(text) <= width:
        return text
    return text[: width - 1] + "…"


def render_output_timeline(trace: ExecutionTrace) -> str:
    """One line per node: the round its irrevocable output was set."""
    decided = []
    for record in trace.rounds:
        for v, value in record.new_outputs.items():
            decided.append((record.round_number, v, value))
    if not decided:
        return "(no outputs set)"
    lines = ["output timeline:"]
    # Stable sorts: by round, ties in node order.
    by_node = sorted_nodes(decided, key=itemgetter(1))
    for round_number, v, value in sorted(by_node, key=itemgetter(0)):
        lines.append(f"  round {round_number:>3}: node {v!r} -> {_abbreviate(value, 40)}")
    return "\n".join(lines)
