"""Fixtures shared by the experiment implementations."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.graphs.lifts import cyclic_lift


def colored(graph: LabeledGraph) -> LabeledGraph:
    """Attach a greedy 2-hop coloring as the ``color`` layer."""
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def lifted_colored_c3(fiber: int) -> tuple[LabeledGraph, LabeledGraph, dict[Node, Node]]:
    """The Figure 2 family: a 2-hop colored C3 and its cyclic lift."""
    base = colored(with_uniform_input(cycle_graph(3)))
    lift, projection = cyclic_lift(base, fiber)
    return base, lift, projection


def status_summary(outcomes: Sequence[Any]) -> str:
    """Compact multi-seed status cell of outcomes with a ``status``,
    e.g. ``"ok:2 error:1"``."""
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return " ".join(f"{status}:{n}" for status, n in sorted(counts.items()))


def fmt_break(rate: float | None) -> str:
    """A sweep's first-break cell: ``-`` when nothing broke."""
    return "-" if rate is None else f"{rate:g}"
