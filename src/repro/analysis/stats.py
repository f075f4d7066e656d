"""Run statistics for experiment tables.

:class:`RunStats` condenses one execution into the numbers our
experiment tables report: rounds, random bits consumed, and message
volume.  :func:`aggregate` summarizes repetitions (mean / min / max).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime.engine import ExecutionResult


@dataclass(frozen=True)
class RunStats:
    """Cost summary of one execution.

    ``max_message_chars`` approximates the model's message-size notion
    (the paper demands finite messages per round) by the largest
    serialized payload observed; 0 when no trace was recorded.
    """

    rounds: int
    total_bits: int
    total_messages: int
    max_message_chars: int
    decided: bool

    @staticmethod
    def of(graph: LabeledGraph, result: ExecutionResult, bits_per_round: int) -> "RunStats":
        messages = 0
        max_chars = 0
        if result.trace is not None:
            messages = sum(len(record.sent) for record in result.trace.rounds)
            for record in result.trace.rounds:
                for payload in record.sent.values():
                    max_chars = max(max_chars, len(repr(payload)))
        else:
            messages = result.rounds * graph.num_nodes
        return RunStats(
            rounds=result.rounds,
            total_bits=result.rounds * graph.num_nodes * bits_per_round,
            total_messages=messages,
            max_message_chars=max_chars,
            decided=result.all_decided,
        )


@dataclass(frozen=True)
class Aggregate:
    """Mean / min / max over repeated runs."""

    mean_rounds: float
    min_rounds: int
    max_rounds: int
    mean_bits: float
    runs: int

    def __str__(self) -> str:
        return (
            f"rounds {self.mean_rounds:.1f} [{self.min_rounds}, {self.max_rounds}] "
            f"bits {self.mean_bits:.1f} over {self.runs} runs"
        )


def collect_run_stats(
    graph: LabeledGraph, results: Iterable[ExecutionResult], bits_per_round: int
) -> list[RunStats]:
    return [RunStats.of(graph, result, bits_per_round) for result in results]


def aggregate(stats: Iterable[RunStats]) -> Aggregate:
    items = list(stats)
    if not items:
        raise ValueError("aggregate needs at least one run")
    rounds = [s.rounds for s in items]
    bits = [s.total_bits for s in items]
    return Aggregate(
        mean_rounds=sum(rounds) / len(rounds),
        min_rounds=min(rounds),
        max_rounds=max(rounds),
        mean_bits=sum(bits) / len(bits),
        runs=len(items),
    )


def round_distribution(
    rounds: Iterable[int],
) -> dict[str, float]:
    """Percentile summary of round counts across repeated runs."""
    values = sorted(rounds)
    if not values:
        raise ValueError("round_distribution needs at least one run")

    def percentile(q: float) -> float:
        if len(values) == 1:
            return float(values[0])
        position = q * (len(values) - 1)
        low = int(position)
        high = min(low + 1, len(values) - 1)
        fraction = position - low
        return values[low] * (1 - fraction) + values[high] * fraction

    return {
        "min": float(values[0]),
        "p50": percentile(0.5),
        "p90": percentile(0.9),
        "max": float(values[-1]),
        "mean": sum(values) / len(values),
    }
