"""Empirical success-probability curves for bit assignments.

The cost of every search in :mod:`repro.core.assignment_search` is
governed by one quantity: the probability ``p_t`` that a *uniformly
random* assignment of length ``t`` induces a successful simulation.
The lexicographic search expects ``~1/p_t`` trials at the first feasible
``t`` (where ``p_t`` may be astronomically small); the PRG order expects
``~1/p_t`` at a *comfortable* ``t`` (where ``p_t`` is near 1).  This
module measures the curve so the ablation experiments can explain the
orders-of-magnitude gap rather than just exhibit it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import TrialMemo
from repro.runtime.tape import random_bits


@dataclass(frozen=True)
class SuccessCurve:
    """Measured success probabilities by assignment length.

    ``points`` maps ``t`` to the fraction of sampled random assignments
    of length ``t`` whose induced simulation succeeds.
    """

    algorithm_name: str
    graph_nodes: int
    samples_per_length: int
    points: tuple[tuple[int, float], ...]


def measure_success_curve(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    lengths: Sequence[int],
    samples_per_length: int = 200,
    seed: int = 0,
) -> SuccessCurve:
    """Sample random assignments per length and measure success rates,
    every trial played in one :class:`~repro.runtime.engine.TrialMemo`."""
    rng = random.Random(seed)
    memo = TrialMemo(algorithm, graph)
    points: list[tuple[int, float]] = []
    for t in lengths:
        successes = 0
        for _ in range(samples_per_length):
            assignment = {v: random_bits(rng, t) for v in graph.nodes}
            if memo.run(assignment):
                successes += 1
        points.append((t, successes / samples_per_length))
    return SuccessCurve(
        algorithm_name=algorithm.name,
        graph_nodes=graph.num_nodes,
        samples_per_length=samples_per_length,
        points=tuple(points),
    )
