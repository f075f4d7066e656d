"""Frequency assignment in an anonymous radio mesh.

The paper cites frequency assignment in radio networks as the classic
application of 2-hop colorings (two transmitters sharing a frequency
must not have a common neighbor, or their transmissions collide at the
receiver).  This example models a randomly deployed mesh of identical,
unidentified radio nodes and assigns frequencies with the anonymous
randomized 2-hop coloring algorithm — then reduces the (bitstring)
colors to small frequency numbers with the greedy-by-color stage.

Run:  python examples/frequency_assignment.py
"""

from __future__ import annotations

import random

from repro import (
    LabeledGraph,
    TwoHopColoringAlgorithm,
    execute,
    is_two_hop_coloring,
)
from repro.algorithms.greedy_by_color import GreedyColoringByColor
from repro.graphs.coloring import apply_two_hop_coloring, num_colors


def deploy_mesh(num_nodes: int, radio_range: float, seed: int) -> LabeledGraph:
    """Random geometric-style deployment: nodes on a unit square, edges
    between nodes within radio range; resampled until connected."""
    rng = random.Random(seed)
    for _attempt in range(200):
        positions = {
            v: (rng.random(), rng.random()) for v in range(num_nodes)
        }
        edges = [
            (u, v)
            for u in range(num_nodes)
            for v in range(u + 1, num_nodes)
            if _dist(positions[u], positions[v]) <= radio_range
        ]
        try:
            graph = LabeledGraph(edges, nodes=range(num_nodes))
        except Exception:
            continue
        graph = graph.with_layer(
            "input", {v: (graph.degree(v), "radio") for v in graph.nodes}
        )
        return graph
    raise RuntimeError("could not deploy a connected mesh; increase range")


def _dist(a, b) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5


def main() -> None:
    mesh = deploy_mesh(num_nodes=24, radio_range=0.35, seed=7)
    print(f"deployed mesh: {mesh.num_nodes} radios, {mesh.num_edges} links")

    # Stage 1 — anonymous randomized 2-hop coloring (interference-free
    # "raw channels", but as unboundedly long bitstrings).
    run = execute(TwoHopColoringAlgorithm(), mesh, seed=3, require_decided=True)
    assert is_two_hop_coloring(mesh, run.outputs)
    print(
        f"2-hop coloring found in {run.rounds} rounds; "
        f"{num_colors(run.outputs)} distinct raw colors, longest "
        f"{max(len(c) for c in run.outputs.values())} bits"
    )

    # Stage 2 — deterministic frequency compaction: greedy reduction to
    # small integers in color order (distinct within 1 hop; for strict
    # 2-hop distinctness the raw colors can be kept).
    colored = apply_two_hop_coloring(mesh, run.outputs)
    reduced = execute(GreedyColoringByColor(), colored, require_decided=True)
    frequencies = reduced.outputs
    print(
        f"compacted to {num_colors(frequencies)} frequencies in "
        f"{reduced.rounds} deterministic rounds"
    )

    # Report the channel map.
    by_frequency: dict = {}
    for v, f in sorted(frequencies.items()):
        by_frequency.setdefault(f, []).append(v)
    for f in sorted(by_frequency):
        print(f"  frequency {f}: radios {by_frequency[f]}")

    # Collision check at the MAC layer: adjacent radios never share.
    for u, v in mesh.edges():
        assert frequencies[u] != frequencies[v]
    print("no adjacent radios share a frequency — assignment is collision-free")


if __name__ == "__main__":
    main()
