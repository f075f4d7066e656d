"""Symmetry diagnostics — the substance of the impossibility experiments.

Angluin's lifting argument (paper Section 1.3): on a graph with a
nontrivial factor, every deterministic anonymous execution is constant
on fibers, so problems requiring a unique distinguished node (leader
election, unique IDs) are deterministically unsolvable; with Las-Vegas
randomness the impossibility persists on such graphs because a lifted
execution occurs with positive probability.  The helpers here measure
how much a graph's view classes collapse and decide whether deterministic
election is ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.labeled_graph import LabeledGraph
from repro.views.refinement import refinement_indices


@dataclass(frozen=True)
class ViewClassProfile:
    """How the nodes of a graph fall into view-equivalence classes."""

    num_nodes: int
    num_classes: int
    class_sizes: tuple[int, ...]


def view_class_profile(graph: LabeledGraph) -> ViewClassProfile:
    """The view-class profile of a labeled graph."""
    _, colors = refinement_indices(graph)
    sizes = [0] * (max(colors) + 1)
    for c in colors:
        sizes[c] += 1
    return ViewClassProfile(
        num_nodes=graph.num_nodes,
        num_classes=len(sizes),
        class_sizes=tuple(sorted(sizes, reverse=True)),
    )


def election_is_deterministically_impossible(graph: LabeledGraph) -> bool:
    """Whether deterministic anonymous leader election is impossible on
    this labeled graph.

    A deterministic anonymous algorithm's output is a function of the
    node's infinite view, so it is constant on view classes; a class of
    size ``>= 2`` therefore can never contain exactly one leader.  (The
    converse — solvability when all classes are singletons — also holds:
    output "leader" iff one's view is the minimal one.)
    """
    profile = view_class_profile(graph)
    return profile.num_classes < profile.num_nodes
