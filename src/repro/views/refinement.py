"""Color refinement — the efficient route to view equivalence.

Explicit depth-``d`` views grow exponentially when expanded; what the
factor machinery actually needs is only the *partition* of nodes by view
equality.  Color refinement (a.k.a. 1-dimensional Weisfeiler-Leman)
computes exactly that partition: seeding every node with its label and
repeatedly re-coloring by (own color, multiset of neighbor colors) yields
after ``d - 1`` rounds the partition by equal ``L_d`` views.  The
equivalence holds because two views are equal iff their root marks agree
and their child *multisets* agree — which is precisely one refinement
step (views are trees with canonically sorted children, so child
sequences are multisets).

The rounds themselves run in :func:`repro.graphs.csr.refine` on the
graph's memoized CSR mirror: colors are a flat int list, each round
gathers neighbor colors through C-level ``map`` over int adjacency rows
and renumbers signatures densely in sorted order.  The canonical
numbering is unchanged from the historical dict-walking implementation
(and from the string encoding before it) — the CSR label ranks seed
exactly like the old ``repr``-sorted palette, and the flattened
signature tuples sort exactly as the old nested pairs.

Two early exits stop the loop: a round that splits nothing (the
partition is stable — the same criterion
:class:`repro.views.local_views.ViewBuilder` uses to stop deepening),
and a discrete partition (every node its own class, trivially stable).

Norris's theorem (paper Theorem 3) appears here as the fact that the
partition is stable after at most ``n - 1`` rounds; the measured
stabilization depth is one of our experiment outputs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.graphs.csr import CSRGraph, csr_of, refine
from repro.graphs.labeled_graph import LabeledGraph, Node

@dataclass(frozen=True)
class RefinementResult:
    """Outcome of running color refinement.

    Attributes
    ----------
    classes:
        Class index per node after the run, as a **read-only** mapping
        (results are values — copy it if you must edit).  Classes are
        numbered ``0, 1, ...`` in a canonical order (sorted by class
        signature history), so two runs on isomorphic graphs number
        corresponding classes equally.
    rounds_to_stable:
        Number of refinement rounds performed until the partition stopped
        changing — or, when a ``max_rounds`` cap cut the run short, until
        the cap (check :attr:`stable`).  For a stable run,
        ``rounds_to_stable + 1`` is the view depth at which views
        determine ``L_∞`` for this graph (compare with Norris's ``n``).
    history:
        Per-round class counts, starting with the initial (label) round.
    stable:
        Whether the returned partition was *verified* stable: a round
        split nothing, or every node sits in its own class.  Uncapped
        runs are always stable; a run capped by ``max_rounds`` may stop
        while the partition is still refining, in which case ``classes``
        is the partition after exactly ``max_rounds`` rounds.
    """

    classes: Mapping[Node, int]
    rounds_to_stable: int
    history: tuple[int, ...]
    stable: bool = True

    @property
    def num_classes(self) -> int:
        return len(set(self.classes.values()))


def color_refinement(
    graph: LabeledGraph, max_rounds: int | None = None
) -> RefinementResult:
    """Run color refinement seeded by node labels until stable.

    ``max_rounds`` optionally caps the rounds (used by the benchmarks to
    observe intermediate partitions); by default refinement runs to
    stability, which takes at most ``n - 1`` rounds.  With a cap the
    result's :attr:`RefinementResult.stable` records whether stability
    was actually reached — a capped run is *not* assumed stable merely
    because it used all its rounds.

    Nothing is memoized: the rounds run on the graph's per-instance CSR
    mirror and cost less than a lookup keyed by the graph would.
    """
    color, rounds, history, stable = refine(csr_of(graph), max_rounds)
    return RefinementResult(
        classes=MappingProxyType(dict(zip(graph.nodes, color))),
        rounds_to_stable=rounds,
        history=tuple(history),
        stable=stable,
    )


def refinement_indices(graph: LabeledGraph) -> tuple[CSRGraph, list[int]]:
    """Stable refinement classes in index space: the graph's CSR mirror
    plus the dense color list (``colors[i]`` is the class of
    ``csr.nodes[i]``).  Array consumers (quotient construction,
    canonical node orders) use this to stay in flat-int land."""
    csr = csr_of(graph)
    return csr, refine(csr)[0]


def refinement_partition(graph: LabeledGraph) -> list[tuple[Node, ...]]:
    """Nodes grouped by stable refinement class (= equal ``L_∞`` views)."""
    csr, colors = refinement_indices(graph)
    groups: list[list[Node]] = [[] for _ in range(max(colors) + 1)]
    nodes = csr.nodes
    for i, c in enumerate(colors):
        groups[c].append(nodes[i])
    return [tuple(group) for group in groups]


def stabilization_depth(graph: LabeledGraph) -> int:
    """The smallest view depth ``d`` with the ``L_d`` partition already
    equal to the ``L_∞`` partition.  Norris's theorem bounds this by
    ``n``; the benches measure how much smaller it typically is."""
    result = color_refinement(graph)
    assert result.stable  # uncapped refinement always reaches stability
    return result.rounds_to_stable + 1
