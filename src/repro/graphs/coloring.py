"""k-hop colorings: validation and centralized reference constructions.

A labeling ``c`` is a *k-hop coloring* of ``G`` when any two distinct
nodes at hop distance at most ``k`` receive different colors (paper
Section 1.1).  The 2-hop case is the paper's central object: it makes
every closed neighborhood rainbow, which is exactly what the
derandomization machinery needs (distinct sibling marks in local views,
Lemma 2's injectivity).

The *distributed randomized* 2-hop coloring algorithm lives in
``repro.algorithms.two_hop_coloring``; here we provide centralized
(greedy) constructions used as fixtures and baselines, plus validators.
"""

from __future__ import annotations


from repro.exceptions import LabelingError
from repro.graphs.labeled_graph import Label, LabeledGraph, Node


def k_hop_conflicts(
    graph: LabeledGraph, coloring: dict[Node, Label], k: int
) -> list[tuple[Node, Node]]:
    """All pairs of distinct nodes within ``k`` hops sharing a color.

    An empty result certifies that ``coloring`` is a k-hop coloring.
    """
    if k < 1:
        raise LabelingError(f"k must be at least 1, got {k}")
    missing = [v for v in graph.nodes if v not in coloring]
    if missing:
        raise LabelingError(f"coloring does not cover nodes {missing!r}")
    conflicts = []
    for v in graph.nodes:
        for u in graph.nodes_within(v, k):
            if u != v and coloring[u] == coloring[v]:
                pair = tuple(sorted((u, v), key=repr))
                conflicts.append(pair)
    return sorted(set(conflicts), key=repr)


def is_k_hop_coloring(graph: LabeledGraph, coloring: dict[Node, Label], k: int) -> bool:
    """Whether ``coloring`` is a valid k-hop coloring of ``graph``."""
    if k == 2:
        return is_two_hop_coloring(graph, coloring)
    return not k_hop_conflicts(graph, coloring, k)


# Exact label types whose hashing agrees with ``==`` (equal values hash
# alike, and every value equals itself), so a set finds repeats exactly.
_HASH_EXACT = frozenset((int, str, bool, bytes, type(None)))


def _rainbow(labels: list) -> bool:
    """No two labels compare equal, by pairwise ``==`` either way round."""
    return not any(
        a == b or b == a for i, a in enumerate(labels) for b in labels[i + 1 :]
    )


def is_two_hop_coloring(graph: LabeledGraph, coloring: dict[Node, Label]) -> bool:
    """Whether ``coloring`` is a valid 2-hop coloring (the paper's case).

    Two distinct nodes are within 2 hops exactly when some closed
    neighbourhood ``N[v]`` holds both, so this checks that every
    ``N[v]`` is rainbow: one pass over the adjacency instead of a
    2-hop ball per node.  It agrees with ``k_hop_conflicts(graph,
    coloring, 2) == []`` for every label type: a set finds repeats only
    among labels whose hashing agrees with ``==``, and pairwise ``==``
    decides the rest (unhashable labels, ``nan``, user types).
    """
    missing = [v for v in graph.nodes if v not in coloring]
    if missing:
        raise LabelingError(f"coloring does not cover nodes {missing!r}")
    if frozenset(type(coloring[v]) for v in graph.nodes) <= _HASH_EXACT:
        for v in graph.nodes:
            neighbors = graph.neighbors(v)
            colors = {coloring[u] for u in neighbors}
            colors.add(coloring[v])
            if len(colors) <= len(neighbors):
                return False
        return True
    return all(
        _rainbow([coloring[v], *(coloring[u] for u in graph.neighbors(v))])
        for v in graph.nodes
    )


def greedy_k_hop_coloring(graph: LabeledGraph, k: int) -> dict[Node, int]:
    """A centralized greedy k-hop coloring with colors ``0, 1, 2, ...``.

    Processes nodes in sorted order and gives each the smallest color not
    used within ``k`` hops.  Uses at most ``Delta^k + 1`` colors.  This is
    a *fixture generator*, not an anonymous algorithm — minimizing colors
    is NP-complete (McCormick, cited in the paper) and irrelevant here:
    the paper explicitly does not care about the number of colors.
    """
    if k < 1:
        raise LabelingError(f"k must be at least 1, got {k}")
    coloring: dict[Node, int] = {}
    for v in graph.nodes:
        taken = {
            coloring[u]
            for u in graph.nodes_within(v, k)
            if u != v and u in coloring
        }
        color = 0
        while color in taken:
            color += 1
        coloring[v] = color
    return coloring


def greedy_two_hop_coloring(graph: LabeledGraph) -> dict[Node, int]:
    """Centralized greedy 2-hop coloring (see :func:`greedy_k_hop_coloring`)."""
    return greedy_k_hop_coloring(graph, 2)


def apply_two_hop_coloring(
    graph: LabeledGraph, coloring: dict[Node, Label], layer: str = "color"
) -> LabeledGraph:
    """Attach ``coloring`` as a layer after validating it is 2-hop proper."""
    if not is_two_hop_coloring(graph, coloring):
        conflicts = k_hop_conflicts(graph, coloring, 2)
        raise LabelingError(
            f"not a 2-hop coloring; conflicting pairs: {conflicts[:5]!r}"
            + ("..." if len(conflicts) > 5 else "")
        )
    return graph.with_layer(layer, coloring)


def num_colors(coloring: dict[Node, Label]) -> int:
    """Number of distinct colors used."""
    return len(set(coloring.values()))
