"""Section 4: the bridge to Boldi-Vigna fibrations.

A 2-hop colored undirected graph ``G = (V, E, c)`` has a *directed (edge
colored) representation* ``H = (V, E', c')``: every undirected edge
``(u, v)`` becomes two directed edges, and the directed edge ``u -> v``
is colored ``<c(u), c(v)>``.  The paper observes that ``H`` is

* *symmetric* — every edge has its reverse, and
* *deterministically colored* — the out-edges of any node carry pairwise
  distinct colors, with the coloring *respecting the symmetry* (the
  reverse of a ``<c1, c2>`` edge is colored ``<c2, c1>``),

and that fibrations between directed representations correspond exactly
to factorizing maps between the underlying 2-hop colored graphs.  This
module constructs representations and checks all of those statements so
the SEC4 experiment can validate the correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.exceptions import FactorError, LabelingError
from repro.graphs.coloring import is_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.factor.factorizing_map import FactorizingMap

DirectedEdge = tuple[Node, Node]


@dataclass(frozen=True)
class DirectedRepresentation:
    """An edge-colored directed graph ``H = (V', E', c')``.

    ``edge_colors`` maps each directed edge to its color.  Node labels of
    the source graph are *not* carried over — Section 4 works purely with
    the edge coloring derived from the 2-hop node coloring.
    """

    nodes: tuple[Node, ...]
    edges: frozenset[DirectedEdge]
    edge_colors: Mapping[DirectedEdge, tuple]

    def out_edges(self, v: Node) -> list[DirectedEdge]:
        return sorted((e for e in self.edges if e[0] == v), key=repr)


def directed_representation(graph: LabeledGraph) -> DirectedRepresentation:
    """The directed edge-colored representation of a 2-hop colored graph
    (its ``color`` layer)."""
    coloring = graph.layer("color")
    if not is_two_hop_coloring(graph, coloring):
        raise LabelingError(
            "layer 'color' is not a 2-hop coloring; the directed "
            "representation is only defined for 2-hop colored graphs"
        )
    edges: set[DirectedEdge] = set()
    colors: dict[DirectedEdge, tuple] = {}
    for u, v in graph.edges():
        edges.add((u, v))
        edges.add((v, u))
        colors[(u, v)] = (coloring[u], coloring[v])
        colors[(v, u)] = (coloring[v], coloring[u])
    return DirectedRepresentation(
        nodes=graph.nodes, edges=frozenset(edges), edge_colors=colors
    )


def is_symmetric_representation(rep: DirectedRepresentation) -> bool:
    """Whether every directed edge has its reverse present."""
    return all((v, u) in rep.edges for (u, v) in rep.edges)


def is_deterministic_coloring(rep: DirectedRepresentation) -> bool:
    """Whether every node's out-edges carry pairwise distinct colors."""
    for v in rep.nodes:
        colors = [rep.edge_colors[e] for e in rep.out_edges(v)]
        if len(set(colors)) != len(colors):
            return False
    return True


def coloring_respects_symmetry(rep: DirectedRepresentation) -> bool:
    """Whether the reverse of a ``<c1, c2>`` edge is colored ``<c2, c1>``."""
    for (u, v) in rep.edges:
        c = rep.edge_colors[(u, v)]
        if rep.edge_colors[(v, u)] != (c[1], c[0]):
            return False
    return True


def is_fibration(
    total: DirectedRepresentation,
    base: DirectedRepresentation,
    mapping: Mapping[Node, Node],
) -> bool:
    """Whether ``mapping`` is a (surjective, color-preserving) fibration.

    For deterministically colored symmetric representations this is the
    directed counterpart of a factorizing map: for every node ``v`` of
    the total graph, the out-edges of ``v`` map bijectively and
    color-preservingly onto the out-edges of ``mapping(v)``.
    """
    image = {mapping[v] for v in total.nodes}
    if image != set(base.nodes):
        return False
    for v in total.nodes:
        out_v = total.out_edges(v)
        out_image = base.out_edges(mapping[v])
        colors_v = sorted(repr(total.edge_colors[e]) for e in out_v)
        colors_image = sorted(repr(base.edge_colors[e]) for e in out_image)
        if colors_v != colors_image:
            return False
        for (src, dst) in out_v:
            lifted_color = total.edge_colors[(src, dst)]
            # The unique base out-edge with this color must end at the
            # image of dst (uniqueness by deterministic coloring).
            matches = [
                e for e in out_image if base.edge_colors[e] == lifted_color
            ]
            if len(matches) != 1 or matches[0][1] != mapping[dst]:
                return False
    return True


def fibration_to_factorizing_map(
    product: LabeledGraph,
    factor: LabeledGraph,
    mapping: Mapping[Node, Node],
) -> FactorizingMap:
    """Validate ``mapping`` as a fibration of directed representations and
    return the corresponding verified factorizing map (Section 4's
    correspondence, in the fibration -> factorizing map direction)."""
    rep_total = directed_representation(product)
    rep_base = directed_representation(factor)
    if not is_fibration(rep_total, rep_base, mapping):
        raise FactorError(
            "mapping is not a fibration of the directed representations"
        )
    return FactorizingMap(product, factor, mapping)
