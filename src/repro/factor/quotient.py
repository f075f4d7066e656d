"""The infinite view graph ``G_∞`` and finite view graph ``G_*``.

``G_∞`` (Definition 1) identifies nodes with equal depth-infinity views;
by Norris's theorem the ``L_∞`` partition equals the ``L_n`` partition,
which color refinement computes directly — so on finite graphs ``G_∞``
and the finite view graph ``G_*`` are the same object up to the
identification ``f_n`` (Corollary 2), and we build both as one quotient.

Quotient node ids are ``0 .. k-1`` in a canonical order (the refinement
class order, which is construction- and node-id-independent), so equal
input graphs always give identical quotients — the property every node
of A_∞/A_* relies on when they must all select the *same* simulation.

For 2-hop colored graphs the quotient is guaranteed to be a factor
(Lemma 2).  For general graphs the quotient projection can fail to be a
local isomorphism (or even produce loops/multi-edges); we then raise
:class:`FactorError` with a diagnosis, since the paper's machinery is
only defined for the 2-hop colored case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FactorError
from repro.graphs.labeled_graph import LabeledGraph
from repro.factor.factorizing_map import FactorizingMap
from repro.views.refinement import refinement_indices
from repro.views.local_views import ViewBuilder
from repro.views.view_tree import ViewTree


@dataclass
class QuotientResult:
    """The quotient of a graph by view equivalence.

    Attributes
    ----------
    graph:
        The quotient graph on nodes ``0 .. k-1`` (canonical class order),
        carrying the same label layers as the input.
    map:
        The infinite view map ``f_∞`` as a verified factorizing map from
        the input onto :attr:`graph`.
    views:
        Optionally, the canonical depth-``n`` view (``L_n``, the node
        alias of Corollary 1) of each quotient node.
    """

    graph: LabeledGraph
    map: FactorizingMap
    views: dict[int, ViewTree] | None = None

    @property
    def is_trivial(self) -> bool:
        """Whether the input was already prime (quotient is an isomorphism)."""
        return self.map.is_isomorphism


def infinite_view_graph(
    graph: LabeledGraph, with_views: bool = False
) -> QuotientResult:
    """The infinite view graph ``G_∞`` of ``graph`` with the map ``f_∞``.

    Raises :class:`FactorError` when the quotient is not a factor — which
    cannot happen for 2-hop colored inputs (Lemma 2), so a raise means
    the input lacks a valid 2-hop coloring among its layers.
    """
    # Refinement classes in index space: ``colors[i]`` is the class of
    # ``csr.nodes[i]``, numbered densely ``0 .. k-1`` in canonical order.
    csr, colors = refinement_indices(graph)
    nodes = csr.nodes
    adjacency = csr.adjacency
    num_classes = max(colors) + 1
    representatives = [-1] * num_classes

    # Quotient edges: class c adjacent to class d iff some member of c has
    # a neighbor in d.  For the projection to be a local isomorphism,
    # *every* member of c must have *exactly one* neighbor in d, and no
    # member may have a neighbor inside its own class (that would force a
    # loop).  We check while building — all of it on flat int lists.
    edges: set[tuple[int, int]] = set()
    add_edge = edges.add
    for i in range(csr.num_nodes):
        c = colors[i]
        if representatives[c] < 0:
            representatives[c] = i
        neighbor_classes = [colors[j] for j in adjacency[i]]
        if c in neighbor_classes:
            raise FactorError(
                f"view quotient is not simple: node {nodes[i]!r} has a neighbor in its "
                "own view class (input is not 2-hop colored)"
            )
        if len(set(neighbor_classes)) != len(neighbor_classes):
            raise FactorError(
                f"view quotient projection is not locally injective at {nodes[i]!r}: "
                "two neighbors share a view class (input is not 2-hop colored)"
            )
        for d in neighbor_classes:
            add_edge((c, d) if c < d else (d, c))

    layers = {
        name: {
            c: graph.label_of(nodes[representatives[c]], name)
            for c in range(num_classes)
        }
        for name in graph.layer_names
    }
    quotient = LabeledGraph(
        sorted(edges),
        nodes=range(num_classes),
        layers=layers,
        check_connected=True,
    )
    factorizing = FactorizingMap(graph, quotient, dict(zip(nodes, colors)))

    views: dict[int, ViewTree] | None = None
    if with_views:
        # The alias of a class is its depth-n view with n = |V_∞|
        # (Corollary 1 applied to the prime quotient).  By Fact 1 the
        # depth-n view of any member computed in the input graph is the
        # same tree, so computing inside the (smaller) quotient is both
        # cheaper and faithful; the tests cross-check the equality.  The
        # builder deepens incrementally and, past the quotient's own
        # stabilization depth, extends levels per view class — so a
        # quotient whose partition stabilizes early does not pay full
        # per-node rounds all the way to depth n.
        depth = quotient.num_nodes
        views = ViewBuilder(quotient).views(depth)

    return QuotientResult(graph=quotient, map=factorizing, views=views)


def finite_view_graph(graph: LabeledGraph) -> QuotientResult:
    """The finite view graph ``G_*`` (Corollary 2: ``G_* ≅ G_∞``), with the
    canonical depth-``n`` views attached as node aliases."""
    return infinite_view_graph(graph, with_views=True)
