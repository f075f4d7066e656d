"""The predetermined total orders of Sections 2.1, 2.2 and 3.1.

Everything in the derandomization hinges on all nodes independently
computing the *same* orders:

* **views** — :meth:`repro.views.view_tree.ViewTree.compare` (canonical,
  construction-order independent);
* **node order of a prime graph** — nodes sorted by stable refinement
  class: canonical and relabeling-invariant, but not the order of their
  view aliases (the two differ on a greedily 2-hop colored C10);
* **bit assignments** ``b : V -> {0,1}^t`` — by ``t`` first, then
  lexicographically on the tuple ``(b(w_1), ..., b(w_k))`` under the
  node order;
* **finite view graphs** — by node count, then lexicographically on the
  bitstring encoding ``s(G_*)`` relative to the canonical node order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.exceptions import DerandomizationError
from repro.graphs.encoding import encode_ordered_graph
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.views.refinement import refinement_indices


def canonical_node_order(graph: LabeledGraph) -> list[Node]:
    """The canonical total order on the nodes of a *prime* labeled graph.

    Nodes are ordered by their stable refinement class, numbered in
    signature order; the graph is prime, so classes are distinct (Lemma 4
    / Corollary 1) and the order is total.  The numbering is
    content-derived, hence identical for isomorphic graphs, but it is not
    the :meth:`ViewTree.compare` order of the nodes' aliases (they differ
    on a greedy C10).  Raises :class:`DerandomizationError` if not prime.
    """
    csr, colors = refinement_indices(graph)
    num_classes = max(colors) + 1
    if num_classes != graph.num_nodes:
        raise DerandomizationError(
            "canonical_node_order needs a prime graph; view classes collide "
            f"(n={graph.num_nodes}, classes={num_classes})"
        )
    # Primality makes class numbering a permutation of the node indices:
    # position c in the order is the node of class c.
    order: list[Node] = [None] * num_classes
    nodes = csr.nodes
    for i, c in enumerate(colors):
        order[c] = nodes[i]
    return order


def assignment_sort_key(
    assignment: Mapping[Node, str], node_order: Sequence[Node]
) -> tuple[int, tuple[str, ...]]:
    """Sort key realizing the paper's total order on uniform-length
    assignments: ``b_1 < b_2`` iff ``t_1 < t_2``, or ``t_1 = t_2`` and
    ``(b_1(w_1), ..., b_1(w_k)) <lex (b_2(w_1), ..., b_2(w_k))``."""
    missing = [v for v in node_order if v not in assignment]
    if missing:
        raise DerandomizationError(f"assignment misses nodes {missing!r}")
    lengths = {len(assignment[v]) for v in node_order}
    if len(lengths) != 1:
        raise DerandomizationError(
            "assignment order is defined on uniform-length assignments, "
            f"got lengths {sorted(lengths)!r}"
        )
    return (lengths.pop(), tuple(assignment[v] for v in node_order))


def finite_view_graph_sort_key(graph: LabeledGraph) -> tuple[int, str]:
    """Sort key realizing the order on finite view graphs: ``G_* < G'_*``
    iff ``|V_*| < |V'_*|``, or equal sizes and ``s(G_*) < s(G'_*)``.

    ``s`` is computed relative to the canonical node order, so the key of
    two isomorphic finite view graphs is identical (the encoding is a
    canonical form on prime graphs)."""
    order = canonical_node_order(graph)
    return (graph.num_nodes, encode_ordered_graph(graph, order))
