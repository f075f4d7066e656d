"""Canonical bitstring encodings of ordered labeled graphs.

The A* algorithm (paper Section 3.1) totally orders finite view graphs
by ``|V|`` first and then lexicographically on a bitstring representation
``s(G)`` that encodes "the ordinal number and label of every node as well
as every edge".  This module implements that representation for an
arbitrary labeled graph together with an explicit node ordering.

The encoding is a printable string (Python strings compare
lexicographically, which is all the total order needs); it is injective
on (graph, ordering) pairs: two ordered labeled graphs receive equal
encodings if and only if the ordering is a label- and
adjacency-preserving isomorphism between them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.exceptions import GraphError
from repro.graphs.labeled_graph import LabeledGraph, Node, _freeze


def _serialize_label(label: Any) -> str:
    """Deterministic serialization of one (frozen) label value.

    The value is length-prefixed with a fixed-width decimal so that no
    serialized label is a proper prefix of another.  That guarantees that
    sorting labels lexicographically also minimizes their comma-joined
    concatenation, which :func:`canonical_encoding` relies on when it
    prunes the ordering search to label-sorted orderings.
    """
    body = repr(_freeze(label))
    return f"{len(body):08d}:{body}"


def encode_ordered_graph(graph: LabeledGraph, order: Sequence[Node]) -> str:
    """The encoding ``s(G)`` relative to the node ordering ``order``.

    Layout: ``n=<k>;L=<label_0>,...;E=<i-j>,...`` where labels appear in
    ordinal order and edges as sorted ordinal pairs in sorted order.
    """
    if sorted(order, key=repr) != sorted(graph.nodes, key=repr):
        raise GraphError("order must be a permutation of the node set")
    index = {v: i for i, v in enumerate(order)}
    labels = ",".join(_serialize_label(graph.label(v)) for v in order)
    edge_pairs = sorted(
        tuple(sorted((index[u], index[v]))) for u, v in graph.edges()
    )
    edges = ",".join(f"{i}-{j}" for i, j in edge_pairs)
    return f"n={graph.num_nodes};L={labels};E={edges}"


def canonical_encoding(graph: LabeledGraph) -> str:
    """The minimal encoding over all node orderings — a canonical form.

    Exhaustive over orderings, so intended for the small graphs the
    faithful A* machinery manipulates (quotients are tiny); on prime
    graphs :func:`repro.core.orders.finite_view_graph_sort_key` encodes
    in the polynomial canonical node order instead.

    Uses label-class pruning: only orderings consistent with a stable
    partition by (label, degree) can be minimal, which keeps the search
    tractable for the graph sizes A* actually enumerates.
    """
    nodes = list(graph.nodes)
    if len(nodes) > 9:
        raise GraphError(
            f"canonical_encoding is exhaustive and limited to 9 nodes, got {len(nodes)}"
        )
    best: str | None = None
    for order in _orderings_grouped_by_class(graph, nodes):
        encoding = encode_ordered_graph(graph, order)
        if best is None or encoding < best:
            best = encoding
    assert best is not None
    return best


def _orderings_grouped_by_class(graph: LabeledGraph, nodes: list) -> "list[list[Node]]":
    """All orderings in which serialized labels appear in non-decreasing
    order; only permutations within an equal-label class vary.  This is
    sound because the encoding lists labels before edges, so the
    lexicographically minimal encoding necessarily sorts the label
    sequence — restricting the search to label-sorted orderings cannot
    miss the minimum.
    """
    import itertools

    def class_key(v: Node) -> str:
        return _serialize_label(graph.label(v))

    groups: dict = {}
    for v in nodes:
        groups.setdefault(class_key(v), []).append(v)
    keys = sorted(groups)
    class_perms = [list(itertools.permutations(groups[key])) for key in keys]
    orderings = []
    for combo in itertools.product(*class_perms):
        ordering: list = []
        for chunk in combo:
            ordering.extend(chunk)
        orderings.append(ordering)
    return orderings
