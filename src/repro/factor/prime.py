"""Primality and factor enumeration.

A labeled graph is *prime* when all of its factors are isomorphic to it
(paper Section 2.3.1).  For 2-hop colored graphs Lemma 3 says the
infinite view graph is the unique prime factor; for general labeled
graphs several non-isomorphic prime factors can coexist — the paper's
example is the uncolored 12-cycle, whose prime factors are the 3-cycle
and the 4-cycle.  :func:`prime_factors` reproduces exactly that.

Factor enumeration is exhaustive over fiber partitions and therefore
meant for small graphs (the paper-scale examples).  It restricts blocks
to view-equivalence classes by Fact 1 (nodes sharing a fiber share their
infinite view), and to 2-hop independent sets because a factorizing map
is a local isomorphism: no two nodes of a fiber are adjacent or share a
neighbour.

A partition that passes both filters is a factor's fibers exactly when
every member of a block sees the same set of neighbour blocks (the
neighbour-block criterion).  2-hop independence makes that exact: no
node is adjacent to its own block, so the quotient has no loops, and no
two neighbours of a node share a block, so the projection is injective
on every neighbourhood.  The projection of a node's neighbourhood is
then its set of neighbour blocks, and the block's neighbourhood in the
quotient is the union of its members' sets; the map is onto it for every
member exactly when those sets agree.  Partitions that fail are
rejected before their quotient is built, and every quotient that is
built is still verified as a :class:`FactorizingMap`.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.exceptions import GraphError
from repro.factor.factorizing_map import FactorizingMap
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.graphs.isomorphism import are_isomorphic
from repro.views.refinement import refinement_indices


def is_prime(graph: LabeledGraph) -> bool:
    """Whether ``graph`` is prime (every factor is an isomorphism).

    Equivalent to its view quotient being trivial *when the quotient is a
    factor* (2-hop colored graphs); in general, primality is decided by
    checking that no nontrivial fiber partition yields a factor.
    """
    return len(all_factors(graph, include_trivial=False)) == 0


def all_factors(
    graph: LabeledGraph, include_trivial: bool = False
) -> list[FactorizingMap]:
    """All factorizing maps out of ``graph``, one per valid fiber partition.

    ``include_trivial`` adds the identity factorization.  Exhaustive —
    use on small graphs only (guarded at 16 nodes).
    """
    if graph.num_nodes > 16:
        raise GraphError(
            f"all_factors is exhaustive and limited to 16 nodes, got {graph.num_nodes}"
        )
    # View classes by color refinement on the CSR mirror (the same path
    # quotient construction takes).
    csr, colors = refinement_indices(graph)
    classes: dict[Node, int] = dict(zip(csr.nodes, colors))
    n = graph.num_nodes
    results: list[FactorizingMap] = []
    for fiber_size in _divisors(n):
        if fiber_size == 1:
            if include_trivial:
                identity = {v: v for v in graph.nodes}
                results.append(FactorizingMap(graph, graph, identity))
            continue
        for partition in _equal_size_partitions(graph, classes, fiber_size):
            factor_map = _partition_to_factor(graph, partition)
            if factor_map is not None:
                results.append(factor_map)
    return results


def prime_factors(graph: LabeledGraph) -> list[LabeledGraph]:
    """The prime factors of ``graph``, deduplicated up to isomorphism.

    A graph that is itself prime has exactly itself as prime factor.
    """
    factors = [m.factor for m in all_factors(graph, include_trivial=True)]
    primes = [candidate for candidate in factors if is_prime(candidate)]
    unique: list[LabeledGraph] = []
    for candidate in primes:
        if not any(are_isomorphic(candidate, existing) for existing in unique):
            unique.append(candidate)
    return unique


# ----------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _equal_size_partitions(
    graph: LabeledGraph, classes: Mapping[Node, int], fiber_size: int
) -> list[list[tuple[Node, ...]]]:
    """All partitions of the node set into blocks of exactly ``fiber_size``
    nodes, where every block stays inside one view class (Fact 1) and is
    2-hop independent (a fiber of a local isomorphism)."""
    nodes = graph.nodes
    within_two_hops = {v: set(graph.nodes_within(v, 2)) for v in nodes}
    partitions: list[list[tuple[Node, ...]]] = []
    blocks: list[list[Node]] = []

    def backtrack(index: int, open_slots: int) -> None:
        if len(nodes) - index < open_slots:
            return  # not enough nodes left to fill the open blocks
        if index == len(nodes):
            partitions.append([tuple(block) for block in blocks])
            return
        first = nodes[index]
        # Join an open block (only the lexicographically first unassigned
        # node may open a block, which avoids generating permutations).
        near = within_two_hops[first]
        for block in blocks:
            if (
                len(block) < fiber_size
                and classes[block[0]] == classes[first]
                and near.isdisjoint(block)
            ):
                block.append(first)
                backtrack(index + 1, open_slots - 1)
                block.pop()
        blocks.append([first])
        backtrack(index + 1, open_slots + fiber_size - 1)
        blocks.pop()

    backtrack(0, 0)
    # The closure refers to itself; breaking the cycle frees the search
    # state now instead of at the next cyclic collection.
    del backtrack
    return partitions


def _partition_to_factor(
    graph: LabeledGraph, partition: list[tuple[Node, ...]]
) -> FactorizingMap | None:
    """The factorizing map onto the quotient of ``graph`` by the 2-hop
    independent ``partition``; ``None``, before anything is built, when
    the partition fails the neighbour-block criterion (module docstring).
    A partition that passes must verify, so a verification error here is
    a bug and propagates."""
    block_of = {v: index for index, block in enumerate(partition) for v in block}
    neighbour_blocks: list[set[int]] = []
    for block in partition:
        seen = {block_of[u] for u in graph.neighbors(block[0])}
        for v in block[1:]:
            if {block_of[u] for u in graph.neighbors(v)} != seen:
                return None
        neighbour_blocks.append(seen)
    layers = {
        name: {index: graph.label_of(block[0], name) for index, block in enumerate(partition)}
        for name in graph.layer_names
    }
    quotient = LabeledGraph(
        sorted((i, j) for i, seen in enumerate(neighbour_blocks) for j in seen if i < j),
        nodes=range(len(partition)),
        layers=layers,
    )
    return FactorizingMap(graph, quotient, block_of)
