"""Array-native CSR core: flat int-array kernels behind ``LabeledGraph``.

Every hot loop in this library — color refinement rounds, view-level
extension, quotient construction, BFS distances — iterates edges.  On a
``LabeledGraph`` that means hashing node ids through dicts of tuples and
allocating a Python object per visited neighbor.  :class:`CSRGraph`
removes that overhead: it is a compressed-sparse-row mirror of a graph
built **once per instance** (graphs are immutable, so invalidation is
never) holding nothing but flat ``array('l')`` buffers of dense node
indices plus a per-rank table of the distinct composed labels.  Node
names appear only at the boundary; kernels speak integers.

Memory layout (n nodes, m edges)::

    offsets       array('l'), n+1   CSR row pointers
    targets       array('l'), 2m    neighbor indices, sorted per row
    label_ranks   array('l'), n     composed-label rank per node
    layer_ranks   {name: array}     per-layer label rank per node (on first read)
    adjacency     list[list[int]]   row slices of ``targets`` as lists

The topology arrays (``index``, ``offsets``, ``targets``,
``adjacency``) depend only on the node and edge sets, so a graph
derived by relabeling (``with_layer``, ``without_layer``,
``with_only_layers``, ``with_ports``) shares them with its parent: they
are built once per topology, by whichever graph of the family first
needs a mirror.  Each mirror ranks its own composed labels and has its
own BFS scratch.

``adjacency`` duplicates ``targets`` as Python lists because CPython
iterates a small list faster than an ``array`` slice; the arrays remain
the canonical storage (and what the memory accounting counts).

Label ranks are seeded exactly like the historical refinement palette:
distinct composed labels ordered by ``repr(_freeze(label))``.  This is
what keeps :func:`refine` byte-identical to the original dict-walking
``color_refinement`` — same seed numbering, same per-round renumbering
(the flattened signature tuples ``(own, *sorted(neighbors))`` sort
exactly as the historical nested ``(own, tuple(sorted(neighbors)))``
pairs, first component first, then the neighbor lists lexicographically
with shorter prefixes first).

The BFS kernels use a preallocated visited-stamp buffer with an epoch
counter, so repeated distance/ball queries allocate only their frontier
lists — no per-call ``set`` churn.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.graphs.labeled_graph import _freeze

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.graphs.labeled_graph import LabeledGraph


def _rank_values(values: list) -> tuple[array, list]:
    """Dense ranks for a node-ordered value list, numbered like the
    historical palette: distinct values ordered by ``repr(_freeze(v))``.

    Returns ``(ranks, distinct)`` where ``ranks[i]`` is node ``i``'s rank
    and ``distinct[r]`` is the (first-seen) value of rank ``r``.
    """
    keys = [repr(_freeze(v)) for v in values]
    palette = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    ranks = array("l", map(palette.__getitem__, keys))
    distinct: list = [None] * len(palette)
    filled = 0
    for i, key in enumerate(keys):
        rank = palette[key]
        if distinct[rank] is None:
            distinct[rank] = values[i]
            filled += 1
            if filled == len(palette):
                break
    return ranks, distinct


def _topology_arrays(graph: "LabeledGraph") -> tuple[dict, array, array, list[list[int]]]:
    """``(index, offsets, targets, adjacency)`` of ``graph``'s topology."""
    index = {v: i for i, v in enumerate(graph.nodes)}
    offsets = array("l", [0])
    targets = array("l")
    adjacency: list[list[int]] = []
    ig = index.__getitem__
    for v in graph.nodes:
        row = list(map(ig, graph.neighbors(v)))
        adjacency.append(row)
        targets.extend(row)
        offsets.append(len(targets))
    return index, offsets, targets, adjacency


class CSRGraph:
    """Immutable flat-array mirror of one :class:`LabeledGraph`.

    Built lazily by :func:`csr_of` and memoized on the graph instance.
    Constructing one directly gives a mirror with its own labels and BFS
    scratch, on the topology arrays its graph family shares.
    """

    __slots__ = (
        "nodes",
        "index",
        "num_nodes",
        "offsets",
        "targets",
        "adjacency",
        "label_ranks",
        "label_values",
        "num_labels",
        "_layers",
        "_layer_tables",
        "_visited",
        "_epoch",
    )

    def __init__(self, graph: "LabeledGraph") -> None:
        nodes = graph.nodes
        n = len(nodes)
        shared = graph._topology
        if shared[0] is None:
            shared[0] = _topology_arrays(graph)
        self.index, self.offsets, self.targets, self.adjacency = shared[0]
        self.nodes = nodes
        self.num_nodes = n

        self.label_ranks, self.label_values = _rank_values(
            [graph.label(v) for v in nodes]
        )
        self.num_labels = len(self.label_values)
        # Per-layer ranks are built on first read: no kernel needs them.
        self._layers = graph._layers
        self._layer_tables: tuple[dict[str, array], dict[str, list]] | None = None

        # BFS scratch: a node is visited iff its stamp equals the current
        # epoch, so queries reset state by bumping the counter, not by
        # clearing the buffer.  'q' gives 64-bit stamps — no wraparound.
        self._visited = array("q", bytes(8 * n))
        self._epoch = 0

    def _tables(self) -> tuple[dict[str, array], dict[str, list]]:
        if self._layer_tables is None:
            ranks: dict[str, array] = {}
            values: dict[str, list] = {}
            for name, layer in self._layers.items():
                ranks[name], values[name] = _rank_values([layer[v] for v in self.nodes])
            self._layer_tables = ranks, values
        return self._layer_tables

    @property
    def layer_ranks(self) -> dict[str, array]:
        """Per-layer label rank per node, keyed by layer name."""
        return self._tables()[0]

    @property
    def layer_values(self) -> dict[str, list]:
        """Per-layer distinct labels, indexed by rank."""
        return self._tables()[1]

    # -- BFS kernels -----------------------------------------------------

    def distance_idx(self, source: int, target: int) -> int:
        """Hop distance between two node indices; ``-1`` if unreachable."""
        if source == target:
            return 0
        visited = self._visited
        self._epoch += 1
        epoch = self._epoch
        adjacency = self.adjacency
        visited[source] = epoch
        frontier = [source]
        distance = 0
        while frontier:
            distance += 1
            next_frontier = []
            append = next_frontier.append
            for u in frontier:
                for w in adjacency[u]:
                    if visited[w] != epoch:
                        if w == target:
                            return distance
                        visited[w] = epoch
                        append(w)
            frontier = next_frontier
        return -1

    def within_idx(self, source: int, hops: int) -> list[int]:
        """Indices at distance at most ``hops`` from ``source``, ascending
        (index order is the node sort order, so this matches the sorted
        contract of :meth:`LabeledGraph.nodes_within`)."""
        visited = self._visited
        self._epoch += 1
        epoch = self._epoch
        adjacency = self.adjacency
        visited[source] = epoch
        reached = [source]
        frontier = [source]
        for _ in range(hops):
            next_frontier = []
            append = next_frontier.append
            for u in frontier:
                for w in adjacency[u]:
                    if visited[w] != epoch:
                        visited[w] = epoch
                        append(w)
            if not next_frontier:
                break
            reached.extend(next_frontier)
            frontier = next_frontier
        reached.sort()
        return reached


def csr_of(graph: "LabeledGraph") -> CSRGraph:
    """The memoized :class:`CSRGraph` of ``graph`` (built on first use).

    The mirror lives on the graph instance itself — graphs are immutable,
    so the arrays are valid for the instance's whole lifetime and survive
    :func:`repro.views.view_tree.clear_caches` by design (they hold no
    interned trees, only integers).
    """
    return graph._csr_mirror()


# ----------------------------------------------------------------------
# Color refinement kernels
# ----------------------------------------------------------------------


def refine_step(csr: CSRGraph, color: list[int]) -> tuple[list[int], int]:
    """One refinement round on dense colors: renumber nodes by the
    signature ``(own color, sorted neighbor colors)`` in sorted signature
    order.  Returns ``(new colors, class count)``.

    When the count equals the input partition's, the partition did not
    change and the returned numbering equals the input numbering (each
    signature then starts with a distinct own-color, so sorting preserves
    the numbering) — callers may keep the old list.
    """
    adjacency = csr.adjacency
    cg = color.__getitem__
    signature = [
        (color[i], *sorted(map(cg, adjacency[i]))) for i in range(csr.num_nodes)
    ]
    palette = {sig: rank for rank, sig in enumerate(sorted(set(signature)))}
    return list(map(palette.__getitem__, signature)), len(palette)


def refine(
    csr: CSRGraph, max_rounds: int | None = None
) -> tuple[list[int], int, list[int], bool]:
    """Run color refinement to stability (or a round cap) on the arrays.

    Returns ``(colors, rounds, history, stable)`` with exactly the
    semantics of :func:`repro.views.refinement.color_refinement`: seeded
    by label ranks, one dense renumbering per round, early exit when a
    round splits nothing or the partition is discrete.
    """
    num_nodes = csr.num_nodes
    color = list(csr.label_ranks)
    history = [csr.num_labels]
    rounds = 0
    stable = csr.num_labels == num_nodes  # discrete partitions are stable
    limit = num_nodes if max_rounds is None else max_rounds
    adjacency = csr.adjacency
    node_range = range(num_nodes)
    while not stable and rounds < limit:
        cg = color.__getitem__
        signature = [
            (color[i], *sorted(map(cg, adjacency[i]))) for i in node_range
        ]
        palette = {sig: rank for rank, sig in enumerate(sorted(set(signature)))}
        count = len(palette)
        if count == history[-1]:
            # A round that does not increase the class count leaves the
            # partition unchanged (refinement only splits).
            stable = True
            break
        color = list(map(palette.__getitem__, signature))
        rounds += 1
        history.append(count)
        if count == num_nodes:
            stable = True
    return color, rounds, history, stable
