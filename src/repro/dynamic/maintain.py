"""Incremental view maintenance: recompute only inside the blast radius.

The views ``L_d(v)`` satisfy the inductive rule the paper builds on:
``L_{k+1}(v)`` is a fresh ``l(v)``-marked root over the multiset
``{L_k(u) : u in N(v)}``.  A delta batch therefore perturbs a sharply
bounded region — the **blast-radius rule**:

* at depth 1 only *relabeled* nodes change (``L_1`` is the bare mark);
* at depth ``k+1`` a node needs recomputation iff it is *dirty* (its
  mark or its neighbor set changed — its inputs are permanently
  different) or one of its *new-graph* neighbors actually changed at
  depth ``k``.

The maintainer keeps one interned tree per (node, depth) and propagates
a *changed front* level by level: dirty nodes are recomputed at every
level, and a recomputation whose interned result is the identical
object stops the propagation through that node — hash-consing makes
"did anything change" an ``is`` check.  Everything outside the front is
reused by identity, which is also what makes the from-scratch oracle
exact: a fresh :class:`~repro.views.local_views.ViewBuilder` over the
same snapshot must produce the *same interned objects*, so
:func:`differential_check` compares object identity and canonical
payload bytes, not just structural equality.

Port renumbering has an *empty* blast radius: views are built from
marks and neighbor sets, never from port numbers, so ``reorder-ports``
deltas leave every tree untouched (and the oracle proves it).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.artifacts.encoders import encode_views
from repro.exceptions import DynamicError
from repro.graphs.csr import csr_of
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.views import view_tree
from repro.views.local_views import ViewBuilder
from repro.views.view_tree import ViewTree


@dataclass(frozen=True)
class UpdateStats:
    """Work accounting for one ``update`` call.

    ``recomputed`` counts ``ViewTree`` constructions inside the blast
    radius; ``reused`` counts (node, depth) slots served by identity
    from the previous state; ``changed`` counts recomputations whose
    result actually differed.  ``recomputed + reused`` always equals
    ``n * depth``.
    """

    recomputed: int
    reused: int
    changed: int

    @property
    def reuse_fraction(self) -> float:
        total = self.recomputed + self.reused
        return self.reused / total if total else 1.0


class DynamicViewMaintainer:
    """Per-node interned view trees for depths ``1 .. depth``, updated
    incrementally as the graph churns.

    Seed it with a snapshot (the initial build rides the shared
    per-class :class:`ViewBuilder` machinery), then feed it each new
    snapshot plus the batch's dirty sets — directly, or automatically
    through :meth:`repro.dynamic.graph.DynamicGraph.maintainer`.
    """

    def __init__(self, graph: LabeledGraph, depth: int) -> None:
        if depth < 1:
            raise DynamicError(f"view depth must be at least 1, got {depth}")
        self.depth = depth
        self._graph = graph
        self._levels: list[list[ViewTree]] = []
        builder = ViewBuilder(graph)
        nodes = graph.nodes
        for level in range(1, depth + 1):
            per_node = builder.views(level)
            self._levels.append([per_node[v] for v in nodes])
        self.updates = 0
        self.total_recomputed = 0
        self.total_reused = 0
        self.last_stats: UpdateStats | None = None

    @property
    def graph(self) -> LabeledGraph:
        """The snapshot the current trees describe."""
        return self._graph

    def views(self, depth: int | None = None) -> dict[Node, ViewTree]:
        """``{v: L_depth(v)}`` on the current snapshot (a fresh dict)."""
        depth = self.depth if depth is None else depth
        if not 1 <= depth <= self.depth:
            raise DynamicError(
                f"maintained depths are 1..{self.depth}, got {depth}"
            )
        return dict(zip(self._graph.nodes, self._levels[depth - 1]))

    def update(
        self,
        new_graph: LabeledGraph,
        relabeled: Sequence[Node] = (),
        touched: Sequence[Node] = (),
    ) -> UpdateStats:
        """Advance to ``new_graph``, recomputing only the blast radius.

        ``relabeled`` are the nodes whose composed label changed and
        ``touched`` the nodes whose incident edge set changed (the two
        dirty sets an :class:`~repro.dynamic.graph.AppliedBatch`
        reports).  Understating them corrupts the state; overstating
        them only wastes recomputation.
        """
        if new_graph.nodes != self._graph.nodes:
            raise DynamicError(
                "incremental maintenance requires an invariant node set: "
                f"{len(self._graph.nodes)} nodes became {len(new_graph.nodes)}"
            )
        csr = csr_of(new_graph)
        index = csr.index
        adjacency = csr.adjacency
        label_ranks = csr.label_ranks
        rank_marks = csr.label_values
        rank_mark_ids = [view_tree._mark_id_of(mark) for mark in rank_marks]
        make = view_tree._make_ranked
        levels = self._levels

        relabeled_idx = sorted(index[v] for v in set(relabeled))
        dirty = sorted(
            {index[v] for v in relabeled}.union(index[v] for v in touched)
        )
        recomputed = 0
        changed_total = 0

        # Depth 1: the bare mark — only relabeled nodes can change.
        front: list[int] = []
        leaves = levels[0]
        for i in relabeled_idx:
            rank = label_ranks[i]
            tree = make(rank_marks[rank], rank_mark_ids[rank], ())
            recomputed += 1
            if tree is not leaves[i]:
                leaves[i] = tree
                front.append(i)
        changed_total += len(front)

        # Depths 2..d: dirty nodes always recompute (their inputs are
        # structurally different); neighbors of the changed front
        # recompute because one of their child trees moved.  An `is`-
        # identical result stops propagation through that node.
        for level in range(1, self.depth):
            recompute = set(dirty)
            for i in front:
                recompute.update(adjacency[i])
            prev = levels[level - 1]
            current = levels[level]
            front = []
            for i in sorted(recompute):
                rank = label_ranks[i]
                tree = make(
                    rank_marks[rank],
                    rank_mark_ids[rank],
                    [prev[j] for j in adjacency[i]],
                )
                recomputed += 1
                if tree is not current[i]:
                    current[i] = tree
                    front.append(i)
            changed_total += len(front)

        self._graph = new_graph
        self.updates += 1
        total_slots = self.depth * len(new_graph.nodes)
        stats = UpdateStats(
            recomputed=recomputed,
            reused=total_slots - recomputed,
            changed=changed_total,
        )
        self.total_recomputed += stats.recomputed
        self.total_reused += stats.reused
        self.last_stats = stats
        return stats

    def stats(self) -> dict[str, Any]:
        """Cumulative work accounting across every update."""
        total = self.total_recomputed + self.total_reused
        return {
            "updates": self.updates,
            "recomputed": self.total_recomputed,
            "reused": self.total_reused,
            "reuse_fraction": self.total_reused / total if total else 1.0,
        }


def replay_views(
    base: LabeledGraph, deltas: Sequence[Any], depth: int
) -> dict[Node, ViewTree]:
    """The views described by a ``dynamic-views`` spec: replay ``deltas``
    over ``base`` through a maintainer and return the final depth-``depth``
    view map.  This is the producer behind the artifact kind — its
    content address covers the base graph *and* the delta log, so any
    churn rotates the key and invalidates stale payloads."""
    from repro.dynamic.graph import DynamicGraph

    dynamic = DynamicGraph(base)
    maintainer = dynamic.maintainer(depth)
    if deltas:
        dynamic.apply(tuple(deltas))
    return maintainer.views()


def differential_check(maintainer: DynamicViewMaintainer) -> None:
    """The from-scratch oracle: prove the incremental state byte-identical
    (and object-identical) to a clean rebuild of the current snapshot.

    The snapshot is round-tripped through
    :func:`~repro.graphs.io.graph_to_dict` so the rebuild shares *no*
    caches with the maintained instance — only the process-wide intern
    table, which is exactly what makes identity the right equality.
    Raises :class:`~repro.exceptions.DynamicError` at the first
    divergence, naming the node and depth.
    """
    graph = maintainer.graph
    rebuilt = graph_from_dict(graph_to_dict(graph))
    builder = ViewBuilder(rebuilt)
    for depth in range(1, maintainer.depth + 1):
        fresh = builder.views(depth)
        maintained = maintainer.views(depth)
        for node in graph.nodes:
            if maintained[node] is not fresh[node]:
                raise DynamicError(
                    f"incremental view of node {node!r} at depth {depth} is "
                    f"not the interned from-scratch tree"
                )
        if encode_views(maintained) != encode_views(fresh):
            raise DynamicError(
                f"incremental depth-{depth} view payload diverges from the "
                "from-scratch encoding"
            )
