"""Computing the local views ``L_d(v, G)`` of the paper's Section 1.1.

The construction is the paper's inductive definition: ``L_1(v)`` is a
single vertex marked ``l(v)``; ``L_{d+1}(v)`` connects the root of
``L_d(u)`` as a child of a fresh ``l(v)``-marked root for every neighbor
``u``.  Views are built bottom-up across the whole graph so the interning
in :mod:`repro.views.view_tree` shares every repeated subtree — a single
``all_views(G, d)`` call allocates ``O(n · d)`` tree objects.

Construction is *per class*, on the graph's CSR mirror: a level stores
one interned tree per view class plus a flat int list assigning each
node its class, and deepening advances the class partition with one
:func:`repro.graphs.csr.refine_step` round — the refinement/view
equivalence (depth ``d + 1`` view classes are exactly the classes after
``d`` refinement rounds) guarantees every member of a class has the same
view at every depth, so one ``ViewTree.make`` per class (with the
lowest-index member as representative) reproduces the per-node
construction exactly, interned trees, mark objects and all.

Deepening is *incremental*: a :class:`ViewBuilder` keeps the per-depth
levels for a graph, so ``builder.views(d + 1)`` extends its depth-``d``
result with one more round instead of recomputing ``d`` rounds from
scratch.  The module-level entry points build with a fresh builder each
call (the interned trees make a rebuild cheap); a caller that deepens
one graph step by step holds its own builder.  Builders also watch the partition: once a round
splits nothing it is stable forever (Norris's theorem territory — the
same early-exit criterion color refinement uses), and every deeper level
skips the refinement round entirely.
"""

from __future__ import annotations

from repro.exceptions import ViewError
from repro.graphs.csr import csr_of, refine_step
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.views import view_tree
from repro.views.view_tree import ViewTree


class ViewBuilder:
    """Incrementally deepening view construction for one graph.

    ``builder.views(d)`` returns ``{v: L_d(v)}``; successive calls with
    growing depth reuse all previously built levels.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self._csr = csr_of(graph)
        # One level per depth: the class trees (indexed by class) and the
        # per-node class list.  Post-stability levels share the class
        # list object — classes never change again.
        self._levels: list[tuple[list[ViewTree], list[int]]] = []
        self._counts: list[int] = []
        # Marks and their interned mark ids never change across levels
        # and are constant on each seed label class; resolve them once
        # per distinct label and use the pre-ranked intern fast path.
        self._rank_marks = self._csr.label_values
        self._rank_mark_ids = [
            view_tree._mark_id_of(mark) for mark in self._rank_marks
        ]
        self._stable = False
        # Once stable, the class list stops changing, so the creation
        # order of class representatives is computed once and reused.
        self._rep_order: list[int] | None = None
        # Past stability: the bucket-rank vector of each level built so
        # far (to spot a level that repeats an earlier one's bucket
        # orders), then the plans of the levels that repeat forever and
        # the index of the first of them.
        self._orders: dict[tuple[int, ...], int] = {}
        self._cycle: tuple[view_tree._LevelPlan, ...] = ()
        self._cycle_base = 0

    # -- construction ---------------------------------------------------

    def _class_level(
        self,
        colors: list[int],
        rep_order: list[int],
        prev: tuple[list[ViewTree], list[int]],
    ) -> list[ViewTree]:
        """Build the class trees of one level: one ``make`` per class,
        children read from the previous level through the CSR rows.

        ``rep_order`` visits classes in order of their lowest-index
        member — the order in which the historical per-node construction
        first created each tree — so intern-table insertion order (and
        with it every rank bookkeeping side effect) is unchanged.

        The previous level's tree of a class's representative is the new
        tree's one-level drop (``L_{d-1}(v)`` under ``L_d(v)``); the
        level records it in the truncation table, so truncating any view
        subtree follows table hits.
        """
        adjacency = self._csr.adjacency
        label_ranks = self._csr.label_ranks
        rank_marks = self._rank_marks
        rank_mark_ids = self._rank_mark_ids
        prev_trees, prev_colors = prev
        make = view_tree._make_ranked
        trees: list[ViewTree] = [None] * len(rep_order)  # type: ignore[list-item]
        drops: list[ViewTree] = [None] * len(rep_order)  # type: ignore[list-item]
        for rep in rep_order:
            rank = label_ranks[rep]
            c = colors[rep]
            trees[c] = make(
                rank_marks[rank],
                rank_mark_ids[rank],
                [prev_trees[prev_colors[u]] for u in adjacency[rep]],
            )
            drops[c] = prev_trees[prev_colors[rep]]
        view_tree._record_drops(trees, drops)
        return trees

    @staticmethod
    def _first_member_order(colors: list[int], count: int) -> list[int]:
        """Lowest-index member per class, ascending — the creation order."""
        reps = [-1] * count
        for i in range(len(colors) - 1, -1, -1):
            reps[colors[i]] = i
        reps.sort()
        return reps

    def _extend(self) -> None:
        csr = self._csr
        if not self._levels:
            make = view_tree._make_ranked
            trees = [
                make(mark, mark_id, ())
                for mark, mark_id in zip(self._rank_marks, self._rank_mark_ids)
            ]
            self._levels.append((trees, list(csr.label_ranks)))
            self._counts.append(csr.num_labels)
            self._stable = csr.num_labels == csr.num_nodes
            return
        # Called only while the partition still moves; _ensure builds
        # every level past stability in its own fast path.
        prev = self._levels[-1]
        prev_colors = prev[1]
        count = self._counts[-1]
        new_colors, new_count = refine_step(csr, prev_colors)
        if new_count == count:
            # The round split nothing: the partition is stable (and the
            # renumbering is the identity), so keep the old class list
            # and stop refining at deeper levels too.
            self._stable = True
            colors = prev_colors
        else:
            colors = new_colors
            count = new_count
            self._stable = new_count == csr.num_nodes
        rep_order = self._first_member_order(colors, count)
        if self._stable:
            self._rep_order = rep_order
        self._levels.append((self._class_level(colors, rep_order, prev), colors))
        self._counts.append(count)

    def _ensure(self, depth: int) -> None:
        if depth < 1:
            raise ViewError(f"view depth must be at least 1, got {depth}")
        while len(self._levels) < depth and not self._stable:
            self._extend()
        missing = depth - len(self._levels)
        if missing <= 0:
            return
        # Stable fast path: the class list is frozen, so the remaining
        # levels are a straight chain of one make-per-class rounds.
        # Building them in one loop with hoisted locals keeps the cost
        # per level at a few tree interns, nothing else.
        csr = self._csr
        levels, counts = self._levels, self._counts
        colors = levels[-1][1]
        count = counts[-1]
        rep_order = self._rep_order
        if rep_order is None:
            rep_order = self._rep_order = self._first_member_order(colors, count)
        make = view_tree._make_ranked
        record_drops = view_tree._record_drops
        label_ranks = csr.label_ranks
        rep_marks = [self._rank_marks[label_ranks[rep]] for rep in rep_order]
        rep_mark_ids = [self._rank_mark_ids[label_ranks[rep]] for rep in rep_order]
        rep_rows = [[colors[u] for u in csr.adjacency[rep]] for rep in rep_order]
        rep_classes = [colors[rep] for rep in rep_order]
        prev_trees = levels[-1][0]
        enumerated = list(zip(rep_classes, rep_marks, rep_mark_ids, rep_rows))
        # Once a level orders every bucket as an earlier stable level
        # did, the levels in between repeat forever (see
        # ``view_tree._LevelPlan``) and are built from their plans; until
        # then, and at any level another graph already interned into,
        # each class goes through ``make``.  A cycle resumed from an
        # earlier call is checked against the level it starts from.
        cycle, base = self._cycle, self._cycle_base
        if cycle and not cycle[(len(levels) - 1 - base) % len(cycle)].matches(prev_trees):
            cycle = self._cycle = ()
            self._orders.clear()
        orders = self._orders
        if not cycle and all(rep_rows) and not orders:
            orders[tuple([tree._bucket_rank for tree in prev_trees])] = len(levels) - 1
        for _ in range(missing):
            level = len(levels)
            trees = cycle[(level - base) % len(cycle)].intern_level(prev_trees) if cycle else None
            if trees is None:
                trees = [None] * count  # type: ignore[list-item]
                for c, mark, mark_id, row in enumerated:
                    trees[c] = make(mark, mark_id, [prev_trees[d] for d in row])
                if orders:
                    ranks = tuple([tree._bucket_rank for tree in trees])
                    earlier = orders.setdefault(ranks, level)
                    if earlier != level:
                        classes = list(zip(rep_classes, rep_marks, rep_mark_ids))
                        cycle = self._cycle = tuple(
                            view_tree._LevelPlan.freeze(classes, levels[k][0], levels[k - 1][0])
                            for k in range(earlier + 1, level)
                        ) + (view_tree._LevelPlan.freeze(classes, trees, prev_trees),)
                        base = self._cycle_base = earlier + 1
                        orders.clear()
            record_drops(trees, prev_trees)
            levels.append((trees, colors))
            counts.append(count)
            prev_trees = trees

    # -- queries --------------------------------------------------------

    def views(self, depth: int) -> dict[Node, ViewTree]:
        """The views ``L_depth(v)`` for every node (a fresh dict)."""
        self._ensure(depth)
        trees, colors = self._levels[depth - 1]
        return dict(zip(self._csr.nodes, map(trees.__getitem__, colors)))

    def partition(self, depth: int) -> list[tuple[Node, ...]]:
        """Nodes grouped by equal depth-``depth`` views, groups ordered by
        the structural view order of their representative trees."""
        self._ensure(depth)
        trees, colors = self._levels[depth - 1]
        nodes = self._csr.nodes
        groups: list[list[Node]] = [[] for _ in trees]
        for i, c in enumerate(colors):
            groups[c].append(nodes[i])
        ordered = sorted(range(len(trees)), key=lambda c: trees[c].sort_key())
        return [tuple(groups[c]) for c in ordered]


def all_views(graph: LabeledGraph, depth: int) -> dict[Node, ViewTree]:
    """The views ``L_depth(v, graph)`` for every node ``v``."""
    return ViewBuilder(graph).views(depth)


def view(graph: LabeledGraph, v: Node, depth: int) -> ViewTree:
    """The view ``L_depth(v, graph)`` of a single node."""
    if not graph.has_node(v):
        raise ViewError(f"unknown node {v!r}")
    return all_views(graph, depth)[v]


def view_partition(graph: LabeledGraph, depth: int) -> list[tuple[Node, ...]]:
    """Nodes grouped by equal depth-``depth`` views, each group sorted,
    groups ordered by the view order.

    At ``depth = n`` (the node count) this is the ``L_∞`` partition by
    Norris's theorem — the fibers of the infinite view map ``f_∞``.
    """
    return ViewBuilder(graph).partition(depth)
