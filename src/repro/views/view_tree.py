"""Immutable, hash-consed rooted marked trees representing local views.

A :class:`ViewTree` is the tree object of the paper's ``L_d(v, G)``: a
root *vertex* carrying a *mark* (the node label) with one child subtree
per neighbor.  Four design points matter:

* **Hash-consing.**  The same subtree (``L_{d-1}(u)``) appears in the
  views of all of ``u``'s neighbors, so trees are interned: structurally
  equal trees are the *same* Python object, equality is identity, and a
  depth-``d`` view over an ``n``-node graph costs ``O(n · d)`` distinct
  tree objects even though its expanded size is exponential.  Each
  costs one object, its children tuple (which is also its intern key)
  and a table entry; it holds its own one-level drop, and ``size`` is
  computed only when read.

* **Canonical child order.**  Children are stored sorted under the
  structural total order below.  The paper (Section 2.1) canonicalizes by
  fixing a total order among the children of each vertex — possible there
  because 2-hop coloring makes sibling marks distinct; our order is
  defined for arbitrary trees and coincides with any mark-based order on
  2-hop colored graphs.  Sorting makes tree equality equal to view
  equality (children are a multiset, not a sequence, because a node does
  not know which neighbor is "first").

* **Structural total order, ranked.**  ``ViewTree.compare`` orders trees
  by depth, then root mark (serialized), then children lexicographically.
  It is construction-order independent, so every node of a distributed
  algorithm computes the *same* order — the property Lemma 1 needs.
  Rather than comparing trees pairwise, every interned tree is assigned a
  **canonical rank** at intern time: the triple ``(depth, mark rank,
  bucket rank)`` compared as plain integers realizes exactly the
  structural order, so ``compare`` is O(1) and ``make`` sorts children by
  an integer key instead of a comparator.  Ranks are dense integers
  maintained per ``(depth, mark)`` bucket; interning a tree in the middle
  of a bucket renumbers only that bucket's suffix, and interning a new
  mark key in the middle of the mark order renumbers only the (small)
  mark-rank table.  See ``docs/PERFORMANCE.md`` for the cost model.

* **Stable levels at copy cost.**  Past stability, a view builder's
  level ``d + 1`` holds one tree per class, and both its children's
  canonical order and its place in its bucket follow from the mark
  order and from how level ``d`` orders each bucket.  Later interning
  shifts ranks only order-preservingly, so once a level orders every
  bucket as an earlier level did, the levels in between repeat forever:
  a fixpoint, or a short cycle of levels (two on the tori and random
  regular graphs measured).
  :class:`_LevelPlan` freezes each repeating level's child orders and
  bucket orders and builds the deeper levels from them, with no sort
  and no rank search, whenever their buckets are new.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from operator import itemgetter
from typing import Any

from repro.graphs.labeled_graph import _freeze

# Interned trees, one table per mark id: canonical children tuple ->
# tree.  The key is the tuple the tree itself holds, and interned trees
# hash and compare by identity, so key equality is structural equality
# at no cost beyond the table entry.
_INTERN: list[dict[tuple["ViewTree", ...], "ViewTree"]] = []
# Multi-level truncations: (tree id, depth) -> tree, one entry per
# requested target at least two levels down.  One-level drops live on
# the trees themselves (``ViewTree._dropped``).
_TRUNCATE_CACHE: dict[tuple[int, int], "ViewTree"] = {}

# Mark-key table: each distinct serialized mark (``repr(_freeze(mark))``)
# gets a *mark id* (arbitrary, stable) and a *mark rank* (dense, ordered
# like the key strings).  The expensive ``repr`` runs once per distinct
# mark; every later intern is a dict hit.
_MARK_ID_BY_FROZEN: dict[Any, int] = {}
_MARK_ID_BY_KEY: dict[str, int] = {}
_MARK_KEYS: list[str] = []  # mark id -> serialized key
_MARK_RANK: list[int] = []  # mark id -> dense rank, ordered like the keys
_MARK_SORTED_KEYS: list[str] = []  # keys in sorted order
_MARK_SORTED_IDS: list[int] = []  # ids in key-sorted order

# Rank buckets, one table per mark id: depth -> the trees of that depth
# and mark, sorted by the lexicographic order of their child rank
# sequences.  A tree's ``_bucket_rank`` is its index in its bucket, so
# (depth, mark rank, bucket rank) compared as an integer triple realizes
# the structural total order.
_BUCKETS: list[dict[int, list["ViewTree"]]] = []

_STATS = {"mark_renumbers": 0, "bucket_shifts": 0}

def _mark_id_of(mark: Any) -> int:
    frozen = _freeze(mark)
    try:
        mark_id = _MARK_ID_BY_FROZEN.get(frozen)
        hashable = True
    except TypeError:  # exotic unhashable mark: fall back to repr only
        mark_id = None
        hashable = False
    if mark_id is not None:
        return mark_id
    key = repr(frozen)
    mark_id = _MARK_ID_BY_KEY.get(key)
    if mark_id is None:
        mark_id = len(_MARK_KEYS)
        _MARK_KEYS.append(key)
        _INTERN.append({})
        _BUCKETS.append({})
        _MARK_ID_BY_KEY[key] = mark_id
        _MARK_RANK.append(0)
        position = bisect_left(_MARK_SORTED_KEYS, key)
        _MARK_SORTED_KEYS.insert(position, key)
        _MARK_SORTED_IDS.insert(position, mark_id)
        if position == len(_MARK_SORTED_IDS) - 1:
            _MARK_RANK[mark_id] = position
        else:
            # A key landed in the middle of the order: renumber.  Rare
            # (once per distinct mark at most) and O(#marks).
            _STATS["mark_renumbers"] += 1
            for rank, mid in enumerate(_MARK_SORTED_IDS):
                _MARK_RANK[mid] = rank
    if hashable:
        _MARK_ID_BY_FROZEN[frozen] = mark_id
    return mark_id


def _rank_key(tree: "ViewTree") -> tuple[int, int, int]:
    return (tree.depth, _MARK_RANK[tree._mark_id], tree._bucket_rank)


def _children_precede(left: Sequence["ViewTree"], right: Sequence["ViewTree"]) -> bool:
    """Whether the child sequence ``left`` sorts before ``right``: their
    rank triples compared lexicographically, shorter first on ties.

    Stops at the first position whose children differ; distinct interned
    trees never share a rank triple, so that position decides.
    """
    for a, b in zip(left, right):
        if a is not b:
            if a.depth != b.depth:
                return a.depth < b.depth
            rank_a, rank_b = _MARK_RANK[a._mark_id], _MARK_RANK[b._mark_id]
            if rank_a != rank_b:
                return rank_a < rank_b
            return a._bucket_rank < b._bucket_rank
    return len(left) < len(right)


def _make_ranked(mark: Any, mark_id: int, children: Sequence["ViewTree"]) -> "ViewTree":
    """Intern a tree given a pre-resolved mark id.

    ``ViewTree.make`` resolves the id from the mark; builders that apply
    the same mark level after level (see
    :class:`repro.views.local_views.ViewBuilder`) resolve it once and
    call this directly, skipping the per-call mark serialization.
    """
    if len(children) == 2:
        # The dominant case on bounded-degree graphs: order the pair by
        # direct rank comparison instead of a keyed sort (same order,
        # no key tuples, no sort machinery).
        a, b = children
        if a is b or a.depth < b.depth:
            ordered = (a, b)
        elif a.depth > b.depth:
            ordered = (b, a)
        else:
            rank_a, rank_b = _MARK_RANK[a._mark_id], _MARK_RANK[b._mark_id]
            if rank_a != rank_b:
                ordered = (a, b) if rank_a < rank_b else (b, a)
            else:
                ordered = (a, b) if a._bucket_rank < b._bucket_rank else (b, a)
    elif len(children) > 2:
        ordered = tuple(sorted(children, key=_rank_key))
    else:
        ordered = tuple(children)
    table = _INTERN[mark_id]
    tree = table.get(ordered)
    if tree is None:
        tree = ViewTree(mark, ordered, _MAKE_TOKEN)
        tree._mark_id = mark_id
        _register_rank(tree)
        table[ordered] = tree
    return tree


def _register_rank(tree: "ViewTree") -> None:
    """Insert a freshly interned tree into its (depth, mark) bucket.

    Bucket members are kept sorted by the lexicographic order of their
    child rank sequences (ties impossible: equal children would have hit
    the intern table).  Appending at the end is O(1); a middle insert
    renumbers the bucket suffix — dense ranks stay dense.
    """
    by_depth = _BUCKETS[tree._mark_id]
    bucket = by_depth.get(tree.depth)
    if bucket is None:
        by_depth[tree.depth] = [tree]
        tree._bucket_rank = 0
        return
    children = tree.children
    lo, hi = 0, len(bucket)
    while lo < hi:
        mid = (lo + hi) // 2
        if _children_precede(bucket[mid].children, children):
            lo = mid + 1
        else:
            hi = mid
    bucket.insert(lo, tree)
    if lo != len(bucket) - 1:
        _STATS["bucket_shifts"] += 1
    for i in range(lo, len(bucket)):
        bucket[i]._bucket_rank = i


class ViewTree:
    """A hash-consed rooted marked tree.  Use :meth:`make`, not ``__init__``."""

    __slots__ = (
        "mark",
        "children",
        "depth",
        "_size",
        "_mark_id",
        "_bucket_rank",
        "_dropped",
        "__weakref__",
    )

    mark: Any
    children: tuple["ViewTree", ...]
    depth: int

    def __init__(self, mark: Any, children: tuple["ViewTree", ...], _token: object) -> None:
        if _token is not _MAKE_TOKEN:
            raise TypeError("use ViewTree.make(mark, children) — trees are interned")
        self.mark = mark
        self.children = children
        # A plain loop, not max() over a generator: trees intern at a
        # few per node per level, and a generator frame per intern shows
        # in the cold-build profile on bounded-degree graphs.
        depth = 0
        for c in children:
            if c.depth > depth:
                depth = c.depth
        self.depth = depth + 1
        self._size = None
        # The one-level drop ``truncate(depth - 1)``: recorded by view
        # builders as they intern, else derived once by ``_drop``.
        self._dropped = None

    @property
    def size(self) -> int:
        """The number of vertices of the expanded tree.

        Computed on first read, bottom-up over the distinct subtrees not
        sized yet, with an explicit stack: views can be deeper than the
        recursion limit, and most are never asked their size.
        """
        size = self._size
        if size is None:
            stack = [self]
            while stack:
                tree = stack[-1]
                if tree._size is not None:
                    stack.pop()
                    continue
                unsized = [c for c in tree.children if c._size is None]
                if unsized:
                    stack.extend(unsized)
                    continue
                total = 1
                for c in tree.children:
                    total += c._size
                tree._size = total
                stack.pop()
            size = self._size
        return size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def make(mark: Any, children: Sequence["ViewTree"] = ()) -> "ViewTree":
        """The interned tree with the given root mark and child multiset."""
        return _make_ranked(mark, _mark_id_of(mark), children)

    @staticmethod
    def leaf(mark: Any) -> "ViewTree":
        """The single-vertex tree ``L_1`` with the given mark."""
        return ViewTree.make(mark, ())

    # ------------------------------------------------------------------
    # Total order
    # ------------------------------------------------------------------

    @staticmethod
    def compare(a: "ViewTree", b: "ViewTree") -> int:
        """Structural three-way comparison; negative when ``a`` precedes ``b``.

        Order: by depth, then by serialized root mark, then by the child
        lists compared lexicographically (shorter list first on ties).
        Depth-first ordering matches the paper's convention that shorter
        objects precede longer ones (cf. the assignment order in §2.2).
        Implemented as an O(1) comparison of canonical ranks.
        """
        if a is b:
            return 0
        if a.depth != b.depth:
            return -1 if a.depth < b.depth else 1
        rank_a = _MARK_RANK[a._mark_id]
        rank_b = _MARK_RANK[b._mark_id]
        if rank_a != rank_b:
            return -1 if rank_a < rank_b else 1
        # Same depth and mark: distinct interned trees in one bucket
        # always have distinct bucket ranks.
        return -1 if a._bucket_rank < b._bucket_rank else 1

    def sort_key(self) -> tuple[int, int, int]:
        """A key usable with ``sorted``: the canonical rank triple.

        Keys are valid for comparisons among trees alive now; interning
        *new* trees may shift ranks (order-preservingly), so do not store
        keys across interning and compare them later.
        """
        return (self.depth, _MARK_RANK[self._mark_id], self._bucket_rank)

    def __lt__(self, other: "ViewTree") -> bool:
        return ViewTree.compare(self, other) < 0

    def __le__(self, other: "ViewTree") -> bool:
        return ViewTree.compare(self, other) <= 0

    # Equality is identity thanks to interning; object.__eq__/__hash__ apply.

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def truncate(self, depth: int) -> "ViewTree":
        """The depth-``depth`` truncation (the paper's ``f_n`` on views).

        ``truncate(d)`` of a depth-``k`` view, ``k >= d``, is the depth-``d``
        view of the same node.  Requesting more depth than available
        returns the tree unchanged.
        """
        if depth < 1:
            raise ValueError(f"truncation depth must be at least 1, got {depth}")
        if self.depth <= depth:
            return self
        if self.depth - 1 == depth:
            return _drop(self)
        key = (id(self), depth)
        result = _TRUNCATE_CACHE.get(key)
        if result is None:
            # Follow the drop chain: each one-level drop is held by its
            # tree, so the table grows with the number of distinct
            # requests, never with trees x depths x targets.  See
            # docs/PERFORMANCE.md.
            result = self
            while result.depth > depth:
                result = _drop(result)
            _TRUNCATE_CACHE[key] = result
        return result

    def subtrees(self) -> Iterator["ViewTree"]:
        """All distinct subtrees, each yielded once, starting with self."""
        seen: set = set()
        stack: list[ViewTree] = [self]
        while stack:
            tree = stack.pop()
            if id(tree) in seen:
                continue
            seen.add(id(tree))
            yield tree
            stack.extend(tree.children)

    def level_marks(self, level: int) -> tuple[Any, ...]:
        """The marks at tree depth ``level`` (root is level 1), in canonical
        child order — the per-level data the paper compares views by."""
        if level < 1:
            raise ValueError(f"level must be at least 1, got {level}")
        current: list[ViewTree] = [self]
        for _ in range(level - 1):
            current = [child for tree in current for child in tree.children]
        return tuple(tree.mark for tree in current)

    def render(self, max_depth: int | None = None, indent: str = "") -> str:
        """Human-readable multi-line rendering (used to print Figure 1)."""
        lines = [f"{indent}{self.mark!r}"]
        if max_depth is None or max_depth > 1:
            next_depth = None if max_depth is None else max_depth - 1
            for child in self.children:
                lines.append(child.render(next_depth, indent + "  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ViewTree(mark={self.mark!r}, depth={self.depth}, size={self.size})"


_MAKE_TOKEN = object()


def _drop(tree: ViewTree) -> ViewTree:
    """``tree.truncate(tree.depth - 1)``, held by the tree once known.

    Only children of depth ``tree.depth - 1`` lose a level; shallower
    children already fit and are kept as they are.  A depth-2 tree drops
    to its leaf.  The mark id is reused, so no mark is re-serialized.
    A plain loop rather than a comprehension keeps the cold recursion at
    one frame per level.
    """
    dropped = tree._dropped
    if dropped is None:
        below = tree.depth - 1
        children = []
        if below > 1:
            for child in tree.children:
                children.append(_drop(child) if child.depth == below else child)
        dropped = tree._dropped = _make_ranked(tree.mark, tree._mark_id, children)
    return dropped


def _record_drops(trees: Sequence[ViewTree], drops: Sequence[ViewTree]) -> None:
    """Set ``drops[i]`` as the one-level drop of ``trees[i]``.

    For builders that already hold each drop: a builder interning
    ``L_d(v)`` built it from the level that holds ``L_{d-1}(v)``, which
    is that tree's drop, so a later ``truncate`` follows the trees' own
    drops instead of re-deriving them through ``_drop``.
    """
    for tree, dropped in zip(trees, drops):
        tree._dropped = dropped


def _getter(indices: Sequence[int]) -> Callable[[Sequence[ViewTree]], tuple[ViewTree, ...]]:
    """A callable returning the tuple of its argument's items at
    ``indices`` (one or more)."""
    if len(indices) == 1:
        (index,) = indices
        return lambda trees: (trees[index],)
    return itemgetter(*indices)


class _LevelPlan:
    """The layout a view builder's levels repeat past their rank fixpoint.

    A builder past stability builds level ``d + 1`` with one tree per
    class, the children of class ``c`` being the level-``d`` trees of its
    neighbours' classes.  Two things about that level follow from the
    mark order and from the order of level ``d``'s trees within each
    mark bucket: every class's canonical child order, and the order of
    the classes within each new ``(d + 1, mark)`` bucket.  A new mark
    shifts mark ranks order-preservingly, and so does a new tree inside
    a bucket, so these orders never go stale.  Hence once level ``d``
    orders every bucket as level ``d - p`` did, level ``d + k`` repeats
    the child orders and bucket orders of level ``d - p + k`` for every
    ``k >= 1``.  A builder keeps one plan per level of that cycle, each
    recording:

    * ``entries`` — per class, in creation order: ``(class, mark, mark
      id, getter of its children in canonical order, rank in its
      bucket)``, the getter reading the level below by class index;
    * ``buckets`` — per mark, in bucket-creation order: ``(mark id,
      classes in bucket order)``.

    :meth:`intern_level` builds a level straight from the plan when all
    of its buckets are new, which is exactly when none of its trees can
    exist yet; otherwise the builder falls back to ``_make_ranked``.
    Plans apply to levels whose every class has a neighbour, so that all
    trees of a level share one depth.
    """

    __slots__ = ("entries", "buckets")

    def __init__(self, entries: tuple, buckets: tuple) -> None:
        self.entries = entries
        self.buckets = buckets

    @classmethod
    def freeze(
        cls,
        classes: Sequence[tuple[int, Any, int]],
        trees: Sequence[ViewTree],
        prev_trees: Sequence[ViewTree],
    ) -> "_LevelPlan":
        """The plan of the level ``trees`` over ``prev_trees``, given its
        ``(class, mark, mark id)`` triples in creation order."""
        class_of = {id(tree): c for c, tree in enumerate(prev_trees)}
        members: dict[int, list[int]] = {}
        for c, _mark, mark_id in classes:
            members.setdefault(mark_id, []).append(c)
        rank = [0] * len(trees)
        buckets = []
        for mark_id, in_bucket in members.items():
            in_bucket.sort(key=lambda c: trees[c]._bucket_rank)
            for position, c in enumerate(in_bucket):
                rank[c] = position
            buckets.append((mark_id, tuple(in_bucket)))
        entries = tuple(
            (c, mark, mark_id, _getter([class_of[id(t)] for t in trees[c].children]), rank[c])
            for c, mark, mark_id in classes
        )
        return cls(entries, tuple(buckets))

    def matches(self, trees: Sequence[ViewTree]) -> bool:
        """Whether ``trees`` order every bucket's classes as the plan does."""
        for _mark_id, in_bucket in self.buckets:
            last = -1
            for c in in_bucket:
                rank = trees[c]._bucket_rank
                if rank <= last:
                    return False
                last = rank
        return True

    def intern_level(self, prev_trees: Sequence[ViewTree]) -> list[ViewTree] | None:
        """Intern the level over ``prev_trees`` from the plan, or return
        ``None`` when one of its buckets already exists.

        Each tree is interned under the children tuple ``_make_ranked``
        would form, in the same order, and each bucket is created already
        sorted.
        """
        depth = prev_trees[0].depth + 1
        buckets = _BUCKETS
        for mark_id, _in_bucket in self.buckets:
            if depth in buckets[mark_id]:
                return None
        intern = _INTERN
        trees: list[ViewTree] = [None] * len(prev_trees)  # type: ignore[list-item]
        for c, mark, mark_id, children_of, rank in self.entries:
            children = children_of(prev_trees)
            tree = ViewTree(mark, children, _MAKE_TOKEN)
            tree._mark_id = mark_id
            tree._bucket_rank = rank
            intern[mark_id][children] = tree
            trees[c] = tree
        for mark_id, in_bucket in self.buckets:
            buckets[mark_id][depth] = list(map(trees.__getitem__, in_bucket))
        return trees


def clear_caches() -> None:
    """Empty the intern/rank tables and the artifact store's memory tier
    (its encoded payloads) — one eviction path for every cache a cold
    run must not find warm.

    Intended for long benchmark sessions so parametrized cases don't
    accumulate unbounded interned trees.  Trees created *before* a clear
    must not be mixed with trees created after it (their ranks refer to
    the discarded tables); clear only between independent workloads.

    The one cache deliberately *not* cleared is the per-instance CSR
    mirror (``LabeledGraph._csr``): it is identity-keyed on the graph
    instance, holds flat int arrays and no interned trees (so it cannot
    dangle across an interning epoch), and is garbage-collected with its
    graph — clearing it would only force rebuilds.  See
    ``docs/PERFORMANCE.md``.
    """
    _INTERN.clear()
    _TRUNCATE_CACHE.clear()
    _MARK_ID_BY_FROZEN.clear()
    _MARK_ID_BY_KEY.clear()
    _MARK_KEYS.clear()
    _MARK_RANK.clear()
    _MARK_SORTED_KEYS.clear()
    _MARK_SORTED_IDS.clear()
    _BUCKETS.clear()
    _STATS["mark_renumbers"] = 0
    _STATS["bucket_shifts"] = 0
    # Lazy import: this module loads before the artifact layer does.
    from repro.artifacts.store import clear_memory_tier

    clear_memory_tier()


def intern_stats() -> dict[str, int]:
    """Sizes of the intern/rank tables (for perf diagnostics)."""
    return {
        "trees": sum(map(len, _INTERN)),
        "marks": len(_MARK_KEYS),
        "buckets": sum(map(len, _BUCKETS)),
        "max_bucket": max(
            (len(bucket) for by_depth in _BUCKETS for bucket in by_depth.values()), default=0
        ),
        "truncations": len(_TRUNCATE_CACHE),
        "mark_renumbers": _STATS["mark_renumbers"],
        "bucket_shifts": _STATS["bucket_shifts"],
    }
