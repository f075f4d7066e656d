"""What an interned view tree costs in memory, and ``size`` on deep views.

An interned tree is one ``ViewTree`` object plus its children tuple.
The intern table is keyed by that same tuple and each tree holds its own
one-level drop, so the tables add one dict entry per tree and nothing
else.  ``size`` is computed on first read, without recursion.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.graphs.builders import cycle_graph, torus_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree, clear_caches, intern_stats

# Traced bytes held per interned tree by ``all_views`` of the
# greedy-colored 8x8 torus at depth 2n + 2 = 130 (8,254 trees): the
# trees, their children tuples, the intern, rank-bucket and truncation
# tables and the builder's levels.  The layout that keyed the intern
# table by ``(mark id, child ids)``, kept every one-level drop in the
# truncation table and summed ``size`` eagerly held 677 bytes per tree
# here, over the bound; the current one holds about 250 (CPython 3.11).
BYTES_PER_TREE_BOUND = 400


def test_interned_tree_bytes_stay_under_the_bound():
    graph = with_uniform_input(torus_graph(8, 8))
    graph = apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))
    clear_caches()
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        views = all_views(graph, 2 * graph.num_nodes + 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    trees = intern_stats()["trees"]
    assert len(views) == 64 and trees > 8000
    assert held / trees < BYTES_PER_TREE_BOUND, (held, trees)
    clear_caches()


def test_size_of_a_view_deeper_than_the_recursion_limit():
    # On a uniform cycle every vertex of a view has two children, so the
    # depth-d view expands to 2^d - 1 vertices.
    depth = sys.getrecursionlimit() + 50
    clear_caches()
    tree = all_views(with_uniform_input(cycle_graph(3)), depth)[0]
    assert tree.depth == depth
    assert tree.size == 2**depth - 1
    assert tree.children[0].size == 2 ** (depth - 1) - 1
    clear_caches()


def test_size_of_a_deep_chain():
    depth = sys.getrecursionlimit() + 50
    tree = ViewTree.leaf("x")
    for _ in range(depth - 1):
        tree = ViewTree.make("x", [tree])
    assert tree.size == depth
    assert tree.children[0].size == depth - 1
