"""``ViewTree.truncate`` agrees with the recursive definition of truncation.

``truncate`` follows a memoised chain of one-level drops.  The reference
(``tests.oracles.reference_truncate``) re-derives every truncation straight from the definition,
``T|d = make(mark, [c|(d - 1) for c in children])``, through
``ViewTree.make``.  Interning makes the two comparable by identity.
The drops a view builder records as it interns are checked against the
same reference.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.builders import (
    cycle_graph,
    random_connected_graph,
    star_graph,
    torus_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.views import view_tree
from repro.views.local_views import ViewBuilder, all_views
from repro.views.view_tree import ViewTree, clear_caches
from tests.oracles import reference_truncate


def assert_matches_reference(tree: ViewTree, depths) -> None:
    memo: dict = {}
    for d in depths:
        assert tree.truncate(d) is reference_truncate(tree, d, memo), (tree, d)


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


ZOO = {
    "cycle-7-uniform": with_uniform_input(cycle_graph(7)),
    "cycle-7-colored": colored(with_uniform_input(cycle_graph(7))),
    "torus-3x4-colored": colored(with_uniform_input(torus_graph(3, 4))),
    "star-4-colored": colored(with_uniform_input(star_graph(4))),
    "random-9-colored": colored(with_uniform_input(random_connected_graph(9, 0.3, seed=5))),
}


@pytest.fixture(autouse=True)
def fresh_tables():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_views_match_reference(name, order):
    graph = ZOO[name]
    depth = 2 * graph.num_nodes + 2
    views = all_views(graph, depth)
    depths = list(range(1, depth + 1))
    if order == "descending":
        depths.reverse()
    for node in graph.nodes:
        assert_matches_reference(views[node], depths)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_builder_records_reference_drops(name):
    """Right after building, before any ``truncate`` call, exactly the
    trees of every level past the first hold a drop, each the recursive
    reference truncation, and no multi-level truncation is recorded."""
    graph = ZOO[name]
    depth = 2 * graph.num_nodes + 2
    builder = ViewBuilder(graph)
    builder.views(depth)
    assert not view_tree._TRUNCATE_CACHE
    recorded = {
        id(tree): (tree, tree._dropped)
        for table in view_tree._INTERN
        for tree in table.values()
        if tree._dropped is not None
    }
    trees = {
        id(tree)
        for level, (level_trees, _colors) in enumerate(builder._levels, start=1)
        if level > 1
        for tree in level_trees
    }
    assert set(recorded) == trees
    memo: dict = {}
    for tree, dropped in recorded.values():
        assert dropped is reference_truncate(tree, tree.depth - 1, memo), tree


def chain(marks):
    tree = ViewTree.leaf(marks[-1])
    for mark in reversed(marks[:-1]):
        tree = ViewTree.make(mark, [tree])
    return tree


def test_children_of_unequal_depths():
    # Only the deepest child loses a level on each drop; the others are
    # kept until the target depth reaches them.
    deep = chain(["a", "b", "c", "d", "e"])
    mid = ViewTree.make("m", [chain(["x", "y"]), ViewTree.leaf("z")])
    root = ViewTree.make("r", [deep, mid, ViewTree.leaf("l")])
    assert [c.depth for c in root.children] == [1, 3, 5]
    assert_matches_reference(root, range(1, root.depth + 1))
    assert mid in root.truncate(4).children


def test_drop_can_merge_children():
    # Dropping the deeper child makes it equal to its shallower sibling:
    # the truncation has that child twice.
    root = ViewTree.make("r", [chain(["a", "b", "c"]), chain(["a", "b"])])
    cut = root.truncate(3)
    assert cut.children[0] is cut.children[1] is chain(["a", "b"])
    assert_matches_reference(root, range(1, root.depth + 1))


def random_tree(rng: random.Random, depth: int) -> ViewTree:
    if depth == 1:
        return ViewTree.leaf(rng.choice("ab"))
    children = [random_tree(rng, depth - 1)]
    children += [random_tree(rng, rng.randint(1, depth - 1)) for _ in range(rng.randint(0, 3))]
    return ViewTree.make(rng.choice("abc"), children)


@pytest.mark.parametrize("seed", range(8))
def test_random_trees_with_ragged_depths(seed):
    rng = random.Random(seed)
    root = random_tree(rng, rng.randint(2, 7))
    depths = list(range(1, root.depth + 1))
    rng.shuffle(depths)
    assert_matches_reference(root, depths)
    for sub in root.subtrees():
        assert_matches_reference(sub, range(1, sub.depth + 1))
