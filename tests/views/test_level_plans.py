"""Plan-built view levels against deepening every level through ``make``.

Past stability a :class:`ViewBuilder` builds the levels whose bucket
orders repeat from frozen plans (``view_tree._LevelPlan``) instead of
calling ``_make_ranked`` per class.  The reference (``tests.oracles.reference_deepen``) is
the deepening loop that plans replaced: every stable level goes through
``_make_ranked``.  Each scenario runs once through the builder and once,
in a fresh epoch, through the reference; both must leave identical
intern tables (per mark: keys, insertion order and tree identity), rank
buckets, sort keys, one-level drops, multi-level truncation entries,
views and partitions.
"""

from __future__ import annotations

import pytest

from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_regular_graph,
    torus_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.views import view_tree
from repro.views.local_views import ViewBuilder
from repro.views.view_tree import ViewTree, clear_caches, intern_stats
from tests.oracles import reference_deepen


def planned_deepen(builder: ViewBuilder, depth: int) -> None:
    builder.views(depth)


def snapshot(builders: list[ViewBuilder]) -> dict:
    """Everything the deepening leaves behind, with trees named by their
    mark and their position in that mark's intern table so two epochs
    compare.  The drops are read as the deepening left them; then every
    top tree is truncated halfway down its drop chain, so the multi-level
    truncation table has entries to compare."""
    dropped = [tree._dropped for table in view_tree._INTERN for tree in table.values()]
    for b in builders:
        for tree in b._levels[-1][0]:
            tree.truncate(max(1, tree.depth // 2))
    keys = view_tree._MARK_KEYS
    names = {
        id(tree): (keys[mark_id], i)
        for mark_id, table in enumerate(view_tree._INTERN)
        for i, tree in enumerate(table.values())
    }
    trees = [tree for table in view_tree._INTERN for tree in table.values()]

    def name(tree: ViewTree | None):
        return None if tree is None else names[id(tree)]

    # Each tree is its own key's holder: no second children tuple.
    assert all(
        children is tree.children for table in view_tree._INTERN for children, tree in table.items()
    )
    stats = intern_stats()
    del stats["bucket_shifts"]  # plan-built buckets are created sorted
    return {
        "intern": [
            (
                keys[mark_id],
                [
                    (tuple(map(name, children)), name(tree), tree._mark_id == mark_id)
                    for children, tree in table.items()
                ],
            )
            for mark_id, table in enumerate(view_tree._INTERN)
        ],
        "sort_keys": [tree.sort_key() for tree in trees],
        "buckets": [
            (keys[mark_id], depth, [name(tree) for tree in bucket])
            for mark_id, by_depth in enumerate(view_tree._BUCKETS)
            for depth, bucket in by_depth.items()
        ],
        "drops": [name(tree) for tree in dropped],
        "truncations": [
            (names[tree_id], depth, name(result))
            for (tree_id, depth), result in view_tree._TRUNCATE_CACHE.items()
        ],
        "marks": list(keys),
        "stats": stats,
        "levels": [
            [([name(tree) for tree in trees], list(colors)) for trees, colors in b._levels]
            for b in builders
        ],
        "partitions": [
            [b.partition(d) for d in range(1, len(b._levels) + 1)] for b in builders
        ],
    }


def assert_same_as_reference(scenario) -> dict:
    """Run ``scenario(deepen)`` through the builder and the reference,
    each in a fresh epoch, and require identical snapshots."""
    clear_caches()
    planned = snapshot(scenario(planned_deepen))
    clear_caches()
    reference = snapshot(scenario(reference_deepen))
    clear_caches()
    assert planned == reference
    return planned


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def one_graph(graph, depth):
    def scenario(deepen):
        builder = ViewBuilder(graph)
        deepen(builder, depth)
        return [builder]

    return scenario


def plan_cycle_length(graph, depth) -> int:
    clear_caches()
    builder = ViewBuilder(graph)
    builder.views(depth)
    clear_caches()
    return len(builder._cycle)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ["regular", "sparse"])
def test_random_two_hop_colored_graphs(family, seed):
    if family == "regular":
        graph = random_regular_graph(12 + 4 * seed, 3, seed=seed)
    else:
        graph = random_connected_graph(16 + 3 * seed, 0.05, seed=seed)
    graph = colored(with_uniform_input(graph))
    assert_same_as_reference(one_graph(graph, 2 * graph.num_nodes + 2))


def test_bipartite_torus_repeats_two_layouts():
    # A bipartite graph's bucket orders alternate: the plans form a
    # cycle of two levels.
    graph = colored(with_uniform_input(torus_graph(6, 6)))
    assert plan_cycle_length(graph, 74) == 2
    assert_same_as_reference(one_graph(graph, 74))


@pytest.mark.parametrize(
    "graph",
    [
        with_uniform_input(cycle_graph(7)),
        with_uniform_input(path_graph(6)),
        cyclic_lift(with_uniform_input(cycle_graph(3)), 4)[0],
        lift_graph(with_uniform_input(torus_graph(3, 3)), 2, seed=1)[0],
        cyclic_lift(colored(with_uniform_input(cycle_graph(5))), 3)[0],
    ],
    ids=["C7", "P6", "C3x4", "T3x3-2lift", "colored-C5x3"],
)
def test_uncolored_cycles_and_lifts(graph):
    # Partitions that are not discrete: several nodes per class.
    assert_same_as_reference(one_graph(graph, 2 * graph.num_nodes + 2))


def test_two_builders_deepened_alternately_fall_back_on_shared_buckets():
    # The 2-lift shares every view with its base, so each of its levels
    # finds its buckets already there; the other colored graph shares
    # marks with both.
    base = colored(with_uniform_input(cycle_graph(6)))
    lift = cyclic_lift(base, 2)[0]
    other = colored(with_uniform_input(random_regular_graph(16, 3, seed=1)))

    def scenario(deepen):
        builders = [ViewBuilder(base), ViewBuilder(lift), ViewBuilder(other)]
        for depth in range(1, 31, 3):
            for builder in builders:
                deepen(builder, depth)
        return builders

    assert_same_as_reference(scenario)


def test_one_level_at_a_time():
    graph = colored(with_uniform_input(torus_graph(4, 5)))

    def scenario(deepen):
        builder = ViewBuilder(graph)
        for depth in range(1, 2 * graph.num_nodes + 3):
            deepen(builder, depth)
        return [builder]

    assert_same_as_reference(scenario)


def test_mark_renumber_between_calls():
    graph = colored(with_uniform_input(torus_graph(4, 5)))

    def scenario(deepen):
        builder = ViewBuilder(graph)
        deepen(builder, 10)
        renumbers = intern_stats()["mark_renumbers"]
        # ``repr('')`` sorts before every tuple mark: a mid-order insert.
        ViewTree.leaf("")
        assert intern_stats()["mark_renumbers"] == renumbers + 1
        deepen(builder, 20)
        return [builder]

    assert_same_as_reference(scenario)


def test_a_plan_that_no_longer_matches_is_dropped(monkeypatch):
    graph = colored(with_uniform_input(torus_graph(4, 5)))
    clear_caches()
    builder = ViewBuilder(graph)
    builder.views(20)
    cycle, base = builder._cycle, builder._cycle_base
    assert cycle
    # Reverse one bucket's order on the last level: resuming must notice
    # and build the next level through ``make`` again.
    trees = builder._levels[-1][0]
    phase = cycle[(len(builder._levels) - 1 - base) % len(cycle)]
    _mark_id, in_bucket = next(b for b in phase.buckets if len(b[1]) > 1)
    ranks = [trees[c]._bucket_rank for c in in_bucket]
    for c, rank in zip(in_bucket, reversed(ranks)):
        trees[c]._bucket_rank = rank
    calls = []
    make = view_tree._make_ranked
    monkeypatch.setattr(
        view_tree, "_make_ranked", lambda *args: calls.append(args) or make(*args)
    )
    builder.views(21)
    assert len(calls) == len(trees)
    clear_caches()
