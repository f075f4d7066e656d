"""Graph derivation shares structure, node ids sort natively, and the
2-hop check reads closed neighbourhoods, each checked against its
reference in ``tests/oracles.py`` or the library's own definition."""

from __future__ import annotations

import math
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, LabelingError
from repro.graphs.builders import cycle_graph, random_connected_graph
from repro.graphs.coloring import (
    apply_two_hop_coloring,
    is_k_hop_coloring,
    is_two_hop_coloring,
    k_hop_conflicts,
)
from repro.graphs.csr import csr_of
from repro.graphs.labeled_graph import LabeledGraph, node_key, sorted_nodes
from tests.oracles import (
    csr_tables,
    reference_derive,
    reference_edges,
    reference_sorted_nodes,
)

NAN = float("nan")

scalar_ids = st.one_of(
    st.integers(-5, 5), st.text(max_size=2), st.booleans(), st.none(), st.floats(-2, 2)
)
node_ids = st.one_of(
    st.lists(st.integers(-50, 50), max_size=12),
    st.lists(st.text(max_size=3), max_size=12),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.lists(st.tuples(st.integers(0, 3), st.text(max_size=1)), max_size=12),
    st.lists(scalar_ids, max_size=12),
    st.lists(st.one_of(st.integers(0, 5), st.tuples(st.integers(0, 2))), max_size=12),
)


def typed(items):
    """Items with their exact types: ``True`` and ``1`` compare equal."""
    return [(type(item), item) for item in items]


@given(node_ids)
@settings(max_examples=200, deadline=None)
def test_native_order_equals_the_sort_key_order(ids):
    assert typed(sorted_nodes(ids)) == typed(reference_sorted_nodes(ids))
    tagged = [(i, v) for i, v in enumerate(ids)]
    assert sorted_nodes(tagged, key=itemgetter(1)) == reference_sorted_nodes(
        tagged, key=itemgetter(1)
    )


def test_only_homogeneous_int_or_str_ids_sort_natively():
    assert node_key([3, 1, 2]) is None
    assert node_key(["b", "a"]) is None
    for ids in ([1, True], [True, False], [1, "a"], [(1, 2)], [1.0, 2.0], []):
        assert node_key(ids) is not None


@given(
    st.integers(1, 9),
    st.floats(0.0, 0.6),
    st.integers(0, 10_000),
    st.sampled_from(["int", "str", "tuple", "mixed"]),
)
@settings(max_examples=60, deadline=None)
def test_graph_node_and_edge_order_match_the_sort_key(n, p, seed, ids):
    graph = relabeled(random_connected_graph(n, p, seed=seed), ids)
    assert typed(graph.nodes) == typed(reference_sorted_nodes(graph.nodes))
    for v in graph.nodes:
        assert typed(graph.neighbors(v)) == typed(reference_sorted_nodes(graph.neighbors(v)))
    assert list(graph.edges()) == reference_edges(graph)
    assert graph.structure_key()[1] == tuple(reference_edges(graph))


# ----------------------------------------------------------------------
# Derived graphs against a rebuild from scratch
# ----------------------------------------------------------------------


def relabeled(graph, ids):
    names = {
        "int": lambda v: v,
        "str": lambda v: f"n{v}",
        "tuple": lambda v: (v % 2, v),
        "mixed": lambda v: v if v % 2 else f"n{v}",
    }[ids]
    return graph.relabel_nodes({v: names(v) for v in graph.nodes})


def assert_same_graph(derived, expected):
    assert derived == expected
    assert derived.structure_key() == expected.structure_key()
    assert derived.nodes == expected.nodes
    assert derived.layer_names == expected.layer_names
    for v in expected.nodes:
        assert derived.neighbors(v) == expected.neighbors(v)
        assert derived.ports(v) == expected.ports(v)
        for u in expected.ports(v):
            assert derived.neighbor_to_port(v, u) == expected.neighbor_to_port(v, u)
        assert derived.label(v) == expected.label(v)
    assert list(derived.edges()) == list(expected.edges())
    assert csr_tables(derived) == csr_tables(expected)
    csr = csr_of(derived)
    assert [csr.label_values[r] for r in csr.label_ranks] == list(map(derived.label, derived.nodes))
    assert tuple(csr.layer_ranks) == derived.layer_names
    for name in derived.layer_names:
        assert [csr.layer_values[name][r] for r in csr.layer_ranks[name]] == [
            derived.label_of(v, name) for v in derived.nodes
        ]


def layers_of(graph):
    return {name: graph.layer(name) for name in graph.layer_names}


labels = st.one_of(st.integers(0, 2), st.text(max_size=1), st.tuples(st.integers(0, 1)))
layer_names = st.sampled_from(["input", "color", "bits", "extra"])
operations = st.lists(
    st.tuples(
        st.sampled_from(["with_layer", "without_layer", "with_only_layers", "with_ports"]),
        layer_names,
        st.randoms(use_true_random=False),
        st.booleans(),  # build the parent's mirror before deriving
    ),
    min_size=1,
    max_size=6,
)


@given(
    st.integers(1, 9),
    st.floats(0.0, 0.6),
    st.integers(0, 10_000),
    st.sampled_from(["int", "str", "tuple", "mixed"]),
    st.data(),
    operations,
)
@settings(max_examples=80, deadline=None)
def test_derived_graphs_equal_a_rebuild(n, p, seed, ids, data, steps):
    graph = relabeled(random_connected_graph(n, p, seed=seed), ids)
    for op, name, rng, mirror_first in steps:
        before = csr_tables(graph) if mirror_first else None
        if op == "with_layer":
            mapping = {v: data.draw(labels) for v in graph.nodes}
            derived = graph.with_layer(name, mapping)
            expected = reference_derive(graph, {**layers_of(graph), name: dict(mapping)})
            mapping[graph.nodes[0]] = "mutated"
            mapping["not a node"] = 0
        elif op == "without_layer":
            if name not in graph.layer_names:
                with pytest.raises(LabelingError):
                    graph.without_layer(name)
                continue
            derived = graph.without_layer(name)
            expected = reference_derive(
                graph, {k: m for k, m in layers_of(graph).items() if k != name}
            )
        elif op == "with_only_layers":
            names = list(graph.layer_names)
            rng.shuffle(names)
            names = names[: rng.randint(0, len(names))]
            derived = graph.with_only_layers(names)
            if tuple(names) == graph.layer_names:
                assert derived is graph
            expected = reference_derive(graph, {k: graph.layer(k) for k in names})
        else:
            ports = {v: rng.sample(graph.neighbors(v), graph.degree(v)) for v in graph.nodes}
            derived = graph.with_ports(ports)
            expected = reference_derive(graph, ports=ports)
            for order in ports.values():
                order.reverse()
        assert_same_graph(derived, expected)
        if before is not None:
            assert csr_tables(graph) == before
        graph = derived


@pytest.mark.parametrize("mirror_first", [False, True])
def test_derived_mirror_shares_topology_not_labels(mirror_first):
    graph = cycle_graph(6).with_layer("input", {v: 0 for v in range(6)})
    if mirror_first:
        csr_of(graph)
    colored = graph.with_layer("color", {v: v % 3 for v in range(6)})
    parent, child = csr_of(graph), csr_of(colored)
    assert child is not parent
    for name in ("index", "offsets", "targets", "adjacency"):
        assert getattr(child, name) is getattr(parent, name)
    assert child.label_ranks is not parent.label_ranks
    assert child._visited is not parent._visited
    assert (parent.num_labels, child.num_labels) == (1, 3)


def test_with_only_layers_returns_self_only_for_the_same_layers_in_order():
    graph = cycle_graph(4).with_layer("a", {v: 0 for v in range(4)})
    graph = graph.with_layer("b", {v: 1 for v in range(4)})
    assert graph.with_only_layers(["a", "b"]) is graph
    assert graph.with_only_layers(("a", "b")) is graph
    swapped = graph.with_only_layers(["b", "a"])
    assert swapped is not graph and swapped.layer_names == ("b", "a")
    assert graph.with_only_layers(["a"]).layer_names == ("a",)


def raised(build):
    with pytest.raises((GraphError, LabelingError)) as info:
        build()
    return type(info.value), str(info.value)


@given(st.integers(2, 8), st.integers(0, 1000), st.sampled_from(["int", "str", "tuple"]))
@settings(max_examples=30, deadline=None)
def test_derivation_raises_the_rebuild_errors(n, seed, ids):
    graph = relabeled(random_connected_graph(n, 0.3, seed=seed), ids)
    graph = graph.with_layer("input", {v: 0 for v in graph.nodes})
    first, last = graph.nodes[0], graph.nodes[-1]
    full = {v: 1 for v in graph.nodes}
    bad_layers = [
        {v: 1 for v in graph.nodes if v != last},
        {**full, "stranger": 1},
        {**{v: 1 for v in graph.nodes if v != first}, "stranger": 1},
    ]
    for mapping in bad_layers:
        assert raised(lambda: graph.with_layer("color", mapping)) == raised(
            lambda: reference_derive(graph, {**layers_of(graph), "color": mapping})
        )
    ports = {v: list(graph.ports(v)) for v in graph.nodes}
    bad_ports = [
        {v: order for v, order in ports.items() if v != last},
        {**ports, first: ports[first][1:]},
        {**ports, first: [*ports[first], first]},
        {**ports, first: [("stranger",), *ports[first][1:]]},
    ]
    for numbering in bad_ports:
        assert raised(lambda: graph.with_ports(numbering)) == raised(
            lambda: reference_derive(graph, ports=numbering)
        )


# ----------------------------------------------------------------------
# The 2-hop check by closed neighbourhoods
# ----------------------------------------------------------------------

coloring_labels = st.one_of(
    st.integers(0, 3),
    st.booleans(),
    st.just(NAN),
    st.builds(float, st.sampled_from(["nan", "0", "1"])),  # a fresh nan object each
    st.lists(st.integers(0, 1), max_size=1),
    st.tuples(st.integers(0, 1)),
    st.text(alphabet="ab", max_size=1),
    st.none(),
)


@given(
    st.integers(1, 9),
    st.floats(0.0, 0.6),
    st.integers(0, 10_000),
    st.data(),
    st.sampled_from(["small ints", "any", "distinct"]),
)
@settings(max_examples=200, deadline=None)
def test_closed_neighbourhood_check_agrees_with_the_conflict_list(n, p, seed, data, palette):
    graph = random_connected_graph(n, p, seed=seed)
    if palette == "distinct":
        coloring = {v: v for v in graph.nodes}
        coloring[graph.nodes[0]] = data.draw(st.sampled_from([NAN, True, 1, [0], (0,)]))
    else:
        labels_ = st.integers(0, 3) if palette == "small ints" else coloring_labels
        coloring = {v: data.draw(labels_) for v in graph.nodes}
    proper = k_hop_conflicts(graph, coloring, 2) == []
    assert is_two_hop_coloring(graph, coloring) is proper
    assert is_k_hop_coloring(graph, coloring, 2) is proper
    if proper:
        colored = apply_two_hop_coloring(graph, coloring)
        assert colored == reference_derive(graph, {**layers_of(graph), "color": coloring})
    else:
        with pytest.raises(LabelingError, match="not a 2-hop coloring"):
            apply_two_hop_coloring(graph, coloring)


def test_nan_equal_to_nothing_and_true_equal_to_one():
    path = LabeledGraph([(0, 1), (1, 2)])
    assert is_two_hop_coloring(path, {0: NAN, 1: NAN, 2: NAN})
    assert is_two_hop_coloring(path, {0: NAN, 1: float("nan"), 2: 0})
    assert not is_two_hop_coloring(path, {0: True, 1: 2, 2: 1})
    assert not is_two_hop_coloring(path, {0: [1], 1: 2, 2: [1]})
    assert not is_two_hop_coloring(path, {0: 1.0, 1: 2, 2: 1})
    assert math.isnan(apply_two_hop_coloring(path, {0: NAN, 1: NAN, 2: 0}).label(0)[0])


def test_missing_node_error_matches_the_conflict_list():
    graph = cycle_graph(5)
    coloring = {v: v for v in range(4)}
    with pytest.raises(LabelingError) as ours:
        is_two_hop_coloring(graph, coloring)
    with pytest.raises(LabelingError) as reference:
        k_hop_conflicts(graph, coloring, 2)
    assert str(ours.value) == str(reference.value)
    with pytest.raises(LabelingError, match="does not cover nodes"):
        apply_two_hop_coloring(graph, coloring)
