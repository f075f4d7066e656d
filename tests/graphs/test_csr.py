"""Unit tests for the CSR array mirror (`repro.graphs.csr`).

The CSR core is an internal representation: these tests pin its
structural contracts (row layout, port order, label ranks), its
lifecycle (one build per graph instance, surviving cache clears,
dropped on pickling), and its BFS kernels against a dict-walking
reference.
"""

from __future__ import annotations

import pickle

from repro.graphs.builders import (
    cycle_graph,
    hypercube_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.csr import CSRGraph, csr_of
from repro.graphs.labeled_graph import LabeledGraph
from repro.views.view_tree import clear_caches


def reference_distances(graph, source):
    """Plain dict BFS over the public neighbor API."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier = []
        for u in frontier:
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


class TestStructure:
    def test_rows_match_neighbors(self):
        g = with_uniform_input(random_connected_graph(24, 0.2, seed=3))
        csr = csr_of(g)
        for i, v in enumerate(csr.nodes):
            row = [csr.nodes[j] for j in csr.adjacency[i]]
            assert tuple(row) == g.neighbors(v)
            assert csr.offsets[i + 1] - csr.offsets[i] == g.degree(v)

    def test_offsets_are_row_pointers(self):
        g = star_graph(5)
        csr = csr_of(g)
        assert len(csr.offsets) == csr.num_nodes + 1
        assert csr.offsets[0] == 0
        assert csr.offsets[-1] == len(csr.targets) == 2 * g.num_edges
        for i in range(csr.num_nodes):
            assert list(csr.targets[csr.offsets[i] : csr.offsets[i + 1]]) == list(
                csr.adjacency[i]
            )

    def test_label_ranks_group_equal_labels(self):
        g = cycle_graph(6).with_layer("input", {v: v % 2 for v in range(6)})
        csr = csr_of(g)
        assert csr.num_labels == 2
        for i, v in enumerate(csr.nodes):
            assert csr.label_values[csr.label_ranks[i]] == g.label(v)
        layer = csr.layer_ranks["input"]
        assert [csr.layer_values["input"][r] for r in layer] == [
            v % 2 for v in range(6)
        ]

    def test_single_node_graph(self):
        g = LabeledGraph([], nodes=["only"])
        csr = csr_of(g)
        assert csr.num_nodes == 1
        assert list(csr.offsets) == [0, 0]
        assert csr.adjacency[0] == []
        assert csr.distance_idx(0, 0) == 0
        assert csr.within_idx(0, 3) == [0]


class TestLifecycle:
    def test_memoized_per_instance(self):
        g = with_uniform_input(cycle_graph(8))
        assert csr_of(g) is csr_of(g)

    def test_survives_view_cache_clears(self):
        g = with_uniform_input(cycle_graph(8))
        csr = csr_of(g)
        clear_caches()
        assert csr_of(g) is csr

    def test_equal_instances_build_separate_mirrors(self):
        a = with_uniform_input(cycle_graph(8))
        b = with_uniform_input(cycle_graph(8))
        assert a == b
        assert csr_of(a) is not csr_of(b)

    def test_pickle_drops_the_mirror(self):
        g = with_uniform_input(cycle_graph(8))
        csr_of(g)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone._csr is None
        assert isinstance(csr_of(clone), CSRGraph)


class TestBFSKernels:
    def test_distance_matches_reference(self):
        for g in (
            with_uniform_input(cycle_graph(11)),
            hypercube_graph(4),
            random_connected_graph(30, 0.12, seed=9),
            path_graph(7),
        ):
            csr = csr_of(g)
            for v in g.nodes:
                dist = reference_distances(g, v)
                i = csr.index[v]
                for u in g.nodes:
                    assert csr.distance_idx(i, csr.index[u]) == dist[u]

    def test_within_matches_reference_and_is_sorted(self):
        g = random_connected_graph(25, 0.15, seed=4)
        csr = csr_of(g)
        for v in g.nodes:
            dist = reference_distances(g, v)
            i = csr.index[v]
            for hops in range(5):
                expected = sorted(csr.index[u] for u, d in dist.items() if d <= hops)
                assert csr.within_idx(i, hops) == expected

    def test_unreachable_is_minus_one(self):
        g = LabeledGraph([(0, 1), (2, 3)], check_connected=False)
        csr = csr_of(g)
        assert csr.distance_idx(0, csr.index[2]) == -1
        assert csr.within_idx(0, 10) == [0, 1]

    def test_epoch_buffer_reuse_keeps_queries_independent(self):
        # Interleaved queries share one visited buffer; the epoch stamps
        # must keep them from seeing each other's marks.
        g = with_uniform_input(cycle_graph(10))
        csr = csr_of(g)
        first = csr.within_idx(0, 2)
        for source in range(csr.num_nodes):
            csr.distance_idx(source, (source + 5) % 10)
        assert csr.within_idx(0, 2) == first
        epochs_before = csr._epoch
        csr.distance_idx(0, 5)
        assert csr._epoch == epochs_before + 1
