"""Tests for color refinement and its equivalence to explicit views."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
    with_uniform_input,
)
from repro.views.local_views import view_partition
from repro.views.refinement import (
    color_refinement,
    refinement_partition,
    stabilization_depth,
)


def _uniform(graph):
    return graph.with_layer("input", {v: 0 for v in graph.nodes})


class TestRefinement:
    def test_uniform_cycle_collapses(self):
        result = color_refinement(_uniform(cycle_graph(6)))
        assert result.num_classes == 1
        assert result.rounds_to_stable == 0

    def test_path_classes(self):
        result = color_refinement(_uniform(path_graph(4)))
        assert result.num_classes == 2
        # Mirror-image pairs: a uniform path of 2k nodes has k classes.
        assert color_refinement(_uniform(path_graph(64))).num_classes == 32

    def test_star_classes(self):
        result = color_refinement(_uniform(star_graph(4)))
        assert result.num_classes == 2

    def test_labels_seed_refinement(self):
        g = path_graph(2).with_layer("input", {0: "a", 1: "b"})
        assert color_refinement(g).num_classes == 2

    def test_history_monotone(self):
        g = _uniform(path_graph(7))
        result = color_refinement(g)
        assert list(result.history) == sorted(result.history)

    def test_classes_canonical_across_relabeling(self):
        g = _uniform(path_graph(5))
        renamed = g.relabel_nodes({0: "e", 1: "d", 2: "c", 3: "b", 4: "a"})
        classes_g = color_refinement(g).classes
        classes_r = color_refinement(renamed).classes
        mapping = {0: "e", 1: "d", 2: "c", 3: "b", 4: "a"}
        for v in g.nodes:
            assert classes_g[v] == classes_r[mapping[v]]

    def test_max_rounds_caps_refinement(self):
        g = _uniform(path_graph(8))
        partial = color_refinement(g, max_rounds=1)
        full = color_refinement(g)
        assert partial.num_classes <= full.num_classes


class TestViewEquivalence:
    """Refinement partition == explicit view partition (the cross-check)."""

    @pytest.mark.parametrize(
        "graph",
        [
            _uniform(cycle_graph(6)),
            _uniform(path_graph(6)),
            _uniform(star_graph(4)),
            _uniform(petersen_graph()),
            cycle_graph(6).with_layer(
                "input", {0: "a", 1: "b", 2: "c", 3: "a", 4: "b", 5: "c"}
            ),
        ],
        ids=["cycle6", "path6", "star4", "petersen", "labeled-c6"],
    )
    def test_partitions_agree(self, graph):
        by_views = sorted(map(sorted, view_partition(graph, graph.num_nodes)))
        by_refinement = sorted(map(sorted, refinement_partition(graph)))
        assert by_views == by_refinement

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_partitions_agree_random(self, n, seed):
        g = with_uniform_input(random_connected_graph(n, 0.3, seed=seed))
        by_views = sorted(map(sorted, view_partition(g, g.num_nodes)))
        by_refinement = sorted(map(sorted, refinement_partition(g)))
        assert by_views == by_refinement


class TestNorrisBound:
    """Theorem 3 (Norris): depth n views determine L_infinity."""

    @pytest.mark.parametrize(
        "graph",
        [
            _uniform(cycle_graph(8)),
            _uniform(path_graph(9)),
            _uniform(petersen_graph()),
        ],
        ids=["cycle8", "path9", "petersen"],
    )
    def test_stabilization_within_n(self, graph):
        assert stabilization_depth(graph) <= graph.num_nodes

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_stabilization_within_n_random(self, n, seed):
        g = with_uniform_input(random_connected_graph(n, 0.25, seed=seed))
        assert 1 <= stabilization_depth(g) <= n

    def test_stable_partition_really_stable(self):
        """One extra round after the stable depth must not split further."""
        g = _uniform(path_graph(8))
        depth = stabilization_depth(g)
        assert sorted(map(sorted, view_partition(g, depth))) == sorted(
            map(sorted, view_partition(g, depth + 2))
        )


class TestResultCaching:
    """The memoization contract: structural keying, shared read-only results."""

    def test_cache_hit_returns_same_object(self):
        g = _uniform(cycle_graph(8))
        assert color_refinement(g) is color_refinement(g)

    def test_structurally_equal_graphs_share_the_result(self):
        a = _uniform(cycle_graph(8))
        b = _uniform(cycle_graph(8))
        assert a is not b and a == b
        assert color_refinement(a) is color_refinement(b)

    def test_distinct_structures_do_not_collide(self):
        a = _uniform(cycle_graph(8))
        b = _uniform(path_graph(8))
        assert color_refinement(a).num_classes != color_refinement(b).num_classes

    def test_classes_mapping_is_read_only(self):
        result = color_refinement(_uniform(star_graph(4)))
        with pytest.raises(TypeError):
            result.classes[0] = 99  # type: ignore[index]
        with pytest.raises((TypeError, AttributeError)):
            result.classes.clear()  # type: ignore[attr-defined]

    def test_capped_runs_are_not_cached(self):
        g = _uniform(path_graph(8))
        capped = color_refinement(g, max_rounds=1)
        assert color_refinement(g, max_rounds=1) is not capped
