"""Tests for the analysis harness: stats, symmetry, sweeps."""

from __future__ import annotations

import pytest

from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.analysis.stats import RunStats, aggregate
from repro.analysis.sweeps import FamilySpec, SweepRow, format_table, standard_families
from repro.analysis.symmetry import (
    election_is_deterministically_impossible,
    view_class_profile,
)
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    with_uniform_input,
)
from repro.runtime.engine import execute


class TestStats:
    def test_run_stats_of_execution(self):
        g = with_uniform_input(cycle_graph(4))
        result = execute(TwoHopColoringAlgorithm(), g, seed=0, require_decided=True)
        stats = RunStats.of(g, result, bits_per_round=1)
        assert stats.decided
        assert stats.rounds == result.rounds
        assert stats.total_bits == result.rounds * 4
        assert stats.total_messages == result.rounds * 4

    def test_aggregate(self):
        g = with_uniform_input(cycle_graph(4))
        runs = [
            RunStats.of(g, execute(TwoHopColoringAlgorithm(), g, seed=s, require_decided=True), 1)
            for s in range(4)
        ]
        agg = aggregate(runs)
        assert agg.runs == 4
        assert agg.min_rounds <= agg.mean_rounds <= agg.max_rounds
        assert "rounds" in str(agg)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_message_size_accounted(self):
        g = with_uniform_input(cycle_graph(4))
        result = execute(TwoHopColoringAlgorithm(), g, seed=0, require_decided=True)
        stats = RunStats.of(g, result, bits_per_round=1)
        # 2-hop coloring relays neighbor lists: messages are nontrivial.
        assert stats.max_message_chars > 10


class TestSymmetry:
    def test_uniform_cycle_fully_symmetric(self):
        profile = view_class_profile(with_uniform_input(cycle_graph(8)))
        assert profile.num_classes == 1
        assert profile.class_sizes == (8,)
        assert election_is_deterministically_impossible(
            with_uniform_input(cycle_graph(8))
        )

    def test_path_partially_symmetric(self):
        g = with_uniform_input(path_graph(4))
        profile = view_class_profile(g)
        assert profile.num_classes == 2
        assert profile.class_sizes == (2, 2)
        assert election_is_deterministically_impossible(g)

    def test_asymmetric_graph_allows_election(self):
        # A path with distinct labels: all views distinct.
        g = path_graph(3).with_layer("input", {0: "a", 1: "b", 2: "c"})
        assert not election_is_deterministically_impossible(g)

    def test_petersen_symmetric(self):
        assert election_is_deterministically_impossible(
            with_uniform_input(petersen_graph())
        )

    def test_star_impossible_despite_distinct_center(self):
        # Center is unique, but the leaves collapse: still impossible.
        assert election_is_deterministically_impossible(
            with_uniform_input(star_graph(3))
        )


class TestSweeps:
    def test_standard_families_well_formed(self):
        from repro.problems.mis import MISProblem

        problem = MISProblem()
        for name, graph in standard_families(sizes=(4, 6), include_random=True):
            assert problem.is_instance(graph), name

    def test_unknown_builder_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown family builder"):
            FamilySpec("bogus", "not-a-builder", (), 4).build()

    def test_format_table_alignment(self):
        rows = [
            SweepRow("case-a", {"x": 1, "y": 2.5}),
            SweepRow("case-bb", {"x": 10, "y": 0.123456}),
        ]
        table = format_table("My Table", ["x", "y"], rows)
        lines = table.splitlines()
        assert lines[0] == "My Table"
        assert "case-a" in table and "0.123" in table
        # All data lines have equal prefix alignment for the first column.
        header_line = lines[2]
        assert header_line.startswith("case")
