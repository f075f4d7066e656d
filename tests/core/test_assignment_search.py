"""Tests for the assignment search (Section 2.2 / Update-Bits)."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.core.assignment_search import (
    SearchBudgetExceeded,
    enumerate_extensions,
    smallest_successful_assignment,
    smallest_successful_extension,
)
from repro.core.orders import assignment_sort_key
from repro.exceptions import DerandomizationError
from repro.graphs.builders import complete_graph, path_graph, with_uniform_input
from repro.runtime.engine import execute


class TestEnumeration:
    def test_lexicographic_order(self):
        assignments = list(
            enumerate_extensions({"a": "", "b": ""}, ["a", "b"], 1)
        )
        assert assignments == [
            {"a": "0", "b": "0"},
            {"a": "0", "b": "1"},
            {"a": "1", "b": "0"},
            {"a": "1", "b": "1"},
        ]

    def test_prefixes_respected(self):
        assignments = list(
            enumerate_extensions({"a": "1", "b": "0"}, ["a", "b"], 2)
        )
        assert all(a["a"].startswith("1") and a["b"].startswith("0") for a in assignments)
        assert len(assignments) == 4

    def test_order_matches_sort_key(self):
        order = ["a", "b"]
        assignments = list(enumerate_extensions({"a": "", "b": ""}, order, 2))
        keys = [assignment_sort_key(a, order) for a in assignments]
        assert keys == sorted(keys)

    def test_prg_is_permutation(self):
        order = ["a"]
        lex = list(enumerate_extensions({"a": ""}, order, 3))
        prg = list(enumerate_extensions({"a": ""}, order, 3, strategy="prg"))
        assert sorted(map(repr, lex)) == sorted(map(repr, prg))
        assert lex != prg  # virtually certain for 8 items

    def test_prg_deterministic(self):
        a = list(enumerate_extensions({"a": ""}, ["a"], 3, strategy="prg"))
        b = list(enumerate_extensions({"a": ""}, ["a"], 3, strategy="prg"))
        assert a == b

    def test_limit(self):
        assignments = list(enumerate_extensions({"a": ""}, ["a"], 4, limit=3))
        assert len(assignments) == 3

    def test_too_long_prefix_rejected(self):
        with pytest.raises(DerandomizationError, match="not extendable"):
            list(enumerate_extensions({"a": "0000"}, ["a"], 2))

    def test_unknown_strategy(self):
        with pytest.raises(DerandomizationError, match="unknown search strategy"):
            list(enumerate_extensions({"a": ""}, ["a"], 1, strategy="bogus"))


class TestSmallestSuccessful:
    def test_single_node_two_hop_coloring(self):
        g = with_uniform_input(path_graph(1))
        algorithm = TwoHopColoringAlgorithm()
        found = smallest_successful_assignment(algorithm, g, [0], max_length=8)
        # A single node commits at round 3 regardless of bits: smallest
        # is the all-zero length-3 assignment.
        assert found == {0: "000"}

    def test_result_is_minimal(self):
        g = with_uniform_input(path_graph(2))
        algorithm = AnonymousMISAlgorithm()
        order = list(g.nodes)
        found = smallest_successful_assignment(algorithm, g, order, max_length=8)
        found_key = assignment_sort_key(found, order)
        # Exhaustively confirm nothing smaller succeeds.
        for t in range(1, found_key[0] + 1):
            for candidate in enumerate_extensions({v: "" for v in order}, order, t):
                key = assignment_sort_key(candidate, order)
                if key < found_key:
                    assert not execute(
                        algorithm, g, assignment=candidate
                    ).successful

    def test_budget_guard(self):
        g = with_uniform_input(complete_graph(4))
        algorithm = TwoHopColoringAlgorithm()
        with pytest.raises(SearchBudgetExceeded):
            smallest_successful_assignment(
                algorithm, g, list(g.nodes), max_length=20, budget=10
            )

    def test_max_length_guard(self):
        g = with_uniform_input(path_graph(2))
        algorithm = TwoHopColoringAlgorithm()
        with pytest.raises(DerandomizationError, match="no successful assignment"):
            smallest_successful_assignment(
                algorithm, g, list(g.nodes), max_length=2
            )

    def test_prg_strategy_finds_success(self):
        g = with_uniform_input(complete_graph(4))
        algorithm = AnonymousMISAlgorithm()
        found = smallest_successful_assignment(
            algorithm, g, list(g.nodes), max_length=64, strategy="prg"
        )
        assert execute(algorithm, g, assignment=found).successful

    def test_unknown_strategy(self):
        g = with_uniform_input(path_graph(2))
        with pytest.raises(DerandomizationError, match="unknown search strategy 'bogus'"):
            smallest_successful_assignment(
                AnonymousMISAlgorithm(), g, list(g.nodes), strategy="bogus"
            )


class TestExtensions:
    def test_extension_respects_prefix(self):
        g = with_uniform_input(path_graph(2))
        algorithm = AnonymousMISAlgorithm()
        prefix = {0: "1", 1: "0"}
        found = smallest_successful_extension(
            algorithm, g, list(g.nodes), prefix, target_length=4
        )
        assert found is not None
        assert found[0].startswith("1") and found[1].startswith("0")
        assert execute(algorithm, g, assignment=found).successful

    def test_extension_none_when_too_short(self):
        g = with_uniform_input(path_graph(2))
        algorithm = TwoHopColoringAlgorithm()
        found = smallest_successful_extension(
            algorithm, g, list(g.nodes), {0: "", 1: ""}, target_length=1
        )
        assert found is None


# A search order must list every node of the graph exactly once.
BAD_ORDERS = [
    pytest.param([0, 1, 7], id="foreign-node"),
    pytest.param([0, 1, 1], id="duplicate"),
    pytest.param([0], id="missing-node"),
    pytest.param([1, 0, 0, 1], id="twice-each"),
    pytest.param([], id="empty"),
]


def _search_assignment(algorithm, graph, order, strategy):
    return smallest_successful_assignment(algorithm, graph, order, strategy=strategy)


def _search_extension(algorithm, graph, order, strategy):
    assert strategy == "lexicographic"  # the extension search has no other order
    return smallest_successful_extension(
        algorithm, graph, order, {v: "" for v in order}, target_length=3
    )


# (search, strategy): the assignment search in both orders, the
# extension search in its lexicographic one.
SEARCHES = [
    pytest.param(_search_assignment, "lexicographic", id="_search_assignment-lexicographic"),
    pytest.param(_search_assignment, "prg", id="_search_assignment-prg"),
    pytest.param(_search_extension, "lexicographic", id="_search_extension-lexicographic"),
]


@pytest.mark.parametrize("search, strategy", SEARCHES)
@pytest.mark.parametrize("order", BAD_ORDERS)
def test_node_order_must_be_a_permutation_of_the_nodes(search, strategy, order):
    g = with_uniform_input(path_graph(2))
    with pytest.raises(DerandomizationError, match="is not a permutation of the graph's nodes"):
        search(AnonymousMISAlgorithm(), g, order, strategy)


@pytest.mark.parametrize("search, strategy", SEARCHES)
def test_any_permutation_is_a_valid_node_order(search, strategy):
    g = with_uniform_input(path_graph(2))
    for order in ([0, 1], [1, 0]):
        found = search(AnonymousMISAlgorithm(), g, order, strategy)
        assert set(found) == {0, 1}
        assert execute(AnonymousMISAlgorithm(), g, assignment=found).successful
