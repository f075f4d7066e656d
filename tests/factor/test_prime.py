"""Tests for primality and prime factors (Lemma 3 and its counterexample)."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.practical import quotient_from_view
from repro.exceptions import GraphError
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.lifting import verify_execution_lifting
from repro.factor.prime import (
    _equal_size_partitions,
    _partition_to_factor,
    all_factors,
    is_prime,
    prime_factors,
)
from repro.factor.quotient import infinite_view_graph
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.runtime.engine import execute
from repro.views.local_views import all_views
from tests.oracles import reference_all_factors


def _uniform(graph):
    return graph.with_layer("input", {v: 0 for v in graph.nodes})


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


class TestPrimality:
    def test_c3_prime(self):
        assert is_prime(_uniform(cycle_graph(3)))

    def test_c4_prime(self):
        # C4's only candidate quotient (opposite nodes) needs a double
        # edge, so C4 is prime despite being vertex-transitive.
        assert is_prime(_uniform(cycle_graph(4)))

    def test_c6_not_prime(self):
        assert not is_prime(_uniform(cycle_graph(6)))
        # C8 is not prime either: C4 is a proper factor.
        assert all_factors(_uniform(cycle_graph(8)))

    def test_path_prime(self):
        assert is_prime(_uniform(path_graph(5)))

    def test_star_prime(self):
        assert is_prime(_uniform(star_graph(4)))

    def test_colored_lift_not_prime(self):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 2)
        assert not is_prime(lift)
        assert is_prime(base)

    def test_size_guard(self):
        with pytest.raises(GraphError, match="limited to 16"):
            all_factors(_uniform(cycle_graph(18)))


class TestPrimeFactors:
    def test_uncolored_c12_has_two_prime_factors(self):
        """The paper's example after Lemma 3: the uncolored 12-cycle has
        two distinct prime factors, the 3-cycle and the 4-cycle."""
        primes = prime_factors(_uniform(cycle_graph(12)))
        sizes = sorted(p.num_nodes for p in primes)
        assert sizes == [3, 4]
        for p in primes:
            assert is_prime(p)

    def test_uncolored_c6_prime_factor_is_c3(self):
        primes = prime_factors(_uniform(cycle_graph(6)))
        assert len(primes) == 1
        assert are_isomorphic(primes[0], _uniform(cycle_graph(3)))

    def test_prime_graph_is_its_own_prime_factor(self):
        g = _uniform(path_graph(4))
        primes = prime_factors(g)
        assert len(primes) == 1
        assert are_isomorphic(primes[0], g)


class TestLemma3:
    """For 2-hop colored graphs the prime factor is unique and equals the
    infinite view graph."""

    @pytest.mark.parametrize("fiber", [2, 4])
    def test_unique_prime_factor_is_view_quotient(self, fiber):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, fiber)
        primes = prime_factors(lift)
        assert len(primes) == 1
        quotient = infinite_view_graph(lift)
        assert are_isomorphic(primes[0], quotient.graph)

    def test_every_factor_of_colored_lift_has_same_quotient(self):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 4)  # colored C12
        quotient = infinite_view_graph(lift)
        for fm in all_factors(lift, include_trivial=True):
            factor_quotient = infinite_view_graph(fm.factor)
            assert are_isomorphic(factor_quotient.graph, quotient.graph)


# ----------------------------------------------------------------------
# The pruned enumeration against the unpruned one
# ----------------------------------------------------------------------


def _factor_list(maps):
    return [(factor_map.as_dict(), factor_map.factor) for factor_map in maps]


@st.composite
def small_graphs(draw):
    """Connected graphs on at most 10 nodes with 1-3 input labels; half
    of them cyclic lifts of a smaller labeled graph, which have proper
    factors."""
    lift = draw(st.booleans())
    n = draw(st.integers(min_value=2 if lift else 1, max_value=5 if lift else 10))
    graph = random_connected_graph(n, draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 999)))
    alphabet = draw(st.integers(min_value=1, max_value=3))
    graph = graph.with_layer("input", {v: draw(st.integers(0, alphabet - 1)) for v in graph.nodes})
    if lift:
        try:
            graph, _projection = cyclic_lift(graph, draw(st.integers(2, 10 // n)))
        except GraphError:  # a disconnected lift
            pass
    return graph


@settings(max_examples=100, deadline=None)
@given(graph=small_graphs())
def test_pruned_enumeration_matches_the_unpruned_one(graph):
    assert _factor_list(all_factors(graph, include_trivial=True)) == _factor_list(
        reference_all_factors(graph)
    )


# Bases on 3-4 nodes that contain a cycle: a tree base has only
# disconnected lifts.
COVERING_BASES = {
    "C3": [(0, 1), (1, 2), (0, 2)],
    "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "C4+chord": [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    "paw": [(0, 1), (1, 2), (0, 2), (2, 3)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


@st.composite
def covering_instances(draw):
    """``(lift, base, fiber)``: a random ``fiber``-fold lift, of at most
    12 nodes, of a base on 3-4 nodes that contains a cycle, with 1-2
    input labels and, half of the time, a 2-hop coloring of the base
    (which the lift inherits, a covering being a bijection on each
    neighbourhood).  The base is a factor of the lift by construction,
    so unlike ``small_graphs`` every draw has a proper factor, often of
    fiber 3 or more."""
    base = LabeledGraph(COVERING_BASES[draw(st.sampled_from(sorted(COVERING_BASES)))])
    base = base.with_layer("input", {v: draw(st.integers(0, 1)) for v in base.nodes})
    if draw(st.booleans()):
        base = colored(base)
    fiber = draw(st.integers(2, 12 // base.num_nodes))
    lift, _projection = lift_graph(base, fiber, seed=draw(st.integers(0, 999)))
    return lift, base, fiber


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=covering_instances())
def test_pruned_enumeration_matches_the_unpruned_one_on_coverings(case):
    lift, base, _fiber = case
    found = all_factors(lift, include_trivial=True)
    assert _factor_list(found) == _factor_list(reference_all_factors(lift))
    assert any(are_isomorphic(factor_map.factor, base) for factor_map in found)


colored_coverings = covering_instances().filter(lambda case: case[1].has_layer("color"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=colored_coverings)
def test_colored_coverings_have_the_view_quotient_as_unique_prime(case):
    """Lemmas 2 and 3 on a 2-hop colored lift: ``G_∞`` is a factor whose
    multiplicity the fiber divides, and it is the only prime factor."""
    lift, _base, fiber = case
    quotient = infinite_view_graph(lift)
    assert quotient.map.multiplicity % fiber == 0
    primes = prime_factors(lift)
    assert len(primes) == 1
    assert are_isomorphic(primes[0], quotient.graph)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=colored_coverings)
def test_colored_coverings_rebuild_the_view_quotient_from_every_view(case):
    """Lemma 4 on a 2-hop colored lift: ``G_∞`` is prime, its depth-``m``
    views (``m = |V_∞|``) are pairwise distinct, and each is the alias
    of its fiber: every lift node's depth-``m`` view is its image's.
    Every node's depth-``2n+2`` view rebuilds ``G_∞``."""
    lift, _base, _fiber = case
    quotient = infinite_view_graph(lift)
    m = quotient.graph.num_nodes
    assert is_prime(quotient.graph)
    aliases = all_views(quotient.graph, m)
    assert len({id(alias) for alias in aliases.values()}) == m
    lift_views = all_views(lift, m)
    assert all(lift_views[v] is aliases[quotient.map(v)] for v in lift.nodes)
    n = lift.num_nodes
    for tree in all_views(lift, 2 * n + 2).values():
        assert are_isomorphic(quotient_from_view(tree, n + 1), quotient.graph)


LIFTED_ALGORITHMS = [AnonymousMISAlgorithm, VertexColoringAlgorithm, TwoHopColoringAlgorithm]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    case=colored_coverings,
    algorithm_class=st.sampled_from(LIFTED_ALGORITHMS),
    seed=st.integers(0, 999),
)
def test_colored_coverings_lift_executions_of_the_view_quotient(case, algorithm_class, seed):
    """The lifting lemma along ``f_∞``: a run on ``G_∞`` lifts to the
    2-hop colored lift message for message and output for output."""
    lift, _base, _fiber = case
    quotient_map = infinite_view_graph(lift).map
    algorithm = algorithm_class()
    factor_run = execute(algorithm, quotient_map.factor, seed=seed, require_decided=True)
    comparison = verify_execution_lifting(algorithm, quotient_map, factor_run.trace.assignment())
    assert comparison.lemma_holds


@pytest.mark.parametrize("n", [6, 8, 10])
def test_pruned_enumeration_matches_on_uncolored_cycles(n):
    # Every node shares one view class: the unpruned search is widest.
    graph = _uniform(cycle_graph(n))
    found = _factor_list(all_factors(graph, include_trivial=True))
    assert found == _factor_list(reference_all_factors(graph))
    assert len(found) > 1


# ----------------------------------------------------------------------
# Non-factor partitions are rejected before their quotient is built
# ----------------------------------------------------------------------


def _colored_c12():
    lift, _projection = cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 4)
    return lift


@pytest.mark.parametrize(
    "make_graph", [_colored_c12, lambda: _uniform(cycle_graph(12))], ids=["colored", "uncolored"]
)
def test_only_factors_are_built(monkeypatch, make_graph):
    graph = make_graph()
    built = []
    init = FactorizingMap.__init__

    def spy(self, product, factor, mapping, check=True):
        built.append(factor)
        init(self, product, factor, mapping, check)

    monkeypatch.setattr(FactorizingMap, "__init__", spy)
    factors = all_factors(graph, include_trivial=True)
    assert len(built) == len(factors) > 1


def test_partition_whose_blocks_see_different_blocks_is_rejected():
    # 2-hop independent pairs of C12, but 0 sees the blocks of 11 and 1
    # while 3 sees the blocks of 2 and 4.
    partition = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
    assert _partition_to_factor(_uniform(cycle_graph(12)), partition) is None


def test_partition_whose_blocks_see_the_same_blocks_is_a_factor():
    graph = _uniform(cycle_graph(12))
    factor_map = _partition_to_factor(graph, [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)])
    assert factor_map is not None
    assert are_isomorphic(factor_map.factor, _uniform(cycle_graph(4)))
    FactorizingMap(graph, factor_map.factor, factor_map.as_dict())  # verifies


def test_partition_search_leaves_no_cyclic_garbage():
    """The backtracking closure refers to itself; unless the search
    breaks that cycle, every partition it found stays alive until the
    next cyclic collection."""
    graph = with_uniform_input(cycle_graph(12))
    classes = {v: 0 for v in graph.nodes}
    graph.nodes_within(0, 2)  # the CSR mirror, built outside the check
    gc.collect()
    gc.disable()
    try:
        assert len(_equal_size_partitions(graph, classes, 3)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
