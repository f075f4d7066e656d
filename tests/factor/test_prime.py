"""Tests for primality and prime factors (Lemma 3 and its counterexample)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.factor.prime import all_factors, is_prime, prime_factors
from repro.factor.quotient import infinite_view_graph
from repro.graphs.builders import (
    cycle_graph,
    path_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.lifts import cyclic_lift


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
