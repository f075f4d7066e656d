"""Property-based tests over the derandomization core."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.core.infinity import AInfinitySolver
from repro.core.practical import PracticalDerandomizer, quotient_from_view
from repro.factor.quotient import finite_view_graph
from repro.graphs.builders import random_connected_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.lifts import lift_graph
from repro.problems.mis import MISProblem
from repro.runtime.engine import execute
from repro.views.local_views import view


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


small_graph = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=400),
)


@given(small_graph, st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_quotient_from_view_matches_centralized(params, fiber):
    """Every node's locally-reconstructed quotient is isomorphic to the
    centralized finite view graph — on random colored graphs and lifts."""
    n, seed = params
    base = colored(with_uniform_input(random_connected_graph(n, 0.4, seed=seed)))
    if fiber > 1 and base.num_edges == base.num_nodes - 1:
        return  # trees have no connected nontrivial lifts
    graph, _ = lift_graph(base, fiber, seed=seed) if fiber > 1 else (base, None)
    total = graph.num_nodes
    tree = view(graph, graph.nodes[0], 2 * (total + 1))
    rebuilt = quotient_from_view(tree, total + 1)
    central = finite_view_graph(graph)
    assert are_isomorphic(rebuilt, central.graph)


@given(small_graph)
@settings(max_examples=15, deadline=None)
def test_derandomized_mis_valid_on_random_graphs(params):
    """A_infinity yields a valid MIS on arbitrary greedy-colored random
    graphs (Theorem 2, property-based)."""
    n, seed = params
    graph = colored(with_uniform_input(random_connected_graph(n, 0.35, seed=seed)))
    solver = AInfinitySolver(
        MISProblem(), AnonymousMISAlgorithm(), strategy="prg", max_assignment_length=128
    )
    result = solver.solve(graph)
    plain = graph.with_only_layers(["input"])
    assert MISProblem().is_valid_output(plain, result.outputs)


@given(small_graph)
@settings(max_examples=15, deadline=None)
def test_practical_agrees_with_infinity(params):
    """The practical derandomizer and A_infinity implement the same
    selection rule, so outputs coincide on every instance."""
    n, seed = params
    graph = colored(with_uniform_input(random_connected_graph(n, 0.35, seed=seed)))
    problem, algorithm = MISProblem(), AnonymousMISAlgorithm()
    kwargs = dict(strategy="prg", max_assignment_length=128)
    a = AInfinitySolver(problem, algorithm, **kwargs).solve(graph)
    b = PracticalDerandomizer(problem, algorithm, **kwargs).solve(graph)
    assert a.outputs == b.outputs
    assert a.assignment == b.assignment


@given(small_graph, st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_recorded_random_colorings_always_valid(params, run_seed):
    """Las-Vegas means probability-1 validity: no (graph, seed) pair may
    ever produce an invalid 2-hop coloring."""
    n, seed = params
    graph = with_uniform_input(random_connected_graph(n, 0.3, seed=seed))
    result = execute(TwoHopColoringAlgorithm(), graph, seed=run_seed, require_decided=True)
    from repro.graphs.coloring import is_two_hop_coloring

    assert is_two_hop_coloring(graph, result.outputs)
