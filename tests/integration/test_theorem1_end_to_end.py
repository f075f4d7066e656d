"""Integration tests: Theorem 1's full decoupling across problems and
graph families.

Every test here runs the complete story: a randomized 2-hop coloring
stage, the deterministic stage on Π^c, and validation against Π — the
paper's "randomization = 2-hop coloring" in executable form.
"""

from __future__ import annotations

import pytest

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.core.derandomize import derandomize_pipeline
from repro.problems.coloring import ColoringProblem, KHopColoringProblem
from repro.problems.gran import GranBundle
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem
from tests.conftest import small_graph_zoo

DECIDER = WellFormedInputDecider()
BUNDLES = [
    GranBundle(MISProblem(), AnonymousMISAlgorithm(), DECIDER),
    GranBundle(ColoringProblem(), VertexColoringAlgorithm(), DECIDER),
    GranBundle(KHopColoringProblem(2), TwoHopColoringAlgorithm(), DECIDER),
    GranBundle(MaximalMatchingProblem(), AnonymousMatchingAlgorithm(), DECIDER),
]
BUNDLE_IDS = [b.problem.name for b in BUNDLES]

ZOO = [case for case in small_graph_zoo() if case[1].num_nodes <= 10]
ZOO_IDS = [name for name, _ in ZOO]


@pytest.mark.parametrize("bundle", BUNDLES, ids=BUNDLE_IDS)
@pytest.mark.parametrize("name,graph", ZOO, ids=ZOO_IDS)
def test_pipeline_across_zoo(bundle, name, graph):
    """The pipeline produces validated outputs on every zoo instance; the
    call itself raises on any invalid output, so success *is* Theorem 1."""
    result = derandomize_pipeline(
        bundle, graph, seed=1, strategy="prg", max_assignment_length=128
    )
    assert set(result.outputs) == set(graph.nodes)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_different_colorings_still_valid(seed):
    """The deterministic stage must work whatever 2-hop coloring stage 1
    happens to produce."""
    from repro.graphs.builders import cycle_graph, with_uniform_input

    bundle = BUNDLES[0]
    g = with_uniform_input(cycle_graph(6))
    result = derandomize_pipeline(bundle, g, seed=seed, strategy="prg")
    assert MISProblem().is_valid_output(g, result.outputs)


def test_stage2_determinism_given_same_coloring():
    """With the same colored instance, stage 2 output is a pure function —
    two runs agree bit for bit."""
    from repro.core.practical import PracticalDerandomizer
    from repro.graphs.builders import cycle_graph, with_uniform_input
    from repro.graphs.coloring import apply_two_hop_coloring
    from repro.runtime.engine import execute

    g = with_uniform_input(cycle_graph(5))
    coloring = execute(TwoHopColoringAlgorithm(), g, seed=9, require_decided=True).outputs
    colored = apply_two_hop_coloring(g, coloring)
    solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
    assert solver.solve(colored).outputs == solver.solve(colored).outputs


def test_quotient_shrinks_with_structured_coloring():
    """A periodic coloring keeps the quotient small; stage 2 then
    simulates on a graph smaller than the input (the whole point of the
    view-quotient machinery)."""
    from repro.core.practical import PracticalDerandomizer
    from repro.graphs.builders import cycle_graph, with_uniform_input
    from repro.graphs.coloring import apply_two_hop_coloring
    from repro.graphs.lifts import cyclic_lift
    from repro.graphs.coloring import greedy_two_hop_coloring

    base = with_uniform_input(cycle_graph(3))
    base = apply_two_hop_coloring(base, greedy_two_hop_coloring(base))
    lift, _ = cyclic_lift(base, 5)  # C15 with period-3 coloring
    solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm())
    result = solver.solve(lift)
    assert result.quotient.graph.num_nodes == 3
    plain = lift.with_only_layers(["input"])
    assert MISProblem().is_valid_output(plain, result.outputs)
