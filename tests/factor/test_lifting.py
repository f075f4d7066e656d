"""Tests for the lifting lemma machinery — the engine of the paper's proofs."""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.exceptions import SimulationError
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.lifting import (
    lift_assignment,
    lift_outputs_to_product,
    project_outputs,
    verify_execution_lifting,
)
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.runtime.engine import execute


def colored_c3_and_lift(fiber: int):
    base = with_uniform_input(cycle_graph(3))
    base = apply_two_hop_coloring(base, greedy_two_hop_coloring(base))
    lift, projection = cyclic_lift(base, fiber)
    return FactorizingMap(lift, base, projection)


class TestAssignmentLifting:
    def test_lift_assignment_constant_on_fibers(self):
        fm = colored_c3_and_lift(3)
        base_assignment = {0: "01", 1: "10", 2: "11"}
        lifted = lift_assignment(base_assignment, fm)
        for v in fm.product.nodes:
            assert lifted[v] == base_assignment[fm(v)]

    def test_missing_node_rejected(self):
        fm = colored_c3_and_lift(2)
        with pytest.raises(SimulationError, match="does not cover"):
            lift_assignment({0: "01"}, fm)

    def test_output_lift_and_project_roundtrip(self):
        fm = colored_c3_and_lift(2)
        base_outputs = {0: "a", 1: "b", 2: "c"}
        lifted = lift_outputs_to_product(base_outputs, fm)
        assert project_outputs(lifted, fm) == base_outputs

    def test_project_detects_fiber_disagreement(self):
        fm = colored_c3_and_lift(2)
        bad = {v: repr(v) for v in fm.product.nodes}  # all distinct
        with pytest.raises(SimulationError, match="disagrees"):
            project_outputs(bad, fm)


class TestLiftingLemma:
    """Executions on the factor lift to executions on the product with
    identical per-fiber messages and outputs."""

    @pytest.mark.parametrize(
        "algorithm",
        [TwoHopColoringAlgorithm(), AnonymousMISAlgorithm(), VertexColoringAlgorithm()],
        ids=["two-hop", "mis", "coloring"],
    )
    @pytest.mark.parametrize("fiber", [2, 3, 4])
    def test_lifting_lemma_on_cycles(self, algorithm, fiber):
        fm = colored_c3_and_lift(fiber)
        # Take bits from a real successful run on the factor so the
        # simulation is successful and outputs exist.
        factor_input = fm.factor.with_only_layers(["input"])
        run = execute(algorithm, factor_input, seed=13, require_decided=True)
        assignment = run.trace.assignment()
        stripped = FactorizingMap(
            fm.product.with_only_layers(["input"]),
            factor_input,
            fm.as_dict(),
        )
        comparison = verify_execution_lifting(algorithm, stripped, assignment)
        assert comparison.lemma_holds
        assert comparison.factor_result.successful
        assert comparison.product_result.successful

    def test_lifting_lemma_on_random_lift(self):
        base = with_uniform_input(cycle_graph(4))
        base = apply_two_hop_coloring(base, greedy_two_hop_coloring(base))
        lift, projection = lift_graph(base, 3, seed=5)
        factor_input = base.with_only_layers(["input"])
        fm = FactorizingMap(
            lift.with_only_layers(["input"]), factor_input, projection
        )
        algorithm = AnonymousMISAlgorithm()
        run = execute(algorithm, factor_input, seed=2, require_decided=True)
        comparison = verify_execution_lifting(algorithm, fm, run.trace.assignment())
        assert comparison.lemma_holds

    def test_lifted_outputs_project_back(self):
        fm = colored_c3_and_lift(2)
        algorithm = TwoHopColoringAlgorithm()
        factor_input = fm.factor.with_only_layers(["input"])
        run = execute(algorithm, factor_input, seed=21, require_decided=True)
        stripped = FactorizingMap(
            fm.product.with_only_layers(["input"]), factor_input, fm.as_dict()
        )
        comparison = verify_execution_lifting(
            algorithm, stripped, run.trace.assignment()
        )
        projected = project_outputs(comparison.product_result.outputs, stripped)
        assert projected == comparison.factor_result.outputs


class TestImpossibilityConsequence:
    """Angluin-style corollary: on a product, deterministic-style replayed
    executions cannot elect a unique leader because fibers agree."""

    def test_fiber_symmetric_outputs(self):
        fm = colored_c3_and_lift(4)
        algorithm = AnonymousMISAlgorithm()
        factor_input = fm.factor.with_only_layers(["input"])
        run = execute(algorithm, factor_input, seed=9, require_decided=True)
        stripped = FactorizingMap(
            fm.product.with_only_layers(["input"]), factor_input, fm.as_dict()
        )
        comparison = verify_execution_lifting(
            algorithm, stripped, run.trace.assignment()
        )
        outputs = comparison.product_result.outputs
        for target in stripped.factor.nodes:
            fiber_values = {outputs[v] for v in stripped.fiber(target)}
            assert len(fiber_values) == 1
