"""Experiments T1-T3: the theorems, validated over sweeps."""

from __future__ import annotations

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.analysis.sweeps import SweepRow, standard_families
from repro.core.derandomize import derandomize_pipeline
from repro.core.infinity import AInfinitySolver
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments._shared import colored, lifted_colored_c3
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    with_uniform_input,
)
from repro.graphs.lifts import lift_graph
from repro.problems.coloring import ColoringProblem, KHopColoringProblem
from repro.problems.gran import GranBundle
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem
from repro.runtime.composition import TwoStageComposition
from repro.runtime.engine import execute
from repro.views.refinement import stabilization_depth


def _bundles():
    decider = WellFormedInputDecider()
    return {
        "mis": GranBundle(MISProblem(), AnonymousMISAlgorithm(), decider),
        "coloring": GranBundle(ColoringProblem(), VertexColoringAlgorithm(), decider),
        "2-hop-coloring": GranBundle(
            KHopColoringProblem(2), TwoHopColoringAlgorithm(), decider
        ),
        "matching": GranBundle(
            MaximalMatchingProblem(), AnonymousMatchingAlgorithm(), decider
        ),
    }


@experiment("theorem1", cost=40.0)
def theorem1() -> ExperimentResult:
    """Theorem 1 end to end: randomized 2-hop stage + deterministic stage,
    for every GRAN problem, across graph families.  Compact variant of
    the full benchmark sweep (smaller family set per problem)."""
    rows = []
    all_valid = True
    for problem_name, bundle in _bundles().items():
        for name, graph in standard_families(sizes=(4, 6), include_random=False):
            result = derandomize_pipeline(
                bundle, graph, seed=1, strategy="prg", max_assignment_length=128
            )
            all_valid = all_valid and bundle.problem.is_valid_output(graph, result.outputs)
            rows.append(
                SweepRow(
                    f"{problem_name} / {name}",
                    {
                        "n": graph.num_nodes,
                        "stage1 rounds": result.stage1_rounds,
                        "quotient": result.quotient_size,
                        "sim rounds": result.stage2.simulation_rounds,
                    },
                )
            )
    return ExperimentResult(
        experiment_id="theorem1",
        title=(
            "Theorem 1 — randomized-coloring + deterministic-stage pipeline; "
            "every row validated against the problem definition"
        ),
        columns=["n", "stage1 rounds", "quotient", "sim rounds"],
        rows=rows,
        checks={"all outputs valid": all_valid},
    )


@experiment("decoupling", cost=5.0)
def decoupling_as_one_algorithm() -> ExperimentResult:
    """The headline sentence, recomposed: the randomized coloring stage
    and the deterministic stage fused into a SINGLE anonymous algorithm
    (with an embedded synchronizer for the staggered hand-off), run as
    one Las-Vegas execution per instance."""
    composed = TwoStageComposition(
        TwoHopColoringAlgorithm(),
        GreedyMISByColor(),
        lambda original_input, degree, color: (original_input[0], color),
    )
    problem = MISProblem()
    rows, checks = [], {}
    for name, graph in standard_families(sizes=(4, 6, 8), include_random=True):
        result = execute(composed, graph, seed=3, require_decided=True)
        checks[f"valid on {name}"] = problem.is_valid_output(graph, result.outputs)
        rows.append(
            SweepRow(
                name,
                {
                    "n": graph.num_nodes,
                    "total rounds": result.rounds,
                    "|MIS|": sum(result.outputs.values()),
                },
            )
        )
    return ExperimentResult(
        experiment_id="decoupling",
        title=(
            "DECOUPLE — the two-stage decoupling recomposed into one "
            "anonymous algorithm (coloring ; greedy MIS, synchronized)"
        ),
        columns=["n", "total rounds", "|MIS|"],
        rows=rows,
        checks=checks,
    )


@experiment("theorem2", cost=10.0)
def theorem2() -> ExperimentResult:
    """Theorem 2: A_infinity on prime and lifted instances."""
    problem, algorithm = MISProblem(), AnonymousMISAlgorithm()
    solver = AInfinitySolver(problem, algorithm)
    cases = [
        ("C3 (prime)", colored(with_uniform_input(cycle_graph(3)))),
        ("K4 (prime)", colored(with_uniform_input(complete_graph(4)))),
        ("P3 (prime)", colored(with_uniform_input(path_graph(3)))),
    ]
    for fiber in (2, 3, 4):
        _base, lift, _proj = lifted_colored_c3(fiber)
        cases.append((f"C{3 * fiber} over C3", lift))
    k4 = colored(with_uniform_input(complete_graph(4)))
    k4_lift, _ = lift_graph(k4, 2, seed=3)
    cases.append(("K4-lift x2", k4_lift))

    rows, checks = [], {}
    for name, instance in cases:
        result = solver.solve(instance)
        plain = instance.with_only_layers(["input"])
        checks[f"valid on {name}"] = problem.is_valid_output(plain, result.outputs)
        fibers_agree = all(
            len({result.outputs[v] for v in result.quotient.map.fiber(t)}) == 1
            for t in result.quotient.graph.nodes
        )
        checks[f"fiber-constant on {name}"] = fibers_agree
        rows.append(
            SweepRow(
                name,
                {
                    "n": instance.num_nodes,
                    "quotient": result.quotient.graph.num_nodes,
                    "sim rounds": result.simulation_rounds,
                    "assignment t": max(len(b) for b in result.assignment.values()),
                },
            )
        )
    return ExperimentResult(
        experiment_id="theorem2",
        title=(
            "Theorem 2 — A_infinity (smallest successful simulation on the "
            "view quotient) for MIS"
        ),
        columns=["n", "quotient", "sim rounds", "assignment t"],
        rows=rows,
        checks=checks,
    )


@experiment("norris", cost=3.0)
def norris() -> ExperimentResult:
    """Theorem 3 (Norris): view stabilization depth is at most n."""
    rows, checks = [], {}
    for name, graph in standard_families(sizes=(4, 6, 8, 12), include_random=True):
        depth = stabilization_depth(graph)
        n = graph.num_nodes
        checks[f"bound holds on {name}"] = depth <= n
        rows.append(
            SweepRow(name, {"n": n, "stab depth": depth, "slack": n - depth})
        )
    for n in (8, 16, 20):
        graph = with_uniform_input(path_graph(n))
        depth = stabilization_depth(graph)
        checks[f"path-{n} deep but bounded"] = n // 2 - 1 <= depth <= n
        rows.append(
            SweepRow(f"path-{n} (extremal)", {"n": n, "stab depth": depth, "slack": n - depth})
        )
    return ExperimentResult(
        experiment_id="norris",
        title="Theorem 3 (Norris) — view stabilization depth vs the bound n",
        columns=["n", "stab depth", "slack"],
        rows=rows,
        checks=checks,
    )
