"""Cost experiments: the randomized algorithms and the ablations."""

from __future__ import annotations

from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.analysis.stats import RunStats, aggregate
from repro.analysis.sweeps import SweepRow
from repro.core.assignment_search import smallest_successful_assignment
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments._shared import colored
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import is_two_hop_coloring
from repro.problems.mis import MISProblem
from repro.runtime.engine import collect_engine_metrics, execute

SEEDS = range(5)


@experiment("two-hop-cost", cost=6.0)
def two_hop_cost() -> ExperimentResult:
    """R1: rounds/bits of the generic randomized 2-hop coloring stage."""
    cases = [(f"cycle-{n}", with_uniform_input(cycle_graph(n))) for n in (4, 8, 16, 32)]
    cases += [
        (f"complete-{n}", with_uniform_input(complete_graph(n))) for n in (4, 6, 8)
    ]
    cases += [
        (f"random-{n}", with_uniform_input(random_connected_graph(n, 0.2, seed=n)))
        for n in (8, 16, 32)
    ]
    algorithm = TwoHopColoringAlgorithm()
    rows, checks = [], {}
    for name, graph in cases:
        runs = []
        for seed in SEEDS:
            result = execute(algorithm, graph, seed=seed, require_decided=True)
            checks[f"valid {name} seed {seed}"] = is_two_hop_coloring(
                graph, result.outputs
            )
            runs.append(RunStats.of(graph, result, algorithm.bits_per_round))
        agg = aggregate(runs)
        rows.append(
            SweepRow(
                name,
                {
                    "n": graph.num_nodes,
                    "mean rounds": agg.mean_rounds,
                    "max rounds": agg.max_rounds,
                    "mean bits": agg.mean_bits,
                },
            )
        )
    return ExperimentResult(
        experiment_id="two-hop-cost",
        title="R1 — randomized anonymous 2-hop coloring costs (5 seeds each)",
        columns=["n", "mean rounds", "max rounds", "mean bits"],
        rows=rows,
        checks=checks,
    )


@experiment("mis-cost", cost=6.0)
def mis_cost() -> ExperimentResult:
    """R2: randomized MIS vs the deterministic greedy-by-color baseline."""
    problem = MISProblem()
    cases = [(f"cycle-{n}", with_uniform_input(cycle_graph(n))) for n in (8, 16, 32)]
    cases.append(
        ("random-16", with_uniform_input(random_connected_graph(16, 0.15, seed=16)))
    )
    rows, checks = [], {}
    for name, graph in cases:
        runs, sizes = [], []
        for seed in SEEDS:
            result = execute(
                AnonymousMISAlgorithm(), graph, seed=seed, require_decided=True
            )
            checks[f"randomized valid {name} seed {seed}"] = problem.is_valid_output(
                graph, result.outputs
            )
            runs.append(RunStats.of(graph, result, 1))
            sizes.append(sum(result.outputs.values()))
        greedy = execute(GreedyMISByColor(), colored(graph), require_decided=True)
        checks[f"greedy valid {name}"] = problem.is_valid_output(graph, greedy.outputs)
        agg = aggregate(runs)
        rows.append(
            SweepRow(
                name,
                {
                    "n": graph.num_nodes,
                    "rand rounds": agg.mean_rounds,
                    "greedy rounds": greedy.rounds,
                    "rand |MIS|": sum(sizes) / len(sizes),
                    "greedy |MIS|": sum(greedy.outputs.values()),
                },
            )
        )
    return ExperimentResult(
        experiment_id="mis-cost",
        title="R2 — anonymous randomized MIS vs deterministic greedy-by-color",
        columns=["n", "rand rounds", "greedy rounds", "rand |MIS|", "greedy |MIS|"],
        rows=rows,
        checks=checks,
    )


@experiment("candidate-growth", cost=8.0)
def candidate_growth() -> ExperimentResult:
    """The super-exponential heart of A_*: how many (graph, labeling)
    pairs candidate enumeration examines, and how few survive C2/C3,
    as the phase and the node cap grow."""
    from repro.core.candidates import enumerate_candidates
    from repro.experiments._shared import lifted_colored_c3
    from repro.problems.problem import TwoHopColoredVariant
    from repro.views.local_views import view
    import repro.core.candidates as candidates_module

    _base, lift, _proj = lifted_colored_c3(2)
    instance = lift.with_layer("bits", {v: "" for v in lift.nodes})
    instance = instance.with_only_layers(["input", "color", "bits"])
    problem_c = TwoHopColoredVariant(MISProblem())

    rows, checks = [], {}
    previous_survivors = 0
    for phase, cap in [(2, 2), (3, 3), (4, 4)]:
        observed = view(instance, instance.nodes[0], phase)
        examined = {"n": 0}
        original = candidates_module._try_candidate

        def counting(*args, **kwargs):
            examined["n"] += 1
            return original(*args, **kwargs)

        candidates_module._try_candidate = counting
        try:
            survivors = enumerate_candidates(
                observed,
                phase,
                problem_c,
                ("input", "color", "bits"),
                max_nodes=cap,
                budget=500_000,
            )
        finally:
            candidates_module._try_candidate = original
        checks[f"survivors nonempty (p={phase})"] = phase < 3 or bool(survivors)
        checks[f"survival is sparse (p={phase})"] = len(survivors) <= max(
            1, examined["n"] // 10
        )
        rows.append(
            SweepRow(
                f"phase {phase}, cap {cap}",
                {
                    "examined": examined["n"],
                    "distinct finite view graphs": len(survivors),
                },
            )
        )
        previous_survivors = len(survivors)
    checks["converged to the quotient"] = previous_survivors >= 1
    return ExperimentResult(
        experiment_id="candidate-growth",
        title=(
            "ABL — candidate enumeration growth in A_*'s Update-Graph "
            "(examined pairs vs surviving candidates, colored C6)"
        ),
        columns=["examined", "distinct finite view graphs"],
        rows=rows,
        checks=checks,
    )


@experiment("success-curve", cost=5.0)
def success_curve() -> ExperimentResult:
    """The probability a random length-t assignment succeeds — the single
    quantity behind every search cost in the derandomization."""
    from repro.analysis.probability import measure_success_curve

    algorithm = AnonymousMISAlgorithm()
    rows, checks = [], {}
    for name, graph in [
        ("path-2", with_uniform_input(path_graph(2))),
        ("path-3", with_uniform_input(path_graph(3))),
        ("cycle-5", with_uniform_input(cycle_graph(5))),
    ]:
        curve = measure_success_curve(
            algorithm, graph, lengths=(2, 3, 4, 8, 16), samples_per_length=150
        )
        probabilities = dict(curve.points)
        checks[f"monotone-ish on {name}"] = all(
            later >= earlier - 0.1
            for earlier, later in zip(
                [p for _t, p in curve.points], [p for _t, p in curve.points][1:]
            )
        )
        checks[f"long assignments succeed on {name}"] = probabilities[16] >= 0.9
        rows.append(
            SweepRow(
                name,
                {f"p_{t}": probabilities[t] for t in (2, 3, 4, 8, 16)},
            )
        )
    return ExperimentResult(
        experiment_id="success-curve",
        title=(
            "ABL — success probability of a uniformly random assignment by "
            "length t (MIS): why PRG search at generous t is cheap and "
            "smallest-assignment search at minimal t is not"
        ),
        columns=["p_2", "p_3", "p_4", "p_8", "p_16"],
        rows=rows,
        checks=checks,
    )


@experiment("search-ablation", cost=2.0)
def search_ablation() -> ExperimentResult:
    """ABL: lexicographic vs PRG assignment-search order (trial counts)."""
    algorithm = AnonymousMISAlgorithm()
    cases = [
        ("path-2", with_uniform_input(path_graph(2))),
        ("path-3", with_uniform_input(path_graph(3))),
        ("cycle-3", with_uniform_input(cycle_graph(3))),
    ]
    rows, checks = [], {}
    for name, graph in cases:
        order = list(graph.nodes)
        trials = {}
        for strategy in ("lexicographic", "prg"):
            with collect_engine_metrics() as engine:
                assignment = smallest_successful_assignment(
                    algorithm, graph, order, max_length=64, strategy=strategy
                )
            checks[f"{strategy} valid on {name}"] = execute(
                algorithm, graph, assignment=assignment
            ).successful
            trials[strategy] = engine.executions
        rows.append(
            SweepRow(
                name,
                {
                    "lex trials": trials["lexicographic"],
                    "prg trials": trials["prg"],
                },
            )
        )
    return ExperimentResult(
        experiment_id="search-ablation",
        title=(
            "ABL — paper's lexicographic smallest-assignment order vs the "
            "deterministic-PRG order (both legal under Lemma 1)"
        ),
        columns=["lex trials", "prg trials"],
        rows=rows,
        checks=checks,
    )
