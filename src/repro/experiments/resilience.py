"""The ``resilience`` experiment family: where do the guarantees break?

The paper's central objects assume a perfectly reliable synchronous
network.  Each experiment here perturbs one assumption with a seeded,
byte-replayable :class:`~repro.faults.plan.FaultPlan` and tabulates the
smallest fault intensity at which the corresponding guarantee first
fails:

* ``resilience-drop`` — 2-hop coloring validity (Theorem 1's stage 1)
  under message loss;
* ``resilience-crash`` — the deterministic greedy-by-color stage under
  crash-stop nodes, judging safety on the survivors;
* ``resilience-corrupt`` — a Theorem 2-style simulation induced by a
  recorded successful assignment, replayed through corrupted tapes;
* ``resilience-reorder`` — the port-numbering abstraction under
  within-inbox reordering and loss.

Every run is classified by :func:`repro.analysis.resilience.probe`
(``ok`` / ``invalid`` / ``undecided`` / ``error``); all plans and seeds
are fixed inside the experiment functions, so results are bit-identical
across runs, job counts and machines, like every other registry entry.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.analysis.resilience import (
    ResilienceOutcome,
    first_break,
    independence_preserved,
    probe,
)
from repro.analysis.sweeps import SweepRow
from repro.experiments._shared import colored, fmt_break, status_summary
from repro.experiments.base import ExperimentResult, experiment
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    with_uniform_input,
)
from repro.graphs.coloring import is_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.mis import MISProblem
from repro.runtime.engine import execute
from repro.runtime.port_model import PortAwareAlgorithm

DROP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
CORRUPT_RATES = (0.0, 0.05, 0.15, 0.3)
REORDER_RATES = (0.0, 0.25, 0.5)
SEEDS = (0, 1, 2)


@experiment("resilience-drop", cost=4.0)
def resilience_drop() -> ExperimentResult:
    """Message loss vs 2-hop coloring validity, swept over drop rates."""
    algorithm = TwoHopColoringAlgorithm()
    families = [
        ("cycle-8", with_uniform_input(cycle_graph(8))),
        ("path-8", with_uniform_input(path_graph(8))),
        ("complete-6", with_uniform_input(complete_graph(6))),
        ("random-10", with_uniform_input(random_connected_graph(10, 0.3, seed=10))),
    ]
    rows, checks = [], {}
    for name, graph in families:
        worst_by_rate: list[ResilienceOutcome] = []
        cells: dict[str, Any] = {"n": graph.num_nodes}
        injected_total = 0
        for rate in DROP_RATES:
            outcomes = []
            for seed in SEEDS:
                plan = FaultPlan(plan_seed=100 * seed + 1, drop_rate=rate)
                outcome = probe(
                    algorithm,
                    graph,
                    plan,
                    validator=is_two_hop_coloring,
                    seed=seed,
                    max_rounds=80,
                )
                outcomes.append(outcome)
                injected_total += outcome.faults_injected
                if rate == 0.0:
                    bare = execute(algorithm, graph, seed=seed, max_rounds=80)
                    checks[f"zero-rate matches bare ({name}, seed {seed})"] = (
                        outcome.outputs == bare.outputs
                    )
            cells[f"p={rate:g}"] = status_summary(outcomes)
            worst_by_rate.append(
                min(outcomes, key=lambda o: o.ok)  # any non-ok makes the rate broken
            )
        broke_at = first_break(list(DROP_RATES), worst_by_rate)
        cells["first break"] = fmt_break(broke_at)
        checks[f"zero rate survives ({name})"] = worst_by_rate[0].ok
        rows.append(SweepRow(name, cells))
        checks[f"faults were injected ({name})"] = injected_total > 0
    return ExperimentResult(
        experiment_id="resilience-drop",
        title=(
            "RES — randomized 2-hop coloring under message loss "
            "(status per drop rate, 3 seeds; first breaking rate)"
        ),
        columns=["n", *[f"p={r:g}" for r in DROP_RATES], "first break"],
        rows=rows,
        checks=checks,
    )


@experiment("resilience-crash", cost=2.0)
def resilience_crash() -> ExperimentResult:
    """Crash-stop nodes vs the deterministic greedy-by-color MIS stage.

    Safety (independence among survivors) must hold under every crash
    schedule; liveness legitimately degrades to ``undecided`` when a
    node that others wait on goes silent.
    """
    problem = MISProblem()
    algorithm = GreedyMISByColor()
    families = [
        ("cycle-8", colored(with_uniform_input(cycle_graph(8)))),
        ("path-7", colored(with_uniform_input(path_graph(7)))),
        ("complete-5", colored(with_uniform_input(complete_graph(5)))),
    ]
    rows, checks = [], {}
    for name, graph in families:
        first, second = graph.nodes[0], graph.nodes[len(graph.nodes) // 2]
        schedules: list[tuple[str, tuple[tuple[Node, int], ...]]] = [
            ("none", ()),
            ("v0@r1", ((first, 1),)),
            ("v0@r2", ((first, 2),)),
            ("two@r2,r3", ((first, 2), (second, 3))),
        ]
        cells: dict[str, Any] = {"n": graph.num_nodes}
        for label, crashes in schedules:
            crashed_nodes = [v for v, _ in crashes]
            try:
                with inject_faults(FaultPlan(crashes=crashes)):
                    result = execute(algorithm, graph, max_rounds=50)
            except Exception as exc:  # deterministic: recorded, not raised
                cells[label] = f"error:{type(exc).__name__}"
                checks[f"safety under {label} ({name})"] = False
                continue
            outputs = dict(result.outputs)
            safe = independence_preserved(graph, outputs, exclude=crashed_nodes)
            checks[f"safety under {label} ({name})"] = safe
            if not crashes:
                plain = graph.with_only_layers(["input"])
                checks[f"no-crash valid ({name})"] = result.all_decided and (
                    problem.is_valid_output(plain, outputs)
                )
            survivors = [v for v in graph.nodes if v not in crashed_nodes]
            decided = sum(1 for v in survivors if v in outputs)
            cells[label] = f"{decided}/{len(survivors)} decided"
        rows.append(SweepRow(name, cells))
    return ExperimentResult(
        experiment_id="resilience-crash",
        title=(
            "RES — greedy-by-color MIS under crash-stop nodes "
            "(surviving nodes decided; independence judged on survivors)"
        ),
        columns=["n", "none", "v0@r1", "v0@r2", "two@r2,r3"],
        rows=rows,
        checks=checks,
    )


@experiment("resilience-corrupt", cost=3.0)
def resilience_corrupt() -> ExperimentResult:
    """Tape corruption vs a simulation induced by a successful assignment.

    Theorem 2 turns a successful random run into a deterministic
    simulation by replaying its recorded bits; this experiment measures
    how brittle that reduction is when the replayed bits decay.
    """
    problem = MISProblem()
    algorithm = AnonymousMISAlgorithm()
    cases = [
        ("cycle-6", with_uniform_input(cycle_graph(6)), 2),
        ("path-5", with_uniform_input(path_graph(5)), 4),
        ("complete-4", with_uniform_input(complete_graph(4)), 1),
    ]
    rows, checks = [], {}
    for name, graph, seed in cases:
        seeded = execute(algorithm, graph, seed=seed, require_decided=True)
        assignment = seeded.trace.assignment()
        cells: dict[str, Any] = {"n": graph.num_nodes}
        outcomes = []
        for rate in CORRUPT_RATES:
            plan = FaultPlan(plan_seed=7, corrupt_rate=rate)
            outcome = probe(
                algorithm,
                graph,
                plan,
                validator=problem.is_valid_output,
                assignment=assignment,
            )
            outcomes.append(outcome)
            cells[f"q={rate:g}"] = (
                f"{outcome.status}"
                + (f" ({outcome.faults_injected} flips)" if outcome.faults_injected else "")
            )
            if rate == 0.0:
                checks[f"clean replay reproduces the run ({name})"] = (
                    outcome.outputs == seeded.outputs
                )
        cells["first break"] = fmt_break(first_break(list(CORRUPT_RATES), outcomes))
        checks[f"clean replay valid ({name})"] = outcomes[0].ok
        rows.append(SweepRow(name, cells))
    return ExperimentResult(
        experiment_id="resilience-corrupt",
        title=(
            "RES — Theorem 2-style induced simulation under tape-bit "
            "corruption (status per flip rate; first breaking rate)"
        ),
        columns=["n", *[f"q={r:g}" for r in CORRUPT_RATES], "first break"],
        rows=rows,
        checks=checks,
    )


class PortLedgerAlgorithm(PortAwareAlgorithm):
    """Deterministic port workload: each node ledgers, per round, the
    payloads its ports delivered.  The final ledger is a faithful
    transcript of the port abstraction — any reordering or loss changes
    it, so output equality with a fault-free run *is* the validity
    notion for the port model."""

    bits_per_round = 0
    name = "port-ledger"

    def __init__(self, rounds_needed: int) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label: Any, degree: int) -> tuple[tuple, int]:
        return ((), 0)

    def messages(self, state: tuple[tuple, int], degree: int) -> list[Any]:
        return [(state[1], port) for port in range(degree)]

    def transition(
        self, state: tuple[tuple, int], received: tuple[Any, ...], bits: str
    ) -> tuple[tuple, int]:
        return (state[0] + (tuple(repr(r) for r in received),), state[1] + 1)

    def output(self, state: tuple[tuple, int]) -> tuple | None:
        return state[0] if state[1] >= self.rounds_needed else None


@experiment("resilience-reorder", cost=2.0)
def resilience_reorder() -> ExperimentResult:
    """Within-inbox reordering (plus loss) vs the port abstraction."""
    families = [
        ("cycle-6", with_uniform_input(cycle_graph(6))),
        ("path-5", with_uniform_input(path_graph(5))),
    ]
    rows, checks = [], {}
    for name, graph in families:
        algorithm = PortLedgerAlgorithm(rounds_needed=4)
        bare = execute(algorithm, graph, max_rounds=6)

        def matches_bare(
            g: LabeledGraph, outputs: dict[Node, Any], _bare=bare
        ) -> bool:
            return outputs == _bare.outputs

        cells: dict[str, Any] = {"n": graph.num_nodes}
        outcomes = []
        reorder_events = 0
        for rate in REORDER_RATES:
            plan = FaultPlan(plan_seed=13, reorder_rate=rate, drop_rate=rate / 5)
            outcome = probe(
                algorithm, graph, plan, validator=matches_bare, max_rounds=6
            )
            outcomes.append(outcome)
            reorder_events += dict(outcome.fault_counts).get("reorder", 0)
            cells[f"r={rate:g}"] = outcome.status
        cells["first break"] = fmt_break(first_break(list(REORDER_RATES), outcomes))
        checks[f"zero-rate transcript identical ({name})"] = outcomes[0].ok
        checks[f"reordering observed ({name})"] = reorder_events > 0
        rows.append(SweepRow(name, cells))
    return ExperimentResult(
        experiment_id="resilience-reorder",
        title=(
            "RES — port-numbered delivery under within-inbox reordering "
            "and loss (ledger transcript vs fault-free run)"
        ),
        columns=["n", *[f"r={r:g}" for r in REORDER_RATES], "first break"],
        rows=rows,
        checks=checks,
    )
