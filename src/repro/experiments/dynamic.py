"""The ``dynamic`` experiment family: guarantees under topology churn.

The paper fixes the graph for the whole computation; these experiments
measure what survives when it churns.  Every churn decision comes from
a seeded, byte-replayable :class:`~repro.dynamic.delta.ChurnPlan`, so
results are bit-identical across runs, job counts and machines, like
every other registry entry:

* ``churn-views`` — incremental view maintenance under churn traces,
  with the from-scratch differential oracle checked after every batch
  and the blast-radius reuse fractions tabulated;
* ``churn-validity`` — 2-hop coloring validity swept over churn rates,
  judged against the *final* churned snapshot (the paper's stage-1
  guarantee, measured as it decays);
* ``churn-engine`` — the ambient :func:`~repro.dynamic.context.
  apply_churn` hook composed with PR-4 fault plans on a deterministic
  inbox-ledger workload, proving the two ambient wrappers stack.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.analysis.churn import ChurnOutcome, churn_probe
from repro.analysis.resilience import first_break
from repro.analysis.sweeps import SweepRow
from repro.dynamic import (
    ChurnPlan,
    ChurnSchedule,
    DynamicGraph,
    apply_churn,
    differential_check,
)
from repro.exceptions import DynamicError
from repro.experiments._shared import fmt_break, status_summary
from repro.experiments.base import ExperimentResult, experiment
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import (
    cycle_graph,
    hypercube_graph,
    random_connected_graph,
    random_regular_graph,
    with_uniform_input,
)
from repro.graphs.coloring import is_two_hop_coloring
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import execute

CHURN_RATES = (0.0, 0.05, 0.1, 0.2)
SEEDS = (0, 1, 2)


@experiment("churn-views", cost=3.0)
def churn_views() -> ExperimentResult:
    """Incremental view maintenance vs the from-scratch oracle.

    Each family runs a fixed five-batch churn trace through a
    :class:`DynamicGraph` with an attached maintainer;
    :func:`differential_check` re-proves byte- and identity-equality
    with a clean :class:`~repro.views.local_views.ViewBuilder` rebuild
    after every batch, and the table reports how much of the view state
    the blast-radius rule reused.
    """
    depth, trace_rounds = 6, 5
    plan = ChurnPlan(
        plan_seed=17,
        insert_rate=0.08,
        delete_rate=0.08,
        relabel_rate=0.05,
        relabel_values=(("A",), ("B",)),
    )
    families = [
        ("cycle-16", with_uniform_input(cycle_graph(16))),
        ("hypercube-4", with_uniform_input(hypercube_graph(4))),
        ("random-regular-12", with_uniform_input(random_regular_graph(12, 3, seed=5))),
    ]
    rows, checks = [], {}
    for name, graph in families:
        dynamic = DynamicGraph(graph)
        maintainer = dynamic.maintainer(depth)
        schedule = ChurnSchedule(plan)
        oracle_ok = True
        for round_number in range(1, trace_rounds + 1):
            batch = schedule.batch(round_number, dynamic.graph)
            if batch:
                dynamic.apply(batch)
            try:
                differential_check(maintainer)
            except DynamicError:
                oracle_ok = False
                break
        stats = maintainer.stats()
        slots = stats["recomputed"] + stats["reused"]
        cells: dict[str, Any] = {
            "n": graph.num_nodes,
            "deltas": len(dynamic.log),
            "recomputed": stats["recomputed"],
            "reused": stats["reused"],
            "reuse %": f"{stats['reused'] * 100 // slots if slots else 100}%",
        }
        checks[f"oracle byte-identical after every batch ({name})"] = oracle_ok
        checks[f"churn observed ({name})"] = len(dynamic.log) > 0
        checks[f"subtrees reused across batches ({name})"] = stats["reused"] > 0
        rows.append(SweepRow(name, cells))
    return ExperimentResult(
        experiment_id="churn-views",
        title=(
            "DYN — incremental view maintenance under churn traces "
            f"(depth {depth}, {trace_rounds} batches; from-scratch oracle "
            "after every batch)"
        ),
        columns=["n", "deltas", "recomputed", "reused", "reuse %"],
        rows=rows,
        checks=checks,
    )


@experiment("churn-validity", cost=4.0)
def churn_validity() -> ExperimentResult:
    """Churn rate vs 2-hop coloring validity, judged on the final graph.

    The randomized stage-1 algorithm colors against the topology it
    *observes*; churn makes that observation stale, so validity on the
    final snapshot is exactly the guarantee that decays.  Swept over
    insert+delete rates and three seeds per rate.
    """
    algorithm = TwoHopColoringAlgorithm()
    families = [
        ("cycle-8", with_uniform_input(cycle_graph(8))),
        ("random-10", with_uniform_input(random_connected_graph(10, 0.3, seed=10))),
    ]
    rows, checks = [], {}
    for name, graph in families:
        worst_by_rate: list[ChurnOutcome] = []
        cells: dict[str, Any] = {"n": graph.num_nodes}
        deltas_total = 0
        for rate in CHURN_RATES:
            outcomes = []
            for seed in SEEDS:
                plan = ChurnPlan(
                    plan_seed=100 * seed + 1, insert_rate=rate, delete_rate=rate
                )
                outcome = churn_probe(
                    algorithm,
                    graph,
                    plan,
                    validator=is_two_hop_coloring,
                    seed=seed,
                    max_rounds=80,
                )
                outcomes.append(outcome)
                deltas_total += outcome.deltas_applied
                if rate == 0.0:
                    bare = execute(algorithm, graph, seed=seed, max_rounds=80)
                    checks[f"zero-churn matches bare ({name}, seed {seed})"] = (
                        outcome.outputs == bare.outputs
                    )
            cells[f"c={rate:g}"] = status_summary(outcomes)
            worst_by_rate.append(
                min(outcomes, key=lambda o: o.ok)  # any non-ok makes the rate broken
            )
        cells["first break"] = fmt_break(first_break(list(CHURN_RATES), worst_by_rate))
        checks[f"zero churn survives ({name})"] = worst_by_rate[0].ok
        checks[f"churn observed ({name})"] = deltas_total > 0
        rows.append(SweepRow(name, cells))
    return ExperimentResult(
        experiment_id="churn-validity",
        title=(
            "DYN — randomized 2-hop coloring under topology churn "
            "(status per insert+delete rate, 3 seeds; validity judged on "
            "the final snapshot)"
        ),
        columns=["n", *[f"c={r:g}" for r in CHURN_RATES], "first break"],
        rows=rows,
        checks=checks,
    )


def _ledger(stop_at: int) -> FunctionAlgorithm:
    """Decides after ``stop_at`` rounds with the per-round inbox sizes —
    a faithful transcript of delivery, so churn (degree changes) and
    faults (losses) both leave fingerprints in the output."""
    return FunctionAlgorithm(
        init=lambda label, deg: ((), 0),
        msg=lambda s: s[1],
        step=lambda s, received, b: (s[0] + (len(received),), s[1] + 1),
        out=lambda s: s[0] if s[1] >= stop_at else None,
        bits_per_round=0,
        name="inbox-ledger",
    )


@experiment("churn-engine", cost=2.0)
def churn_engine() -> ExperimentResult:
    """Ambient churn composed with ambient fault injection.

    Runs a deterministic inbox-ledger workload under the four corners of
    {no churn, churn} x {no faults, drops}: the composed corner must
    apply both kinds of events, every corner must replay byte-
    identically, and the empty-empty corner must match the bare engine.
    """
    graph = with_uniform_input(cycle_graph(8))
    rounds = 5
    churn_plan = ChurnPlan(plan_seed=5, insert_rate=0.3, delete_rate=0.3)
    fault_plan = FaultPlan(plan_seed=1, drop_rate=0.3)
    corners = [
        ("static", ChurnPlan(), FaultPlan()),
        ("churn", churn_plan, FaultPlan()),
        ("faults", ChurnPlan(), fault_plan),
        ("churn+faults", churn_plan, fault_plan),
    ]
    bare = execute(_ledger(rounds), graph, max_rounds=rounds)
    rows, checks = [], {}
    cells: dict[str, Any] = {"n": graph.num_nodes}
    for label, cp, fp in corners:
        runs = []
        for _ in range(2):  # replay determinism: every corner runs twice
            with inject_faults(fp):
                with apply_churn(cp) as churn:
                    result = execute(_ledger(rounds), graph, max_rounds=rounds)
            runs.append((result, churn.deltas_applied))
        (result, deltas), (replay, replay_deltas) = runs
        checks[f"replay byte-identical ({label})"] = (
            result.outputs == replay.outputs and deltas == replay_deltas
        )
        if label == "static":
            checks["empty plans match the bare engine"] = (
                result.outputs == bare.outputs
                and deltas == 0
                and result.metrics.faults_injected == 0
            )
        if label == "churn":
            checks["churn leaves a delivery fingerprint"] = (
                result.outputs != bare.outputs and deltas > 0
            )
        if label == "churn+faults":
            checks["composition applies both event kinds"] = (
                deltas > 0 and result.metrics.faults_injected > 0
            )
        decided = sum(1 for v in graph.nodes if v in result.outputs)
        cells[label] = (
            f"{decided}/{graph.num_nodes} decided, d={deltas}, "
            f"f={result.metrics.faults_injected}"
        )
    rows.append(SweepRow("cycle-8", cells))
    return ExperimentResult(
        experiment_id="churn-engine",
        title=(
            "DYN — ambient churn x ambient faults on an inbox-ledger "
            "workload (deltas applied, faults injected, replay checks)"
        ),
        columns=["n", "static", "churn", "faults", "churn+faults"],
        rows=rows,
        checks=checks,
    )
