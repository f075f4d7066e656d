"""Tests for the ``resilience`` experiment family and its analysis
helpers (``repro.experiments.resilience``, ``repro.analysis.resilience``).

The family's contract matches every other registry entry — fixed plans
and seeds inside the functions, bit-identical results across runs and
job counts — plus the fault-specific invariants: zero-rate rows match
bare executions, and safety checks are judged on survivors only.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.resilience import (
    ResilienceOutcome,
    first_break,
    independence_preserved,
    probe,
)
from repro.experiments import all_experiment_ids, all_families, get_spec
from repro.experiments.runner import (
    canonical_results,
    results_payload,
    run_experiments,
)
from repro.faults import FaultPlan
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm

RESILIENCE_IDS = [
    "resilience-corrupt",
    "resilience-crash",
    "resilience-drop",
    "resilience-reorder",
]


def counter(stop_at: int):
    return FunctionAlgorithm(
        init=lambda label, deg: 0,
        msg=lambda s: s,
        step=lambda s, received, b: s + 1,
        out=lambda s: s if s >= stop_at else None,
        bits_per_round=0,
        name="counter",
    )


class TestRegistration:
    def test_family_ids_are_registered(self):
        assert set(RESILIENCE_IDS) <= set(all_experiment_ids())

    def test_family_defaults_to_the_module_basename(self):
        for eid in RESILIENCE_IDS:
            assert get_spec(eid).family == "resilience"
        assert "resilience" in all_families()

    def test_cost_weights_order_the_sweeps(self):
        # The drop sweep (4 families x 5 rates x 3 seeds) is the
        # heaviest of the family and must be dispatched first.
        costs = {eid: get_spec(eid).cost for eid in RESILIENCE_IDS}
        assert costs["resilience-drop"] == max(costs.values())

    def test_experiment_functions_pickle_by_qualified_name(self):
        for eid in RESILIENCE_IDS:
            fn = get_spec(eid).fn
            assert pickle.loads(pickle.dumps(fn)) is fn


class TestProbe:
    GRAPH = with_uniform_input(cycle_graph(4))

    def test_ok_outcome(self):
        outcome = probe(
            counter(2),
            self.GRAPH,
            FaultPlan(),
            validator=lambda g, outputs: True,
            max_rounds=5,
        )
        assert outcome.status == "ok" and outcome.ok
        assert outcome.rounds == 2
        assert outcome.faults_injected == 0
        assert set(outcome.outputs) == set(self.GRAPH.nodes)

    def test_invalid_outcome(self):
        outcome = probe(
            counter(2),
            self.GRAPH,
            FaultPlan(),
            validator=lambda g, outputs: False,
            max_rounds=5,
        )
        assert outcome.status == "invalid" and not outcome.ok

    def test_undecided_outcome(self):
        outcome = probe(
            counter(99),
            self.GRAPH,
            FaultPlan(),
            validator=lambda g, outputs: True,
            max_rounds=3,
        )
        assert outcome.status == "undecided"

    def test_error_outcome_is_classified_not_raised(self):
        exploding = FunctionAlgorithm(
            init=lambda label, deg: 0,
            msg=lambda s: s,
            step=lambda s, received, b: 1 / 0,
            out=lambda s: None,
            bits_per_round=0,
            name="exploding",
        )
        outcome = probe(
            exploding,
            self.GRAPH,
            FaultPlan(),
            validator=lambda g, outputs: True,
            max_rounds=3,
        )
        assert outcome.status == "error"
        assert "ZeroDivisionError" in outcome.error
        assert outcome.outputs is None

    def test_probe_counts_injected_faults(self):
        outcome = probe(
            counter(2),
            self.GRAPH,
            FaultPlan(plan_seed=1, drop_rate=1.0),
            validator=lambda g, outputs: True,
            max_rounds=5,
        )
        assert outcome.faults_injected == 4 * 2 * 2  # n * degree * rounds
        assert dict(outcome.fault_counts)["drop"] == outcome.faults_injected


class TestFirstBreak:
    def _outcome(self, status):
        return ResilienceOutcome(
            status=status, rounds=1, faults_injected=0, fault_counts=()
        )

    def test_reports_the_smallest_breaking_intensity(self):
        outcomes = [self._outcome(s) for s in ("ok", "ok", "undecided", "ok")]
        assert first_break([0.0, 0.1, 0.2, 0.3], outcomes) == 0.2

    def test_none_when_the_sweep_survives(self):
        outcomes = [self._outcome("ok")] * 3
        assert first_break([0.0, 0.1, 0.2], outcomes) is None

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="2 intensities vs 1"):
            first_break([0.0, 0.1], [self._outcome("ok")])


class TestSurvivorValidity:
    def test_independence_ignores_edges_into_excluded_nodes(self):
        graph = with_uniform_input(path_graph(3))
        # Adjacent members 0-1 violate independence; excluding 0 hides it.
        outputs = {0: 1, 1: 1, 2: 0}
        assert not independence_preserved(graph, outputs)
        assert independence_preserved(graph, outputs, exclude=[0])

    def test_independence_treats_missing_outputs_as_non_members(self):
        graph = with_uniform_input(path_graph(3))
        assert independence_preserved(graph, {0: 1})


class TestFamilyDeterminism:
    def test_results_are_bit_identical_across_job_counts(self):
        # The two cheapest members keep this fast; the full family is
        # exercised by the faults gate of `repro.experiments.gates` (make smoke).
        ids = ["resilience-crash", "resilience-reorder"]
        serial = run_experiments(ids, jobs=1)
        fanned = run_experiments(ids, jobs=2)
        assert canonical_results(results_payload(serial)) == canonical_results(
            results_payload(fanned)
        )
        for result in serial.results():
            assert result.passed, result.checks

    def test_drop_and_corrupt_pass_their_checks(self):
        for eid in ["resilience-drop", "resilience-corrupt"]:
            result = get_spec(eid).fn()
            assert result.passed, result.checks
            assert result.rows
