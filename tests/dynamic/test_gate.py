"""Tests for the zero-churn transparency gate (``check_churn`` in
``repro.experiments.gates``).

The full harness (entire registry, every family, three interpreters)
runs in CI via ``make smoke``; here the churn gate is exercised on a
representative subset so the tier-1 suite stays fast."""

from __future__ import annotations

from repro.dynamic.context import apply_churn
from repro.dynamic.delta import ChurnPlan
from repro.experiments import gates


class TestGateMechanics:
    def test_first_divergence_reports_the_byte(self, capsys):
        bare = gates.registry_bytes(["figure1"])
        perturbed = bare[:3] + "#" + bare[4:]
        failures = gates.check_churn(perturbed, ["figure1"])
        assert len(failures) == 1
        assert failures[0].startswith("bare vs empty ChurnPlan diverge (at byte 3")

    def test_canonical_bytes_is_deterministic(self):
        # Bare-run determinism is pinned in tests/faults/test_gate.py;
        # here the empty-ChurnPlan hook must reproduce the bare bytes
        # and apply no delta.
        ids = ["figure1", "lemma4"]
        with apply_churn(ChurnPlan()) as churn:
            hooked = gates.registry_bytes(ids)
        assert churn.deltas_applied == 0
        assert hooked == gates.registry_bytes(ids)


class TestGateEndToEnd:
    def test_gate_passes_on_a_representative_subset(self, capsys):
        # One pure view/factor experiment, one engine-heavy experiment,
        # and one fixed-nonzero-plan dynamic experiment.
        subset = ["figure1", "ports", "churn-engine"]
        assert gates.check_churn(gates.registry_bytes(subset), subset) == []
        out = capsys.readouterr().out
        assert "zero-churn identity over 3 experiments" in out
        assert "dynamic replay over ['churn-engine']" in out
