"""Tests for the zero-fault differential gate (``check_faults`` in
``repro.experiments.gates``).

The full harness (entire registry, every family, three interpreters)
runs in CI via ``make smoke``; here the faults gate is exercised on a
representative subset so the tier-1 suite stays fast.
"""

from __future__ import annotations

from repro.experiments import gates
from repro.faults.context import inject_faults
from repro.faults.plan import FaultPlan


class TestGateMechanics:
    def test_first_divergence_reports_the_byte(self, capsys):
        bare = gates.registry_bytes(["figure1"])
        perturbed = bare[:3] + "#" + bare[4:]
        failures = gates.check_faults(perturbed, ["figure1"])
        assert len(failures) == 1
        assert failures[0].startswith("bare vs empty FaultPlan diverge (at byte 3")
        assert bare[:6] in failures[0]

    def test_first_divergence_reports_length_mismatch(self, capsys):
        bare = gates.registry_bytes(["figure1"])
        failures = gates.check_faults(bare + " ", ["figure1"])
        lengths = f"lengths differ: {len(bare) + 1} vs {len(bare)}"
        assert failures == [f"bare vs empty FaultPlan diverge ({lengths})"]

    def test_canonical_bytes_is_deterministic(self):
        ids = ["figure1", "lemma4"]
        with inject_faults(FaultPlan()) as injection:
            wrapped = gates.registry_bytes(ids)
        assert len(injection.trace) == 0
        assert wrapped == gates.registry_bytes(ids) == gates.registry_bytes(ids)


class TestGateEndToEnd:
    def test_gate_passes_on_a_representative_subset(self, capsys):
        # One pure view/factor experiment, one engine-heavy experiment,
        # and one fixed-nonzero-plan resilience experiment.
        subset = ["figure1", "ports", "resilience-reorder"]
        assert gates.check_faults(gates.registry_bytes(subset), subset) == []
        out = capsys.readouterr().out
        assert "zero-fault identity over 3 experiments" in out
        assert "resilience replay over ['resilience-reorder']" in out
