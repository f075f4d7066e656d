"""Tests for the differential gates (``repro.experiments.gates``).

The full harness (entire registry, every family, three interpreters)
runs in CI via ``make smoke``; here each gate is exercised on a small
subset so the tier-1 suite stays fast, and every failure mode is shown
to exit 1 naming its gate.
"""

from __future__ import annotations

import string

import pytest

from repro.artifacts.__main__ import main as artifacts_cli
from repro.experiments import gates, runner
from repro.faults.context import current as current_faults
from repro.faults.plan import FaultPlan

HEX = set(string.hexdigits.lower())

@pytest.fixture
def only_faults_and_churn(monkeypatch):
    """Run ``main`` with the hashseed and artifacts gates stubbed out, so
    a test isolates the faults/churn gate it perturbs."""
    monkeypatch.setattr(gates, "check_hashseed", lambda: [])
    monkeypatch.setattr(gates, "check_artifacts", lambda out, queries: [])


class TestMechanics:
    # first_divergence's byte and length messages and registry_bytes
    # determinism are pinned through check_faults / check_churn in
    # tests/faults/test_gate.py and tests/dynamic/test_gate.py, which
    # also run the faults and churn gates end to end on a subset.

    def test_unknown_args_rejected(self, capsys):
        for argv in (["--emit"], ["--store", "x.jsonl"]):
            with pytest.raises(SystemExit) as exit_info:
                gates.main(argv)
            assert exit_info.value.code == 2
            assert "usage" in capsys.readouterr().err


class TestHarnessEndToEnd:
    def test_main_runs_hashseed_and_artifacts_and_exits_0(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(gates, "all_experiment_ids", lambda: ["figure1", "lemma4"])
        monkeypatch.setattr(gates, "check_faults", lambda bare, ids: [])
        monkeypatch.setattr(gates, "check_churn", lambda bare, ids: [])
        assert gates.main(["--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for gate in ("faults", "churn", "hashseed", "artifacts"):
            assert f"[gates] {gate} ok" in out
        assert "canonical manifests under PYTHONHASHSEED" in out
        assert "artifacts-smoke ok: queries=6 " in out
        assert " warm_hits=6 warm_computes=0 " in out
        direct = (tmp_path / "ARTIFACTS_direct.json").read_bytes()
        assert (tmp_path / "ARTIFACTS_cold.json").read_bytes() == direct
        assert (tmp_path / "ARTIFACTS_warm.json").read_bytes() == direct
        assert artifacts_cli(["verify", "--store", str(tmp_path / "ARTIFACTS_store.jsonl")]) == 0


class TestFailures:
    def test_perturbed_variant_fails_with_the_first_divergence(
        self, monkeypatch, only_faults_and_churn, capsys
    ):
        real = gates.registry_bytes

        def perturbed_under_faults(ids):
            out = real(ids)
            return out[:100] + "#" + out[101:] if current_faults() is not None else out

        monkeypatch.setattr(gates, "all_experiment_ids", lambda: ["figure1"])
        monkeypatch.setattr(gates, "registry_bytes", perturbed_under_faults)
        assert gates.main([]) == 1
        err = capsys.readouterr().err
        assert "[gates] faults FAILED: bare vs empty FaultPlan diverge (at byte 100" in err
        assert "churn FAILED" not in err

    def test_empty_plan_that_injects_fails(self, monkeypatch, only_faults_and_churn, capsys):
        monkeypatch.setattr(gates, "all_experiment_ids", lambda: ["ports"])
        monkeypatch.setattr(gates, "FaultPlan", lambda: FaultPlan(plan_seed=3, reorder_rate=0.5))
        assert gates.main([]) == 1
        err = capsys.readouterr().err
        assert "[gates] faults FAILED: empty FaultPlan applied 11 events {'reorder': " in err

    def test_fanned_run_that_falls_back_to_serial_fails(
        self, monkeypatch, only_faults_and_churn, capsys
    ):
        def no_pool(jobs):
            raise RuntimeError("no process pool here")

        monkeypatch.setattr(runner, "_default_executor_factory", no_pool)
        ids = ["figure1", "resilience-crash", "resilience-reorder"]
        monkeypatch.setattr(gates, "all_experiment_ids", lambda: ids)
        assert gates.main([]) == 1
        err = capsys.readouterr().err
        assert (
            "[gates] faults FAILED: resilience replay: jobs=4 run fell back to serial "
            "(RuntimeError: no process pool here)"
        ) in err


class TestManifest:
    def test_manifest_covers_all_canonical_surfaces(self):
        manifest = gates.emit_manifest()
        surfaces = {label.split("/", 1)[1] for label in manifest}
        assert {"views", "refinement", "quotient", "replayed-views", "key"} <= surfaces
        assert {"key/views", "key/refinement", "key/quotient"} <= surfaces
        # Every digest is sha256 hex or an artifact key (also a digest).
        for label, value in manifest.items():
            assert set(value) <= HEX, f"{label}: non-hex digest {value!r}"

    def test_manifest_is_stable_in_process(self):
        assert gates.emit_manifest() == gates.emit_manifest()
