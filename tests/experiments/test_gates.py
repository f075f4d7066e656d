"""Tests for the differential gates (``repro.experiments.gates``).

The full harness (entire registry, every family, three interpreters)
runs in CI via ``make smoke``; here each gate is exercised on a small
subset so the tier-1 suite stays fast, and every failure mode is shown
to exit 1 naming its gate.
"""

from __future__ import annotations

import string
from contextlib import contextmanager

import pytest

from repro.artifacts.__main__ import main as artifacts_cli
from repro.experiments import gates, runner
from repro.faults.plan import FaultPlan
from repro.runtime.engine import ambient_context_active

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
        real_bytes, real_inject = gates.registry_bytes, gates.inject_faults
        under_faults = []

        @contextmanager
        def flagged_inject_faults(plan):
            with real_inject(plan) as injection:
                under_faults.append(plan)
                try:
                    yield injection
                finally:
                    under_faults.pop()

        def perturbed_under_faults(ids):
            out = real_bytes(ids)
            return out[:100] + "#" + out[101:] if under_faults else out

        monkeypatch.setattr(gates, "all_experiment_ids", lambda: ["figure1"])
        monkeypatch.setattr(gates, "inject_faults", flagged_inject_faults)
        monkeypatch.setattr(gates, "registry_bytes", perturbed_under_faults)
        assert gates.main([]) == 1
        assert not ambient_context_active()  # no context leaked from the gates
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

    @staticmethod
    def stub_emit(monkeypatch, fingerprint: str, manifest: str) -> None:
        """Children that print ``fingerprint`` and ``manifest``, both
        Python expressions over ``seed`` (the child's PYTHONHASHSEED)."""
        monkeypatch.setattr(
            gates,
            "_EMIT",
            "import json, os; seed = os.environ['PYTHONHASHSEED']; "
            f"print(json.dumps({{'fingerprint': {fingerprint}, 'manifest': {manifest}}}))",
        )

    def test_source_edit_mid_gate_is_a_changed_tree_not_a_leak(self, monkeypatch):
        # The last child digests keys under another fingerprint, so its
        # manifest differs too: that must not read as a hash-order leak.
        self.stub_emit(
            monkeypatch,
            "'b' * 64 if seed == '4217' else 'a' * 64",
            "{'key': seed}",
        )
        assert gates.check_hashseed() == [
            "source tree changed while the gate ran; rerun "
            f"(code fingerprints {'a' * 12}, {'a' * 12}, {'b' * 12})"
        ]

    def test_same_fingerprint_with_differing_manifests_is_a_leak(self, monkeypatch):
        self.stub_emit(monkeypatch, "'a' * 64", "{'key': seed}")
        (failure,) = gates.check_hashseed()
        assert failure.startswith("PYTHONHASHSEED=0 vs 4217 (hash-order leak) diverge")

    def test_hashseed_children_import_this_repro_without_pythonpath(self, monkeypatch):
        # This process may have found ``repro`` on ``sys.path`` alone;
        # the children must still import the same source tree.
        monkeypatch.delenv("PYTHONPATH", raising=False)
        assert gates.check_hashseed() == []
