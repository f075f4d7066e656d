"""Tests for the parallel experiment engine (``repro.experiments.runner``).

The engine's contract is that every observable output — experiment rows,
checks, derived seeds, report order — is bit-identical no matter how many
worker processes run the tasks, and that any pool-level failure degrades
to a serial run instead of failing.  Worker callables used here are
module-level so they pickle by qualified name.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exceptions import ReproError
from repro.experiments.__main__ import main
from repro.experiments.runner import (
    canonical_results,
    derive_seed,
    results_payload,
    run_experiments,
    write_results_json,
)

# Cheap experiments only: the identity contract is about scheduling, not
# about how long each task runs.  "ports" is included because it runs the
# unified execution engine, so the per-experiment metrics block is non-empty.
SUBSET = ["figure1", "figure2", "lemma4", "ports"]
BASE_SEED = 11


def _broken_factory(jobs: int):
    """An executor factory that cannot create a pool at all."""
    raise OSError("process pools are forbidden here")


class _MidRunBrokenPool:
    """A pool that comes up fine but breaks on first use."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        raise RuntimeError("worker died mid-run")


def _mid_run_broken_factory(jobs: int):
    return _MidRunBrokenPool()


@pytest.fixture(scope="module")
def serial_report():
    return run_experiments(SUBSET, jobs=1, base_seed=BASE_SEED)


@pytest.fixture(scope="module")
def parallel_report():
    return run_experiments(SUBSET, jobs=4, base_seed=BASE_SEED)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("figure1", base_seed=3) == derive_seed("figure1", base_seed=3)

    def test_every_identity_component_matters(self):
        reference = derive_seed("a", base_seed=0)
        assert derive_seed("b", base_seed=0) != reference
        assert derive_seed("a", base_seed=1) != reference

    def test_fits_in_63_bits(self):
        for eid in ("figure1", "theorem1", "x" * 200):
            seed = derive_seed(eid)
            assert 0 <= seed < 2**63

    def test_no_separator_collision(self):
        # ("a1", 2) and ("a", 12) concatenate to the same characters.
        assert derive_seed("a1", base_seed=2) != derive_seed("a", base_seed=12)

    def test_key_material_is_pinned(self):
        # The golden file pins every derived seed, so the hashed key
        # (with its two empty legacy fields) must never change.
        digest = hashlib.sha256(b"figure1\x1f\x1f0\x1f5").digest()
        assert derive_seed("figure1", base_seed=5) == int.from_bytes(digest[:8], "big") >> 1


class TestBitIdentity:
    def test_serial_vs_parallel_rows_and_checks(self, serial_report, parallel_report):
        serial = canonical_results(results_payload(serial_report))
        parallel = canonical_results(results_payload(parallel_report))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_seeds_identical_across_job_counts(self, serial_report, parallel_report):
        serial_seeds = [run.seed for run in serial_report.runs]
        parallel_seeds = [run.seed for run in parallel_report.runs]
        assert serial_seeds == parallel_seeds
        expected = [derive_seed(eid, base_seed=BASE_SEED) for eid in SUBSET]
        assert serial_seeds == expected

    def test_report_preserves_requested_order(self, parallel_report):
        # Dispatch is longest-first, but the report must follow the request.
        assert [run.result.experiment_id for run in parallel_report.runs] == SUBSET

    def test_modes_and_checks(self, serial_report, parallel_report):
        assert serial_report.mode == "serial"
        assert parallel_report.mode == "parallel"
        assert serial_report.all_passed and parallel_report.all_passed

    def test_base_seed_changes_derived_seeds(self):
        report = run_experiments(["figure1"], jobs=1, base_seed=BASE_SEED + 1)
        assert report.runs[0].seed != derive_seed("figure1", base_seed=BASE_SEED)

    def test_unknown_experiment_rejected_before_any_work(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiments(["figure1", "no-such-experiment"], jobs=4)


class TestDegradation:
    def test_pool_creation_failure_falls_back_to_serial(self, serial_report):
        report = run_experiments(
            SUBSET, jobs=4, base_seed=BASE_SEED, executor_factory=_broken_factory
        )
        assert report.fallback_reason is not None
        assert "OSError" in report.fallback_reason
        assert report.mode == "serial"
        assert all(run.mode == "serial" for run in report.runs)
        assert canonical_results(results_payload(report)) == canonical_results(
            results_payload(serial_report)
        )

    def test_pool_breaking_mid_run_falls_back_to_serial(self):
        report = run_experiments(
            ["figure1", "figure2"],
            jobs=2,
            executor_factory=_mid_run_broken_factory,
        )
        assert report.fallback_reason is not None
        assert "RuntimeError" in report.fallback_reason
        assert report.all_passed
        assert len(report.runs) == 2

    def test_single_task_never_pays_for_a_pool(self):
        # jobs > 1 with one task must not even try the (broken) pool.
        report = run_experiments(["figure1"], jobs=4, executor_factory=_broken_factory)
        assert report.fallback_reason is None
        assert report.mode == "serial"
        assert report.runs[0].mode == "serial"


class TestJsonArtifact:
    def test_payload_shape_mirrors_bench_views(self, parallel_report):
        payload = results_payload(parallel_report)
        assert payload["schema"] == 3
        assert payload["suite"] == "experiments"
        assert set(payload["machine"]) == {"platform", "python", "implementation"}
        engine = payload["engine"]
        assert engine["requested_jobs"] == 4
        assert engine["mode"] == "parallel"
        assert engine["base_seed"] == BASE_SEED
        assert engine["fallback_reason"] is None
        entry = payload["results"][0]
        assert entry["experiment_id"] == SUBSET[0]
        assert set(entry) == {
            "experiment_id",
            "title",
            "passed",
            "checks",
            "columns",
            "rows",
            "seed",
            "metrics",
            "timing",
        }
        assert set(entry["timing"]) == {"wall_s", "worker_pid", "mode"}
        assert set(entry["metrics"]) == {
            "executions",
            "rounds",
            "messages_sent",
            "bits_drawn",
            "nodes_decided",
            "faults_injected",
            "wall_s",
        }
        # View-layer experiments never touch the engine (executions == 0);
        # at least one experiment in the subset must run it.
        assert all(
            v >= 0 for v in entry["metrics"].values()
        )
        assert any(
            e["metrics"]["executions"] > 0 for e in payload["results"]
        )

    def test_payload_is_json_serializable(self, parallel_report):
        text = json.dumps(results_payload(parallel_report))
        assert json.loads(text)["suite"] == "experiments"

    def test_canonical_results_strips_timing_and_metrics(self, serial_report):
        payload = results_payload(serial_report)
        canonical = canonical_results(payload)
        assert len(canonical) == len(SUBSET)
        for entry in canonical:
            assert "timing" not in entry
            assert "metrics" not in entry
            assert "rows" in entry and "checks" in entry and "seed" in entry

    def test_metrics_deterministic_across_job_counts(
        self, serial_report, parallel_report
    ):
        # Everything but engine wall time is a deterministic count.
        def stable(report):
            return [
                {k: v for k, v in run.engine_metrics.items() if k != "wall_s"}
                for run in report.runs
            ]

        assert stable(serial_report) == stable(parallel_report)

    def test_write_results_json(self, tmp_path, serial_report):
        target = write_results_json(tmp_path / "out.json", serial_report)
        assert target.exists()
        payload = json.loads(target.read_text())
        assert payload["schema"] == 3
        assert [e["experiment_id"] for e in payload["results"]] == SUBSET


class TestCli:
    def test_jobs_and_json_flags(self, tmp_path, capsys):
        target = tmp_path / "RESULTS_experiments.json"
        rc = main(["figure1", "lemma4", "--jobs", "2", "--json", str(target)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 2 experiments passed" in out
        payload = json.loads(target.read_text())
        assert payload["engine"]["requested_jobs"] == 2
        assert [e["experiment_id"] for e in payload["results"]] == [
            "figure1",
            "lemma4",
        ]

    def test_filter_selects_matching_ids(self, capsys):
        rc = main(["--filter", "figure2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 1 experiments passed" in out

    @pytest.mark.parametrize("extra", [[], ["--list"]], ids=["run", "list"])
    def test_filter_without_match_is_an_error(self, extra, capsys):
        rc = main([*extra, "--filter", "zzz-no-such"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no experiment ids match" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [[], ["--list"]], ids=["run", "list"])
    def test_unknown_id_is_a_usage_error(self, extra, capsys):
        rc = main([*extra, "figure1", "no-such-exp"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1
        assert "unknown experiment 'no-such-exp'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys):
        rc = main(["figure1", "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"--jobs must be at least 1, got {jobs}\n"
        assert captured.out == ""

    def test_list_respects_filter(self, capsys):
        rc = main(["--list", "--filter", "lemma"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].split() == ["id", "family", "cost"]
        assert [line.split()[0] for line in lines[1:-1]] == [
            "lemma2",
            "lemma3",
            "lemma4",
        ]
        assert all(line.split()[1] == "lemmas" for line in lines[1:-1])
        assert lines[-1] == "3 experiments"

    def test_list_prints_family_and_cost_columns(self, capsys):
        rc = main(["--list", "--filter", "resilience-drop"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[1].split() == ["resilience-drop", "resilience", "4.0"]

    def test_classic_cli_exits_nonzero_with_strict_jobs(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(runner_module, "_default_executor_factory", _broken_factory)
        rc = main(["figure1", "lemma4", "--jobs", "2", "--strict-jobs"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "ran serially" in err
        assert "--strict-jobs" in err

    def test_classic_cli_still_warns_without_the_flag(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(runner_module, "_default_executor_factory", _broken_factory)
        rc = main(["figure1", "lemma4", "--jobs", "2"])
        captured = capsys.readouterr()
        assert rc == 0  # degradation remains non-fatal by default
        assert "ran serially" in captured.err

    def test_serial_run_never_trips_strict_jobs(self, capsys):
        rc = main(["figure1", "--jobs", "1", "--strict-jobs"])
        assert rc == 0
