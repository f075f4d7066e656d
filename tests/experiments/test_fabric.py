"""Tests for the sharded, resumable experiment fabric.

The fabric's contract extends the runner's serial-vs-parallel identity
with *persistence*: a task is keyed by
``sha256(code_fingerprint, spec, seed)``, completed tasks stream to an
append-only JSONL store, a rerun skips every stored key, ``--shard i/n``
partitions the task set exactly, a torn final store line (crash
mid-write) is repaired, and merging any combination of shards and
resumed runs is byte-identical to merging a fresh ``--jobs 1`` run.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweeps import FamilySpec
from repro.exceptions import ReproError
from repro.experiments.__main__ import main
from repro.experiments.fabric import (
    GridSweep,
    dump_merged,
    experiment_tasks,
    grid_tasks,
    merge_stores,
    parse_shard,
    run_tasks,
    shard_tasks,
    task_key,
)
from repro.experiments.fingerprint import (
    clear_fingerprint_cache,
    code_fingerprint,
)
from repro.experiments.runner import derive_seed, experiment_entry, run_experiments
from repro.experiments.store import ResultStore, StoreCorrupt, scan_store

SUBSET = ["figure1", "figure2", "lemma4", "ports"]

# A tiny grid over the *built-in* kernel (registered by the resilience
# module on import), so its points run identically in worker processes.
TINY_GRID = GridSweep(
    name="tiny-drop-grid",
    kernel="two-hop-drop-probe",
    families=(
        FamilySpec("cycle-4", "cycle", (4,), 4),
        FamilySpec("path-4", "path", (4,), 4),
    ),
    axis="drop_rate",
    values=(0.0, 0.1),
    seeds=(0, 1),
)


def _broken_factory(jobs: int):
    raise OSError("process pools are forbidden here")


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store.jsonl"


class TestFingerprint:
    def test_deterministic_and_cached(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) == code_fingerprint(tmp_path)

    def test_source_change_rotates_fingerprint(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "a.py").write_text("x = 2  # even a comment counts\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) != before

    def test_file_rename_rotates_fingerprint(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) != before

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "notes.md").write_text("irrelevant\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) == before

    def test_default_root_is_the_package(self):
        assert len(code_fingerprint()) == 64


class TestStore:
    def test_append_scan_roundtrip(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
            store.append({"key": "k2", "value": [1, 2]})
        records = scan_store(store_path)
        assert set(records) == {"k1", "k2"}
        assert records["k2"]["value"] == [1, 2]

    def test_missing_file_scans_empty(self, tmp_path):
        assert scan_store(tmp_path / "nope.jsonl") == {}

    def test_torn_final_line_tolerated_by_scan(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn-rec')  # crash mid-write
        records = scan_store(store_path)
        assert set(records) == {"k1"}

    def test_open_repairs_torn_tail_before_appending(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn-rec')
        with ResultStore.open(store_path) as store:
            assert set(store.records) == {"k1"}
            store.append({"key": "k2", "value": 2})
        # The torn bytes are gone and every surviving line is valid JSON.
        lines = store_path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k2"]

    def test_parseable_line_without_newline_is_torn(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "k2", "value": 2}')  # no trailing "\n"
        assert set(scan_store(store_path)) == {"k1"}

    def test_mid_file_corruption_raises(self, store_path):
        store_path.write_text('not json\n{"key": "k1"}\n')
        with pytest.raises(StoreCorrupt, match="line 1"):
            scan_store(store_path)

    def test_append_after_close_raises(self, store_path):
        store = ResultStore.open(store_path)
        store.close()
        with pytest.raises(ReproError, match="closed"):
            store.append({"key": "k"})


class TestTaskKeys:
    def test_key_depends_on_every_component(self):
        spec = {"kind": "experiment", "experiment_id": "figure1", "base_seed": 0}
        reference = task_key("fp", spec, 7)
        assert task_key("fp", spec, 7) == reference
        assert task_key("other", spec, 7) != reference
        assert task_key("fp", {**spec, "base_seed": 1}, 7) != reference
        assert task_key("fp", spec, 8) != reference

    def test_experiment_tasks_match_runner_seeds(self):
        tasks = experiment_tasks(SUBSET, base_seed=11)
        assert [t.task_id for t in tasks] == [f"experiment:{e}" for e in SUBSET]
        assert [t.seed for t in tasks] == [
            derive_seed(eid, base_seed=11) for eid in SUBSET
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            experiment_tasks(["no-such-experiment"])

    def test_grid_expansion_is_the_full_product(self):
        tasks = grid_tasks(TINY_GRID, base_seed=3)
        assert len(tasks) == 2 * 2 * 2
        assert len({t.task_id for t in tasks}) == len(tasks)
        assert len({t.seed for t in tasks}) == len(tasks)
        # Expansion is deterministic, including seeds and order.
        again = grid_tasks(TINY_GRID, base_seed=3)
        assert tasks == again


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/4", "5/4", "x/4", "3", "1/0"):
            with pytest.raises(ReproError):
                parse_shard(bad)

    @pytest.mark.parametrize("count", [1, 2, 4, 5])
    def test_shards_partition_exactly(self, count):
        tasks = grid_tasks(TINY_GRID) + experiment_tasks(SUBSET)
        shards = [shard_tasks(tasks, i, count) for i in range(1, count + 1)]
        ids = [t.task_id for shard in shards for t in shard]
        # Coverage: every task lands in some shard; disjointness: no
        # task lands in two.
        assert sorted(ids) == sorted(t.task_id for t in tasks)

    def test_assignment_is_stable(self):
        tasks = grid_tasks(TINY_GRID)
        assert shard_tasks(tasks, 1, 4) == shard_tasks(tasks, 1, 4)


class TestResume:
    def test_second_run_skips_every_stored_task(self, store_path):
        tasks = experiment_tasks(["figure1", "lemma4"]) + grid_tasks(TINY_GRID)
        first = run_tasks(tasks, store_path, jobs=1)
        assert (first.ran, first.skipped) == (len(tasks), 0)
        second = run_tasks(tasks, store_path, jobs=1)
        assert (second.ran, second.skipped) == (0, len(tasks))
        assert len(scan_store(store_path)) == len(tasks)

    def test_fingerprint_change_invalidates_stored_results(self, store_path):
        tasks = grid_tasks(TINY_GRID)
        run_tasks(tasks, store_path, jobs=1, fingerprint="code-v1")
        resumed = run_tasks(tasks, store_path, jobs=1, fingerprint="code-v1")
        assert resumed.ran == 0
        changed = run_tasks(tasks, store_path, jobs=1, fingerprint="code-v2")
        assert changed.ran == len(tasks)  # every key rotated: full rerun
        # Both generations coexist in the append-only store.
        assert len(scan_store(store_path)) == 2 * len(tasks)

    def test_partial_store_resumes_the_difference(self, store_path):
        tasks = grid_tasks(TINY_GRID)
        run_tasks(tasks[:3], store_path, jobs=1)
        report = run_tasks(tasks, store_path, jobs=1)
        assert (report.ran, report.skipped) == (len(tasks) - 3, 3)

    def test_torn_tail_resume(self, store_path):
        tasks = grid_tasks(TINY_GRID)
        run_tasks(tasks[:4], store_path, jobs=1)
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn')  # killed mid-append
        report = run_tasks(tasks, store_path, jobs=1)
        assert (report.ran, report.skipped) == (len(tasks) - 4, 4)

    def test_pool_failure_degrades_and_still_persists(self, store_path):
        tasks = experiment_tasks(["figure1", "lemma4"])
        report = run_tasks(
            tasks, store_path, jobs=4, executor_factory=_broken_factory
        )
        assert report.fallback_reason is not None
        assert report.ran == 2
        assert len(scan_store(store_path)) == 2

    def test_record_matches_serial_runner_entry(self, tmp_path):
        """A fabric record is the canonical entry a --jobs 1 registry run
        reports, whether the shared worker ran serially or on a pool, and
        grid records agree across job counts."""
        report = run_experiments(SUBSET, jobs=1)
        expected = {
            run.result.experiment_id: json.loads(
                json.dumps(experiment_entry(run.result, run.seed))
            )
            for run in report.runs
        }
        tasks = experiment_tasks(SUBSET) + grid_tasks(TINY_GRID)
        grids = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            assert run_tasks(tasks, path, jobs=jobs).fallback_reason is None
            records = scan_store(path).values()
            by_id = {
                record["spec"]["experiment_id"]: record["result"]
                for record in records
                if record["kind"] == "experiment"
            }
            assert by_id == expected
            grids[jobs] = {
                record["task_id"]: record for record in records if record["kind"] == "grid"
            }
        assert len(grids[1]) == 8
        assert grids[2] == grids[1]


class TestMerge:
    def test_sharded_parallel_merge_is_byte_identical_to_serial(self, tmp_path):
        tasks = experiment_tasks(SUBSET) + grid_tasks(TINY_GRID)
        shard_stores = []
        for i in (1, 2):
            path = tmp_path / f"shard{i}.jsonl"
            run_tasks(shard_tasks(tasks, i, 2), path, jobs=2)
            shard_stores.append(path)
        serial_store = tmp_path / "serial.jsonl"
        run_tasks(tasks, serial_store, jobs=1)

        sharded, _ = merge_stores(shard_stores)
        serial, _ = merge_stores([serial_store])
        assert dump_merged(sharded) == dump_merged(serial)
        assert [e["experiment_id"] for e in serial["results"]] == sorted(SUBSET)
        assert len(serial["grids"]["tiny-drop-grid"]) == 8

    def test_resumed_store_merges_identically(self, tmp_path):
        tasks = grid_tasks(TINY_GRID)
        resumed = tmp_path / "resumed.jsonl"
        run_tasks(tasks[:5], resumed, jobs=1)
        run_tasks(tasks, resumed, jobs=1)  # resume the rest
        fresh = tmp_path / "fresh.jsonl"
        run_tasks(tasks, fresh, jobs=1)
        assert dump_merged(merge_stores([resumed])[0]) == dump_merged(
            merge_stores([fresh])[0]
        )

    def test_stale_fingerprints_are_ignored_not_merged(self, tmp_path):
        tasks = grid_tasks(TINY_GRID)
        path = tmp_path / "mixed.jsonl"
        run_tasks(tasks, path, jobs=1, fingerprint="code-v1")
        run_tasks(tasks, path, jobs=1, fingerprint="code-v2")
        payload, stats = merge_stores([path], fingerprint="code-v2")
        assert stats["ignored"] == len(tasks)
        assert stats["records"] == len(tasks)
        assert payload["engine"]["fingerprint"] == "code-v2"

    def test_conflicting_records_raise(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record = {
            "key": "k1",
            "task_id": "t",
            "kind": "grid",
            "fingerprint": "fp",
            "seed": 1,
            "spec": {
                "grid": "g",
                "family": {"name": "f", "size": 1},
                "axis": "a",
                "value": 0,
                "point_seed": 0,
            },
            "result": {"x": 1},
        }
        with ResultStore.open(a) as store:
            store.append(record)
        with ResultStore.open(b) as store:
            store.append({**record, "result": {"x": 2}})
        with pytest.raises(ReproError, match="disagree"):
            merge_stores([a, b], fingerprint="fp")

    def test_merged_payload_is_deterministic_json(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_tasks(grid_tasks(TINY_GRID), path, jobs=1)
        payload, _ = merge_stores([path])
        text = dump_merged(payload)
        assert text == dump_merged(json.loads(text))  # stable under roundtrip
        assert text.endswith("\n")


class TestFabricCli:
    def test_run_status_merge_cycle(self, tmp_path, capsys):
        store = tmp_path / "cli.jsonl"
        out = tmp_path / "merged.json"
        rc = main(["fabric", "run", "figure1", "lemma4", "--store", str(store)])
        assert rc == 0
        assert "ran=2" in capsys.readouterr().out
        rc = main(["fabric", "status", "figure1", "lemma4", "--store", str(store)])
        assert rc == 0
        assert "pending=0" in capsys.readouterr().out
        rc = main(["fabric", "run", "figure1", "lemma4", "--store", str(store)])
        assert rc == 0
        assert "ran=0" in capsys.readouterr().out
        rc = main(["fabric", "merge", str(store), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [e["experiment_id"] for e in payload["results"]] == [
            "figure1",
            "lemma4",
        ]

    def test_shard_flag_restricts_the_selection(self, tmp_path, capsys):
        store = tmp_path / "shard.jsonl"
        totals = 0
        for i in (1, 2):
            rc = main(
                ["fabric", "status", *SUBSET, "--shard", f"{i}/2", "--store", str(store)]
            )
            assert rc == 0
            line = capsys.readouterr().out
            totals += int(line.split("total=")[1].split()[0])
        assert totals == len(SUBSET)

    def test_empty_selection_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            ["fabric", "run", "--filter", "zzz-no-such", "--store", str(tmp_path / "s")]
        )
        assert rc == 2
        assert "matches no tasks" in capsys.readouterr().err

    def test_grids_listing(self, capsys):
        rc = main(["fabric", "grids"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience-drop-grid" in out
        assert "two-hop-cost-grid" in out

    def test_fingerprint_subcommand(self, capsys):
        rc = main(["fabric", "fingerprint"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == code_fingerprint()


class TestStrictJobs:
    """The silent-degradation bugfix: ``--jobs N`` falling back to a
    serial run used to exit 0 with only a stderr notice."""

    def test_classic_cli_exits_nonzero_with_strict_jobs(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(
            runner_module, "_default_executor_factory", _broken_factory
        )
        rc = main(["figure1", "lemma4", "--jobs", "2", "--strict-jobs"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "ran serially" in err
        assert "--strict-jobs" in err

    def test_classic_cli_still_warns_without_the_flag(self, monkeypatch, capsys):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(
            runner_module, "_default_executor_factory", _broken_factory
        )
        rc = main(["figure1", "lemma4", "--jobs", "2"])
        captured = capsys.readouterr()
        assert rc == 0  # degradation remains non-fatal by default
        assert "ran serially" in captured.err

    def test_fabric_cli_exits_nonzero_with_strict_jobs(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(
            runner_module, "_default_executor_factory", _broken_factory
        )
        rc = main(
            [
                "fabric",
                "run",
                "figure1",
                "lemma4",
                "--jobs",
                "2",
                "--strict-jobs",
                "--store",
                str(tmp_path / "s.jsonl"),
            ]
        )
        assert rc == 3
        assert "ran serially" in capsys.readouterr().err

    def test_serial_run_never_trips_strict_jobs(self, capsys):
        rc = main(["figure1", "--jobs", "1", "--strict-jobs"])
        assert rc == 0
