"""Self-tests of the benchmark: tiny runs of each workload.

    python3 -m pytest derandbench -q

Each tiny run emits every metric named in ``BENCHMARK.json`` with its
unit and no failed op; a wrong expected digest, golden entry or recorded
count is reported as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import (  # noqa: E402
    CountLedger,
    PipelineWorkload,
    RegistryWorkload,
    load_expected_digests,
    load_golden,
    pipeline_instances,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Cheap experiments, so a registry pass takes well under a second.
TINY_REGISTRY = ["figure1", "lemma4", "norris", "fibrations"]


def tiny(workload: str, expected=None, golden=None, ledger=None):
    ledger = ledger or CountLedger()
    if workload == "registry":
        return RegistryWorkload(golden or load_golden(run.GOLDEN), ledger, TINY_REGISTRY)
    # The cheapest type of each pipeline workload.
    instances = pipeline_instances(workload, seed=1)[:1]
    return PipelineWorkload(workload, instances, expected or load_expected_digests(), ledger)


def failures(result) -> list[str]:
    units = result["untraced"] + result["traced"]
    return [op.failure for unit in units for op in unit.ops if op.failure is not None]


def units_of(metrics: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_without_failures(workload):
    untraced = run.measure(tiny(workload), cycles=1, trace=False)
    assert failures(untraced) == []
    metrics, _context = run.end_to_end(untraced, setup_s=0.5)
    assert units_of(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in metrics.values())

    traced = run.measure(tiny(workload), cycles=1, trace=True)
    assert failures(traced) == []
    layers = run.per_layer(traced)
    assert units_of(layers) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload != "registry":
        assert layers["practical.quotient_from_view.calls"]["value"] >= 1
        assert layers["trace.attributed_frac"]["value"] >= 0.9


def test_wrong_expected_digest_is_a_failure():
    workload = tiny("search")
    key = workload.units[0].key
    wrong = dict(workload.expected, **{key: "0" * 64})
    result = run.measure(tiny("search", expected=wrong), cycles=1, trace=False)
    assert failures(result) == ["output digest differs from the recorded one"]


def test_missing_expected_digest_is_a_failure():
    result = run.measure(tiny("search", expected={"unrelated": ""}), cycles=1, trace=False)
    assert failures(result) == ["no expected digest recorded"]


def test_wrong_golden_entry_is_a_failure():
    golden = load_golden(run.GOLDEN)
    golden["norris"] = dict(golden["norris"], title="tampered")
    result = run.measure(tiny("registry", golden=golden), cycles=1, trace=False)
    assert failures(result) == ["canonical entry differs from the golden file"]


def test_changed_count_is_a_failure(tmp_path):
    ledger = CountLedger(tmp_path / "counts.json")
    run.measure(tiny("search", ledger=ledger), cycles=1, trace=False)
    key = next(iter(ledger.records))
    records = json.loads((tmp_path / "counts.json").read_text())
    records[key]["engine.executions"] += 1
    (tmp_path / "counts.json").write_text(json.dumps(records))

    result = run.measure(tiny("search", ledger=CountLedger(tmp_path / "counts.json")), 1, False)
    assert failures(result) == [f"counts of {key} changed from an earlier run: ['engine.executions']"]


def test_same_seed_repeats_every_count(tmp_path):
    ledger = CountLedger(tmp_path / "counts.json")
    first = run.measure(tiny("registry", ledger=ledger), cycles=1, trace=True)
    second = run.measure(tiny("registry", ledger=CountLedger(tmp_path / "counts.json")), 1, False)
    assert failures(first) == failures(second) == []
    assert first["untraced"][0].counts == first["traced"][0].counts == second["untraced"][0].counts


def test_without_sources_the_command_fails(tmp_path):
    import subprocess

    bench = tmp_path / "derandbench"
    bench.mkdir()
    (bench / "run.py").write_text((HERE / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "search", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
