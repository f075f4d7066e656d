"""``python -m repro.artifacts`` — exit codes and stable output lines."""

from __future__ import annotations

import pytest

from repro.artifacts.__main__ import main
from repro.artifacts.keys import artifact_key
from repro.artifacts.specs import refinement_spec, views_spec
from repro.artifacts.store import ArtifactStore
from repro.experiments.fingerprint import code_fingerprint
from repro.experiments.store import rewrite_store, scan_store
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.views.view_tree import clear_caches


@pytest.fixture(autouse=True)
def _fresh_memory_tier():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def populated_store(tmp_path):
    path = tmp_path / "store.jsonl"
    g = with_uniform_input(cycle_graph(6))
    with ArtifactStore(path) as store:
        store.fetch(refinement_spec(g))
        store.fetch(views_spec(g, 3))
        # One record from a rotated-out fingerprint, as after a deploy.
        stale_spec = refinement_spec(with_uniform_input(cycle_graph(7)))
        store.persist(
            artifact_key(stale_spec, fingerprint="f" * 64),
            stale_spec,
            b'{"stale": true}',
            fingerprint="f" * 64,
        )
    return path


def test_status_counts_current_and_stale(populated_store, capsys):
    assert main(["status", "--store", str(populated_store)]) == 0
    out = capsys.readouterr().out
    assert "records=3 current=2 stale=1" in out
    assert "kind refinement: 2 record(s)" in out
    assert "kind views: 1 record(s)" in out
    assert "  memory " not in out  # a fresh process's counters say nothing


def test_gc_drops_stale_fingerprints(populated_store, capsys):
    assert main(["gc", "--store", str(populated_store)]) == 0
    assert "kept=2 dropped=1" in capsys.readouterr().out
    records = scan_store(populated_store)
    assert len(records) == 2
    assert all(
        record["fingerprint"] == code_fingerprint() for record in records.values()
    )


def test_gc_dry_run_leaves_the_store_alone(populated_store, capsys):
    assert main(["gc", "--store", str(populated_store), "--dry-run"]) == 0
    assert "dropped=1 " in capsys.readouterr().out
    assert len(scan_store(populated_store)) == 3


def test_gc_keep_fingerprint_selects_the_generation(populated_store, capsys):
    assert (
        main(
            [
                "gc",
                "--store",
                str(populated_store),
                "--keep-fingerprint",
                "f" * 64,
            ]
        )
        == 0
    )
    records = scan_store(populated_store)
    assert len(records) == 1
    assert next(iter(records.values()))["fingerprint"] == "f" * 64


def test_verify_clean_store_exits_zero(populated_store, capsys):
    # The stale record's payload is not a decodable artifact, so verify
    # only the current generation: gc first, then verify.
    main(["gc", "--store", str(populated_store)])
    assert main(["verify", "--store", str(populated_store)]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_verify_detects_corrupted_payload(populated_store, capsys):
    main(["gc", "--store", str(populated_store)])
    records = scan_store(populated_store)
    key = sorted(records)[0]
    records[key]["payload"] = records[key]["payload"].replace(":", ": ", 1)
    rewrite_store(populated_store, records)
    assert main(["verify", "--store", str(populated_store)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "mismatches=1" in out


def test_verify_detects_tampered_payload_with_fixed_digest(
    populated_store, capsys
):
    # Even when the digest is recomputed to match, decode -> re-encode
    # catches payloads that are not canonical bytes.
    from repro.artifacts.keys import payload_digest

    main(["gc", "--store", str(populated_store)])
    records = scan_store(populated_store)
    key = sorted(records)[0]
    tampered = records[key]["payload"].replace(":", ": ", 1)
    records[key]["payload"] = tampered
    records[key]["digest"] = payload_digest(tampered.encode("utf-8"))
    rewrite_store(populated_store, records)
    assert main(["verify", "--store", str(populated_store)]) == 1


def test_verify_sample_checks_a_subset(populated_store, capsys):
    main(["gc", "--store", str(populated_store)])
    assert (
        main(["verify", "--store", str(populated_store), "--sample", "1"]) == 0
    )
    assert "checked=1 of=2" in capsys.readouterr().out


def test_status_on_missing_store_is_empty_not_an_error(tmp_path, capsys):
    assert main(["status", "--store", str(tmp_path / "nope.jsonl")]) == 0
    assert "records=0 current=0 stale=0" in capsys.readouterr().out
