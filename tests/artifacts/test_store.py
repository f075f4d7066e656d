"""The artifact store: keys, memory buckets, persistence."""

from __future__ import annotations

import pytest

from repro.artifacts.keys import artifact_key, canonical_spec, payload_digest
from repro.artifacts.producers import compute_payload
from repro.artifacts.specs import refinement_spec, views_spec
from repro.artifacts.store import (
    ArtifactStore,
    MemoryBucket,
    memory_stats,
)
from repro.exceptions import ArtifactError
from repro.experiments.fingerprint import code_fingerprint
from repro.experiments.store import rewrite_store, scan_store
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.views.view_tree import clear_caches


@pytest.fixture(autouse=True)
def _fresh_memory_tier():
    clear_caches()
    yield
    clear_caches()


def _graph(n=6):
    return with_uniform_input(cycle_graph(n))


class TestKeys:
    def test_spec_must_carry_a_kind(self):
        with pytest.raises(ArtifactError):
            artifact_key({"graph": {}})

    def test_canonical_spec_is_order_independent(self):
        a = {"kind": "refinement", "graph": {"nodes": [1, 2]}}
        b = {"graph": {"nodes": [1, 2]}, "kind": "refinement"}
        assert canonical_spec(a) == canonical_spec(b)
        assert artifact_key(a) == artifact_key(b)

    def test_key_embeds_the_code_fingerprint(self):
        spec = refinement_spec(_graph())
        current = artifact_key(spec)
        assert current == artifact_key(spec, fingerprint=code_fingerprint())
        assert current != artifact_key(spec, fingerprint="f" * 64)

    def test_distinct_specs_get_distinct_keys(self):
        g = _graph()
        keys = {
            artifact_key(refinement_spec(g)),
            artifact_key(views_spec(g, 2)),
            artifact_key(views_spec(g, 3)),
            artifact_key(refinement_spec(_graph(7))),
        }
        assert len(keys) == 4

    def test_payload_digest_is_content_addressed(self):
        assert payload_digest(b"abc") == payload_digest(b"abc")
        assert payload_digest(b"abc") != payload_digest(b"abd")


class TestMemoryBucket:
    def test_lru_eviction_order(self):
        bucket = MemoryBucket("test-lru", capacity=2)
        bucket.put("a", 1)
        bucket.put("b", 2)
        assert bucket.get("a") == 1  # refreshes "a": "b" is now oldest
        bucket.put("c", 3)
        assert bucket.get("b") is None
        assert bucket.get("a") == 1 and bucket.get("c") == 3
        assert bucket.evictions == 1

    def test_counters(self):
        bucket = MemoryBucket("test-counters", capacity=4)
        assert bucket.get("missing") is None
        bucket.put("k", "v")
        assert bucket.get("k") == "v"
        assert bucket.stats() == {
            "size": 1,
            "capacity": 4,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ArtifactError):
            MemoryBucket("test-bad", capacity=0)

    def test_registry_shares_buckets_and_clear_keeps_counters(self):
        """Every store shares the one payload bucket; ``clear_caches``
        empties it and its counters survive (they describe the process)."""
        spec = refinement_spec(_graph())
        payload = ArtifactStore().fetch(spec)
        before = memory_stats()
        assert list(before) == ["payload"]
        assert ArtifactStore().lookup(artifact_key(spec)) == payload
        after = memory_stats()["payload"]
        assert after["hits"] == before["payload"]["hits"] + 1
        clear_caches()
        cleared = memory_stats()["payload"]
        assert cleared["size"] == 0
        assert cleared["hits"] == after["hits"]
        assert ArtifactStore().lookup(artifact_key(spec)) is None


class TestArtifactStore:
    def test_memory_only_fetch_computes_once(self):
        store = ArtifactStore()
        spec = refinement_spec(_graph())
        first = store.fetch(spec)
        assert store.lookup(artifact_key(spec)) == first
        assert store.fetch(spec) == first
        assert store.stores == 1

    def test_fetch_matches_direct_computation(self):
        spec = views_spec(_graph(), 3)
        assert ArtifactStore().fetch(spec) == compute_payload(spec)

    def test_failed_compute_caches_nothing_and_a_retry_recomputes(self, monkeypatch):
        from repro.artifacts import producers

        spec = refinement_spec(_graph())
        key = artifact_key(spec)
        store = ArtifactStore()

        def poisoned(spec):
            raise ArtifactError("poisoned spec")

        monkeypatch.setattr(producers, "compute_payload", poisoned)
        with pytest.raises(ArtifactError, match="poisoned spec"):
            store.fetch(spec)
        assert store.lookup(key) is None
        assert store.stores == 0
        monkeypatch.undo()
        assert store.fetch(spec) == compute_payload(spec)
        assert store.stores == 1

    def test_persistent_round_trip_survives_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = refinement_spec(_graph())
        key = artifact_key(spec)
        with ArtifactStore(path) as store:
            payload = store.fetch(spec)
        clear_caches()
        with ArtifactStore(path) as reopened:
            assert reopened.lookup(key) == payload
            assert reopened.persistent_hits == 1
            # Promotion: the second lookup is a memory hit.
            assert reopened.lookup(key) == payload
            assert reopened.persistent_hits == 1

    def test_persist_is_append_once(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = refinement_spec(_graph())
        with ArtifactStore(path) as store:
            store.fetch(spec)
            store.persist(artifact_key(spec), spec, b'{"other": 1}')
        # The persistent tier kept the first payload.
        record = scan_store(path)[artifact_key(spec)]
        assert record["payload"] != '{"other": 1}'

    def test_digest_mismatch_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = refinement_spec(_graph())
        key = artifact_key(spec)
        with ArtifactStore(path) as store:
            store.fetch(spec)
        records = scan_store(path)
        records[key]["payload"] = records[key]["payload"][:-2] + "]}"
        rewrite_store(path, records)
        clear_caches()
        with ArtifactStore(path) as corrupted:
            with pytest.raises(ArtifactError, match="digest mismatch"):
                corrupted.lookup(key)

    def test_gc_drops_stale_fingerprints(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = refinement_spec(_graph())
        stale_key = artifact_key(spec, fingerprint="f" * 64)
        with ArtifactStore(path) as store:
            store.fetch(spec)
            store.persist(stale_key, spec, b'{"stale": true}', fingerprint="f" * 64)
        records = scan_store(path)
        assert len(records) == 2
        current = code_fingerprint()
        kept = {
            key: record
            for key, record in records.items()
            if record["fingerprint"] == current
        }
        rewrite_store(path, kept)
        assert set(scan_store(path)) == {artifact_key(spec)}

    def test_stale_fingerprint_is_a_miss_not_a_wrong_answer(self, tmp_path):
        # A key minted under another fingerprint never collides with the
        # current one, so old payloads are unreachable — the store serves
        # them only to a process whose code hashes identically.
        path = tmp_path / "store.jsonl"
        spec = refinement_spec(_graph())
        with ArtifactStore(path) as store:
            store.persist(
                artifact_key(spec, fingerprint="f" * 64),
                spec,
                b'{"stale": true}',
                fingerprint="f" * 64,
            )
            assert store.lookup(artifact_key(spec)) is None

    def test_stats_shape(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ArtifactStore(path) as store:
            store.fetch(refinement_spec(_graph()))
            stats = store.stats()
        assert stats["persistent"]["enabled"]
        assert stats["persistent"]["records"] == 1
        assert stats["persistent"]["by_kind"] == {"refinement": 1}
        assert stats["stores"] == 1
        assert list(stats["memory"]) == ["payload"]

