"""The keyed artifact store: memory tier + optional persistent tier.

**Memory tier.**  One process-wide registry of per-kind LRU *buckets*.
The library's own memos (refinement results, view builders, quotients)
are buckets in this registry, keyed by live graph objects — structural
hash, no serialization on the hot path — with the same capacities and
eviction order they had as private module dicts.  Eviction is uniform:
:func:`clear_memory_tier` (reached through
:func:`repro.views.view_tree.clear_caches`) empties every bucket, and
each bucket counts hits/misses/evictions for the CLI and ``stats()``.

The one deliberate exception is the per-instance CSR mirror
(``LabeledGraph._csr``): it is identity-keyed on the instance, holds no
interned trees (so it cannot dangle across an interning epoch), and dies
with its graph — clearing it would only force rebuilds.  See
``docs/PERFORMANCE.md``.

**Persistent tier.**  An :class:`ArtifactStore` optionally opens an
fsync'd append-only JSONL file (through
:class:`repro.experiments.store.ResultStore`: torn-tail repair on open,
corruption before the final line is an error) holding one encoded
payload per content key.
Because keys embed the code fingerprint, a stale file is all misses.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.artifacts.keys import artifact_key, payload_digest
from repro.exceptions import ArtifactError

__all__ = [
    "ArtifactStore",
    "MemoryBucket",
    "clear_memory_tier",
    "memory_bucket",
    "memory_stats",
]


class MemoryBucket:
    """One kind's LRU memo: an :class:`OrderedDict` with counters.

    Keys are whatever the producer finds cheapest — live graph objects
    (structural equality/hash) for the library memos, content-key
    strings for decoded payloads.  ``get`` refreshes recency; ``put``
    evicts the least recently used entry beyond ``capacity``.
    """

    __slots__ = ("kind", "capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, kind: str, capacity: int) -> None:
        if capacity < 1:
            raise ArtifactError(f"bucket {kind!r}: capacity must be >= 1, got {capacity}")
        self.kind = kind
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Any:
        """The cached value, refreshed as most recent — or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> "dict[str, int]":
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# The process-wide memory tier: one bucket per artifact kind.
_MEMORY: "dict[str, MemoryBucket]" = {}


def memory_bucket(kind: str, capacity: int = 16) -> MemoryBucket:
    """The memory-tier bucket for ``kind``, created on first use.

    The first caller fixes the capacity; later callers share the same
    bucket (producers register theirs at import time, so capacities are
    stable for the life of the process).
    """
    bucket = _MEMORY.get(kind)
    if bucket is None:
        bucket = MemoryBucket(kind, capacity)
        _MEMORY[kind] = bucket
    return bucket


def clear_memory_tier() -> None:
    """Empty every bucket (counters survive: they describe the process,
    not the current contents).  Reached through
    :func:`repro.views.view_tree.clear_caches`, which also resets the
    view intern tables — the buckets hold interned trees, so the two
    must clear together."""
    for bucket in _MEMORY.values():
        bucket.clear()


def memory_stats() -> "dict[str, dict[str, int]]":
    """Per-kind bucket statistics, kinds sorted for stable output."""
    return {kind: _MEMORY[kind].stats() for kind in sorted(_MEMORY)}


# -- the two-tier store -------------------------------------------------

# Encoded payloads cached by content key (both tiers' fast path).
_PAYLOAD_BUCKET_CAPACITY = 256


class ArtifactStore:
    """Encoded artifacts by content key: memory bucket over JSONL file.

    ``path=None`` gives a memory-only store (the default for library
    use); with a path, every computed payload is durably appended as
    ``{"key", "kind", "fingerprint", "spec", "digest", "payload"}`` and
    every complete record is served on reopen — the warm-start story of
    the artifacts gate (:mod:`repro.experiments.gates`).
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self._payloads = memory_bucket("payload", _PAYLOAD_BUCKET_CAPACITY)
        self._persistent = None
        self.persistent_hits = 0
        self.stores = 0
        if path is not None:
            from repro.experiments.store import ResultStore

            self._persistent = ResultStore.open(path)

    @property
    def path(self) -> "Path | None":
        return self._persistent.path if self._persistent is not None else None

    def lookup(self, key: str) -> "bytes | None":
        """The encoded payload for ``key`` from the fastest tier holding
        it (promoting persistent hits into the memory tier), or ``None``."""
        payload = self._payloads.get(key)
        if payload is not None:
            return payload
        if self._persistent is not None:
            record = self._persistent.records.get(key)
            if record is not None:
                payload = record["payload"].encode("utf-8")
                if payload_digest(payload) != record["digest"]:
                    raise ArtifactError(
                        f"{self.path}: payload digest mismatch for key {key[:12]}…"
                    )
                self.persistent_hits += 1
                self._payloads.put(key, payload)
                return payload
        return None

    def persist(
        self,
        key: str,
        spec: "dict[str, Any]",
        payload: bytes,
        fingerprint: "str | None" = None,
    ) -> None:
        """Admit a computed payload to both tiers (append-once: a key
        already in the persistent tier is not rewritten)."""
        self._payloads.put(key, payload)
        self.stores += 1
        if self._persistent is not None and key not in self._persistent:
            if fingerprint is None:
                from repro.experiments.fingerprint import code_fingerprint

                fingerprint = code_fingerprint()
            self._persistent.append(
                {
                    "key": key,
                    "kind": spec["kind"],
                    "fingerprint": fingerprint,
                    "spec": spec,
                    "digest": payload_digest(payload),
                    "payload": payload.decode("utf-8"),
                }
            )

    def fetch(self, spec: "dict[str, Any]") -> bytes:
        """The read path: lookup in either tier, else compute via the
        producers and persist — a failed compute caches nothing."""
        key = artifact_key(spec)
        payload = self.lookup(key)
        if payload is None:
            from repro.artifacts.producers import compute_payload

            payload = compute_payload(spec)
            self.persist(key, spec, payload)
        return payload

    def records(self) -> "dict[str, dict[str, Any]]":
        """The persistent records by key (empty for memory-only stores)."""
        return dict(self._persistent.records) if self._persistent is not None else {}

    def stats(self) -> "dict[str, Any]":
        """Both tiers' counters (the CLI ``status`` payload)."""
        persistent: "dict[str, Any]" = {"enabled": self._persistent is not None}
        if self._persistent is not None:
            by_kind: "dict[str, int]" = {}
            for record in self._persistent.records.values():
                by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
            persistent.update(
                {
                    "path": str(self.path),
                    "records": len(self._persistent),
                    "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
                    "hits": self.persistent_hits,
                }
            )
        return {
            "memory": memory_stats(),
            "persistent": persistent,
            "stores": self.stores,
        }

    def close(self) -> None:
        if self._persistent is not None:
            self._persistent.close()
            self._persistent = None

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
