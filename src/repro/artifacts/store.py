"""The keyed artifact store: memory tier + optional persistent tier.

**Memory tier.**  One LRU :class:`MemoryBucket` of encoded payloads,
keyed by content key and shared by every :class:`ArtifactStore` in the
process.  It is the library's one cache of results: views and
refinement recompute from the interned view trees and the per-instance
CSR mirror (``LabeledGraph._csr``), which are cheaper than a lookup
keyed by a live graph.  :func:`clear_memory_tier` (reached through
:func:`repro.views.view_tree.clear_caches`) empties the bucket; its
hit/miss/eviction counters survive for ``stats()``.
See ``docs/PERFORMANCE.md``.

**Persistent tier.**  An :class:`ArtifactStore` optionally opens an
fsync'd append-only JSONL file (through
:class:`repro.experiments.store.ResultStore`: torn-tail repair on open,
corruption before the final line is an error) holding one encoded
payload per content key.
Because keys embed the code fingerprint, a stale file is all misses.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.artifacts.keys import artifact_key, payload_digest
from repro.exceptions import ArtifactError

__all__ = [
    "ArtifactStore",
    "MemoryBucket",
    "clear_memory_tier",
    "memory_stats",
    "records_by_kind",
]


class MemoryBucket:
    """One kind's LRU memo: an :class:`OrderedDict` with counters.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry beyond ``capacity``.
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


# The process-wide memory tier: encoded payloads by content key (both
# tiers' fast path).
_PAYLOADS = MemoryBucket("payload", 256)


def clear_memory_tier() -> None:
    """Empty the payload bucket (its counters survive: they describe the
    process, not the current contents).  Reached through
    :func:`repro.views.view_tree.clear_caches`."""
    _PAYLOADS.clear()


def memory_stats() -> "dict[str, dict[str, int]]":
    """The memory tier's bucket statistics, by kind."""
    return {_PAYLOADS.kind: _PAYLOADS.stats()}


def records_by_kind(records: "Mapping[str, Mapping[str, Any]]") -> "dict[str, int]":
    """How many persistent records carry each kind, kinds sorted for
    stable output (``"?"`` for a record without one)."""
    counts: "dict[str, int]" = {}
    for record in records.values():
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return {kind: counts[kind] for kind in sorted(counts)}


# -- the two-tier store -------------------------------------------------


class ArtifactStore:
    """Encoded artifacts by content key: memory bucket over JSONL file.

    ``path=None`` gives a memory-only store (the default for library
    use); with a path, every computed payload is durably appended as
    ``{"key", "kind", "fingerprint", "spec", "digest", "payload"}`` and
    every complete record is served on reopen — the warm-start story of
    the artifacts gate (:mod:`repro.experiments.gates`).
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self._persistent = None
        self.persistent_hits = 0
        self.stores = 0
        if path is not None:
            from repro.experiments.store import ResultStore

            self._persistent = ResultStore.open(path)

    def lookup(self, key: str) -> "bytes | None":
        """The encoded payload for ``key`` from the fastest tier holding
        it (promoting persistent hits into the memory tier), or ``None``."""
        payload = _PAYLOADS.get(key)
        if payload is not None:
            return payload
        if self._persistent is not None:
            record = self._persistent.records.get(key)
            if record is not None:
                payload = record["payload"].encode("utf-8")
                if payload_digest(payload) != record["digest"]:
                    raise ArtifactError(
                        f"{self._persistent.path}: payload digest mismatch for key {key[:12]}…"
                    )
                self.persistent_hits += 1
                _PAYLOADS.put(key, payload)
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
        _PAYLOADS.put(key, payload)
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

    def stats(self) -> "dict[str, Any]":
        """Both tiers' counters for an open store, read in-process (the
        CLI ``status`` reads a store file and prints the same per-kind
        tally through :func:`records_by_kind`)."""
        persistent: "dict[str, Any]" = {"enabled": self._persistent is not None}
        if self._persistent is not None:
            persistent.update(
                {
                    "path": str(self._persistent.path),
                    "records": len(self._persistent),
                    "by_kind": records_by_kind(self._persistent.records),
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
