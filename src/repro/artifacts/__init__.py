"""Content-addressed artifacts: one cache discipline for every canonical object.

Every canonical object this library produces — view trees, per-node view
maps, refinement partitions, quotients (``G_∞``/``G_*``), derandomized
pipeline runs — is a pure function of ``(code, spec)``: the source tree
plus a JSON description of the question.  This package gives all of them
one SHA-256-keyed address space and one cache story:

* :mod:`repro.artifacts.keys` — ``sha256(code fingerprint ␟ canonical
  spec JSON)`` keys, so any source change rotates every key and a stale
  entry is a cache miss, never a wrong answer.
* :mod:`repro.artifacts.encoders` — canonical byte encoders per artifact
  kind (integer/string arithmetic only; lint rule ``WALL001`` covers
  them).
* :mod:`repro.artifacts.store` — the memory tier (the per-kind LRU
  buckets that back the library's own memos) plus an optional fsync'd
  JSONL persistent tier built on :mod:`repro.experiments.store`.
* :mod:`repro.artifacts.producers` — ``spec -> live object`` compute
  functions, one per kind, used by cache misses and direct computation.

``ArtifactStore.fetch(spec)`` is the one read path: lookup in either
tier, else compute, persist and return the canonical payload.

This module stays import-light on purpose: the view/factor producers
import :mod:`repro.artifacts.store` at module load, so nothing here may
pull in the heavier layers (encoders, producers, experiments).
"""

from repro.artifacts.keys import artifact_key, payload_digest
from repro.artifacts.store import (
    ArtifactStore,
    MemoryBucket,
    clear_memory_tier,
    memory_bucket,
    memory_stats,
)

__all__ = [
    "ArtifactStore",
    "MemoryBucket",
    "artifact_key",
    "clear_memory_tier",
    "memory_bucket",
    "memory_stats",
    "payload_digest",
]
