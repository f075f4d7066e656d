"""Artifact keys: ``sha256(code fingerprint ␟ canonical spec JSON)``.

Material fields are joined with the unit separator ``\\x1f`` and
digested with SHA-256, with the code fingerprint
(:func:`repro.experiments.fingerprint.code_fingerprint`) as the leading
component.  A spec is a plain JSON object that *must* carry a ``kind``
and fully describes the question (graphs are embedded via
:func:`repro.graphs.io.graph_to_dict`, so keys depend on structure, not
on instance identity).  Because the fingerprint covers every source file
of the package, any code change — even a comment — rotates every key:
stale store entries degrade to cache misses, never to wrong answers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.exceptions import ArtifactError

__all__ = ["artifact_key", "canonical_spec", "payload_digest"]

_SEP = "\x1f"


def canonical_spec(spec: "dict[str, Any]") -> str:
    """One canonical JSON line for a spec (sorted keys, no whitespace)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def artifact_key(spec: "dict[str, Any]", fingerprint: "str | None" = None) -> str:
    """The content address of the artifact described by ``spec``.

    ``fingerprint`` defaults to the current tree's
    :func:`repro.experiments.fingerprint.code_fingerprint` (imported
    lazily: this module is loaded during the view layer's own import).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ArtifactError(f"artifact spec must be a dict with a 'kind': {spec!r}")
    if fingerprint is None:
        from repro.experiments.fingerprint import code_fingerprint

        fingerprint = code_fingerprint()
    material = _SEP.join([fingerprint, canonical_spec(spec)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def payload_digest(payload: bytes) -> str:
    """SHA-256 hex digest of an encoded payload (stored alongside it so
    ``verify`` can detect byte rot independently of re-encoding)."""
    return hashlib.sha256(payload).hexdigest()
