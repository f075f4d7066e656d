"""Code fingerprinting for the content-addressed artifact store.

An artifact is a pure function of ``(code, spec)``: the same source
tree and the same question always produce the same payload, byte for
byte.  :func:`code_fingerprint` digests the ``repro`` source tree —
every ``*.py`` file under the package root, in sorted relative-path
order, each contributing its path and raw bytes — with SHA-256, the
same hash discipline the runner's seed derivation and the fault
subsystem use.  It leads every artifact key
(:func:`repro.artifacts.keys.artifact_key`), stamps every persistent
record, and names benchmark outputs (:func:`short_fingerprint`).

Any source change (even a comment) changes the fingerprint, which
changes every artifact key, which makes every stored payload
unreachable.  That is deliberate: the store never has to reason about
*which* change affected *which* artifact, and a stale store degrades
to a cache miss, never to a wrong answer.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["clear_fingerprint_cache", "code_fingerprint", "short_fingerprint"]

# Fingerprints are pure functions of the tree contents; memoized per
# resolved root because one process needs the fingerprint for every
# key it derives and every record it writes or scans.
_CACHE: dict[str, str] = {}


def _default_root() -> Path:
    """The installed ``repro`` package directory (the ``src/repro`` tree)."""
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: "str | Path | None" = None) -> str:
    """SHA-256 hex digest of every ``*.py`` file under ``root``.

    ``root`` defaults to the ``repro`` package directory.  Files are
    visited in sorted POSIX relative-path order; each contributes
    ``path NUL contents NUL`` so file boundaries cannot alias (moving
    bytes between adjacent files changes the digest).
    """
    base = Path(root).resolve() if root is not None else _default_root()
    cache_key = str(base)
    cached = _CACHE.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py"), key=lambda p: p.relative_to(base).as_posix()):
        digest.update(path.relative_to(base).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    _CACHE[cache_key] = fingerprint
    return fingerprint


def short_fingerprint(fingerprint: "str | None" = None) -> str:
    """The 12-character prefix used in log lines and artifact names."""
    return (fingerprint or code_fingerprint())[:12]


def clear_fingerprint_cache() -> None:
    """Drop the memo (tests rewrite trees under a reused tmp path)."""
    _CACHE.clear()
