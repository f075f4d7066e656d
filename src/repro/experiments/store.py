"""The append-only JSONL store behind the artifact store's persistent tier.

One record = one JSON line, written with ``flush`` + ``fsync`` before
:meth:`ResultStore.append` returns (:mod:`repro.artifacts.store` appends
one record per content key; ``python -m repro.artifacts`` scans and
rewrites the file).  There is no footer, no index and no
rewrite-in-place: the file is valid after *every* appended line, so a
killed run (CI timeout, OOM, ctrl-C) loses at most the record that was
mid-write — and :meth:`ResultStore.open` repairs exactly that case by
truncating a trailing partial line before appending resumes.

Corruption anywhere *before* the final line is not tolerated: that
cannot be produced by a crash of this writer, so it is reported as an
error instead of silently dropping someone's results.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError

__all__ = ["ResultStore", "StoreCorrupt", "rewrite_store", "scan_store"]


class StoreCorrupt(ReproError):
    """A JSONL store has a malformed line before its final line."""


def _parse_lines(data: bytes, path: Path) -> "tuple[dict[str, dict[str, Any]], int]":
    """Parse store bytes; returns ``(records by key, good-byte count)``.

    A malformed or truncated *final* line is tolerated (crash mid-write)
    and excluded from the good-byte count; a malformed earlier line
    raises :class:`StoreCorrupt`.
    """
    records: dict[str, dict[str, Any]] = {}
    offset = 0
    good = 0
    lines = data.split(b"\n")
    for index, raw in enumerate(lines):
        is_last = index == len(lines) - 1
        # A well-formed file ends with "\n", so the split's final
        # element is empty; anything else there is a partial write.
        if is_last and raw == b"":
            break
        line_span = len(raw) + 1  # the "\n" this line would end with
        try:
            record = json.loads(raw)
            if not isinstance(record, dict) or "key" not in record:
                raise ValueError("record is not an object with a 'key'")
        except ValueError as exc:
            if is_last:
                break  # torn tail: recoverable by truncation
            raise StoreCorrupt(
                f"{path}: malformed line {index + 1} "
                f"(not a crash artifact): {exc}"
            ) from None
        if is_last:
            break  # parseable but missing its newline: still a torn tail
        records[str(record["key"])] = record
        offset += line_span
        good = offset
    return records, good


def scan_store(path: "str | Path") -> "dict[str, dict[str, Any]]":
    """Read-only scan: every complete record, keyed by task key.

    Missing files scan as empty (a fresh run resumes from nothing); a
    torn final line is skipped without touching the file.
    """
    target = Path(path)
    if not target.exists():
        return {}
    records, _good = _parse_lines(target.read_bytes(), target)
    return records


def rewrite_store(path: "str | Path", records: "dict[str, dict[str, Any]]") -> None:
    """Atomically replace a store file with exactly ``records``.

    The one sanctioned way to *remove* records (the append-only contract
    stays intact for the live file): records are written to a sibling
    temp file in sorted key order, fsync'd, then moved over the original
    with :func:`os.replace` — a crash at any point leaves either the old
    complete file or the new complete file, never a mix.  Used by
    ``python -m repro.artifacts gc`` to drop stale-fingerprint entries.
    """
    target = Path(path)
    temp = target.with_name(target.name + ".rewrite")
    with open(temp, "wb") as handle:
        for key in sorted(records):
            line = json.dumps(records[key], sort_keys=True, separators=(",", ":"))
            handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)


class ResultStore:
    """An open-for-append JSONL store with its in-memory key index.

    Use :meth:`open` (or the context manager) rather than the
    constructor: opening scans existing records, truncates a torn final
    line and positions the file for appends.
    """

    def __init__(
        self,
        path: Path,
        records: "dict[str, dict[str, Any]]",
        handle: io.BufferedWriter,
    ) -> None:
        self.path = path
        self.records = records
        self._handle: "io.BufferedWriter | None" = handle

    @classmethod
    def open(cls, path: "str | Path") -> "ResultStore":
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        records: dict[str, dict[str, Any]] = {}
        good = 0
        if target.exists():
            records, good = _parse_lines(target.read_bytes(), target)
        handle = open(target, "ab")
        if handle.tell() != good:
            # Crash mid-write: drop the torn tail so the next append
            # starts on a clean line boundary.
            handle.truncate(good)
            handle.seek(good)
        return cls(target, records, handle)

    def append(self, record: "dict[str, Any]") -> None:
        """Durably append one record (must carry a ``key``)."""
        if self._handle is None:
            raise ReproError(f"{self.path}: store is closed")
        key = str(record["key"])
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records[key] = record

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def __len__(self) -> int:
        return len(self.records)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
