"""``python -m repro.artifacts`` — operate on artifact stores.

Subcommands:

* ``status``  — persistent record counts by kind, and how many records
  carry the *current* code fingerprint (stale records are reachable
  only as cache misses).
* ``gc``      — drop persistent records whose fingerprint differs from
  ``--keep-fingerprint`` (default: the current tree's), via an atomic
  rewrite (:func:`repro.experiments.store.rewrite_store`).
* ``verify``  — decode and re-encode a deterministic sample of records
  and compare payload bytes and digests; exit 1 on any mismatch.

All output lines are stable and grep-friendly (CI parses ``status``).
The cold/warm artifacts gate that fills the CI store lives in
:mod:`repro.experiments.gates`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.artifacts.keys import payload_digest
from repro.artifacts.store import records_by_kind
from repro.exceptions import ReproError


def _scan(path: str) -> "dict[str, dict[str, Any]]":
    from repro.experiments.store import scan_store

    return scan_store(path)


def _cmd_status(args: "argparse.Namespace") -> int:
    from repro.experiments.fingerprint import code_fingerprint

    records = _scan(args.store)
    fingerprint = code_fingerprint()
    current = sum(1 for r in records.values() if r.get("fingerprint") == fingerprint)
    print(
        f"artifacts-status store={args.store} records={len(records)} "
        f"current={current} stale={len(records) - current} "
        f"fingerprint={fingerprint[:12]}"
    )
    for kind, count in records_by_kind(records).items():
        print(f"  kind {kind}: {count} record(s)")
    return 0


def _cmd_gc(args: "argparse.Namespace") -> int:
    from repro.experiments.fingerprint import code_fingerprint
    from repro.experiments.store import rewrite_store

    keep = args.keep_fingerprint or code_fingerprint()
    records = _scan(args.store)
    kept = {
        key: record
        for key, record in records.items()
        if record.get("fingerprint") == keep
    }
    dropped = len(records) - len(kept)
    if dropped and not args.dry_run:
        rewrite_store(args.store, kept)
    print(
        f"artifacts-gc store={args.store} kept={len(kept)} dropped={dropped} "
        f"keep_fingerprint={keep[:12]}{' (dry run)' if args.dry_run else ''}"
    )
    return 0


def _cmd_verify(args: "argparse.Namespace") -> int:
    from repro.artifacts.encoders import encoder_for

    records = _scan(args.store)
    keys = sorted(records)
    if args.sample and args.sample < len(keys):
        # Deterministic sample: every k-th key of the sorted order.
        step = len(keys) // args.sample
        keys = keys[:: max(step, 1)][: args.sample]
    mismatches = 0
    for key in keys:
        record = records[key]
        payload = record["payload"].encode("utf-8")
        if payload_digest(payload) != record.get("digest"):
            mismatches += 1
            print(f"artifacts-verify MISMATCH digest key={key[:12]}…")
            continue
        try:
            encoder = encoder_for(record["kind"])
            reencoded = encoder.encode(encoder.decode(payload))
        except ReproError as exc:
            mismatches += 1
            print(f"artifacts-verify MISMATCH decode key={key[:12]}…: {exc}")
            continue
        if reencoded != payload:
            mismatches += 1
            print(f"artifacts-verify MISMATCH re-encode key={key[:12]}…")
    print(
        f"artifacts-verify store={args.store} checked={len(keys)} "
        f"of={len(records)} mismatches={mismatches}"
    )
    return 1 if mismatches else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.artifacts")
    commands = parser.add_subparsers(dest="command", required=True)

    status = commands.add_parser("status", help="record counts by kind and fingerprint")
    status.add_argument("--store", default="benchmarks/out/ARTIFACTS_store.jsonl")

    gc = commands.add_parser("gc", help="drop records from other fingerprints")
    gc.add_argument("--store", default="benchmarks/out/ARTIFACTS_store.jsonl")
    gc.add_argument(
        "--keep-fingerprint",
        nargs="?",
        const="",
        default="",
        help="fingerprint to keep (default: the current tree's)",
    )
    gc.add_argument("--dry-run", action="store_true")

    verify = commands.add_parser("verify", help="re-encode a sample, compare digests")
    verify.add_argument("--store", default="benchmarks/out/ARTIFACTS_store.jsonl")
    verify.add_argument(
        "--sample", type=int, default=0, help="check only N records (0 = all)"
    )

    args = parser.parse_args(argv)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "gc":
        return _cmd_gc(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
