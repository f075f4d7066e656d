"""CLI experiment runner: ``python -m repro.experiments``.

Usage::

    python -m repro.experiments --list          # available experiment ids
    python -m repro.experiments figure2 norris  # run selected experiments
    python -m repro.experiments --all           # run everything
    python -m repro.experiments --all --jobs 4  # ... on 4 worker processes
    python -m repro.experiments --filter lemma  # ids containing "lemma"
    python -m repro.experiments --all --json RESULTS_experiments.json

Row and check output is bit-identical for every ``--jobs`` value (see
``repro.experiments.runner``); ``--json`` additionally persists the run
as a machine-readable artifact.  Exits nonzero if any experiment's
checks fail; with ``--strict-jobs``, also (status 3) if ``--jobs > 1``
silently degraded to a serial run.

The sharded, resumable fabric lives under the ``fabric`` subcommand
(see docs/EXPERIMENTS.md, "The experiment fabric")::

    python -m repro.experiments fabric run --all --grids --jobs 4
    python -m repro.experiments fabric run --grid resilience-drop-grid \\
        --shard 2/4 --store FABRIC_shard2.jsonl
    python -m repro.experiments fabric status --all --grids
    python -m repro.experiments fabric merge FABRIC_*.jsonl \\
        --out RESULTS_experiments.json
    python -m repro.experiments fabric fingerprint
    python -m repro.experiments fabric grids
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.base import all_experiment_ids, get_spec
from repro.experiments.runner import run_experiments, write_results_json

DEFAULT_STORE = "FABRIC_results.jsonl"
EXIT_DEGRADED = 3  # --strict-jobs: parallel run silently fell back to serial


def _fabric_selection(args: argparse.Namespace) -> "list | None":
    """Expand a fabric CLI selection into tasks (None = nothing asked)."""
    from repro.experiments import fabric

    asked = bool(
        args.experiments or args.all or args.filter or args.grid or args.grids
    )
    if not asked:
        return None
    ids = _select_ids(args) or []
    grid_names = list(args.grid or [])
    if args.grids:
        grid_names = fabric.all_grid_names()
    tasks = fabric.experiment_tasks(ids, base_seed=args.base_seed) if ids else []
    for name in grid_names:
        tasks.extend(fabric.grid_tasks(name, base_seed=args.base_seed))
    if args.shard:
        index, count = fabric.parse_shard(args.shard)
        tasks = fabric.shard_tasks(tasks, index, count)
    return tasks


def _add_fabric_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "experiments", nargs="*", help="experiment ids to include (see --list)"
    )
    parser.add_argument(
        "--all", action="store_true", help="include every registered experiment"
    )
    parser.add_argument(
        "--filter", metavar="SUBSTR", help="restrict experiment ids to those containing SUBSTR"
    )
    parser.add_argument(
        "--grid",
        action="append",
        metavar="NAME",
        help="include a declared grid sweep (repeatable; see 'fabric grids')",
    )
    parser.add_argument(
        "--grids", action="store_true", help="include every declared grid sweep"
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed mixed into every derived per-task seed (default 0)",
    )
    parser.add_argument(
        "--shard",
        metavar="i/n",
        help="run only the i-th of n static task shards (1-based)",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="PATH",
        help=f"append-only JSONL result store (default {DEFAULT_STORE})",
    )


def fabric_main(argv: list[str]) -> int:
    """The ``fabric`` subcommand family (sharded, resumable runs)."""
    from repro.experiments import fabric
    from repro.experiments.fingerprint import code_fingerprint, short_fingerprint

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fabric",
        description=(
            "Sharded, resumable experiment fabric: content-addressed "
            "tasks, an append-only JSONL store, and deterministic merges "
            "(see docs/EXPERIMENTS.md)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run every selected task not already in the store"
    )
    _add_fabric_selection_args(run_parser)
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    run_parser.add_argument(
        "--strict-jobs",
        action="store_true",
        help=f"exit {EXIT_DEGRADED} if --jobs > 1 degraded to a serial run",
    )

    status_parser = commands.add_parser(
        "status", help="report stored vs pending counts for a selection"
    )
    _add_fabric_selection_args(status_parser)

    merge_parser = commands.add_parser(
        "merge", help="fold JSONL stores into the canonical merged artifact"
    )
    merge_parser.add_argument("stores", nargs="+", metavar="STORE", help="JSONL stores")
    merge_parser.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="write the canonical merged JSON here (byte-stable)",
    )

    commands.add_parser("fingerprint", help="print the current code fingerprint")
    commands.add_parser("grids", help="list the declared grid sweeps")

    args = parser.parse_args(argv)

    if args.command == "fingerprint":
        print(code_fingerprint())
        return 0

    if args.command == "grids":
        for name in fabric.all_grid_names():
            grid = fabric.get_grid(name)
            points = len(grid.families) * len(grid.values) * len(grid.seeds)
            print(
                f"{name}  kernel={grid.kernel}  axis={grid.axis}  "
                f"points={points}"
            )
        print(f"{len(fabric.all_grid_names())} grids")
        return 0

    if args.command == "merge":
        payload, stats = fabric.merge_stores(args.stores)
        Path(args.out).write_text(fabric.dump_merged(payload))
        print(
            f"fabric: merged {stats['records']} records from "
            f"{stats['stores']} stores into {args.out} "
            f"(fingerprint {short_fingerprint()}, "
            f"{stats['ignored']} stale records ignored)"
        )
        return 0

    tasks = _fabric_selection(args)
    if tasks is None:
        print(
            "fabric: nothing selected — pass experiment ids, --all, "
            "--filter, --grid NAME or --grids",
            file=sys.stderr,
        )
        return 2
    if not tasks:
        print("fabric: selection matches no tasks", file=sys.stderr)
        return 2

    if args.command == "status":
        from repro.experiments.store import scan_store

        fingerprint = code_fingerprint()
        records = scan_store(args.store)
        stored = sum(
            1
            for task in tasks
            if fabric.task_key(fingerprint, task.spec, task.seed) in records
        )
        print(
            f"fabric-status fingerprint={short_fingerprint(fingerprint)} "
            f"total={len(tasks)} stored={stored} pending={len(tasks) - stored} "
            f"store={args.store}"
        )
        return 0

    report = fabric.run_tasks(tasks, args.store, jobs=args.jobs)
    if report.fallback_reason:
        print(
            f"[fabric] process pool unavailable ({report.fallback_reason}); "
            "ran serially",
            file=sys.stderr,
        )
    print(report.summary())
    if report.failed:
        print(f"{report.failed} experiment tasks FAILED their checks", file=sys.stderr)
        return 1
    if args.strict_jobs and args.jobs > 1 and report.fallback_reason:
        print(
            "[fabric] --strict-jobs: refusing to report success after "
            "silent serial degradation",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _select_ids(args: argparse.Namespace) -> list[str] | None:
    """The experiment ids a CLI invocation asks for, or None for 'help'."""
    if args.experiments:
        ids = list(args.experiments)
    elif args.all or args.filter:
        ids = all_experiment_ids()
    else:
        return None
    if args.filter:
        ids = [eid for eid in ids if args.filter in eid]
    return ids


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    if arguments[:1] == ["fabric"]:
        return fabric_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Regenerate the paper's figures and validate its theorems/lemmas."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--filter",
        metavar="SUBSTR",
        help="restrict to experiment ids containing SUBSTR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed mixed into every derived per-task seed (default 0)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the run as a machine-readable JSON artifact at PATH",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each experiment's table as DIR/<id>.csv",
    )
    parser.add_argument(
        "--strict-jobs",
        action="store_true",
        help=(
            f"exit {EXIT_DEGRADED} if --jobs > 1 silently degraded to a "
            "serial run (default: warn on stderr and continue)"
        ),
    )
    args = parser.parse_args(arguments)

    if args.list:
        ids = _select_ids(args) or all_experiment_ids()
        specs = [get_spec(eid) for eid in ids]
        id_width = max(len("id"), *(len(s.experiment_id) for s in specs))
        family_width = max(len("family"), *(len(s.family) for s in specs))
        print(f"{'id':<{id_width}}  {'family':<{family_width}}  {'cost':>6}")
        for spec in specs:
            print(
                f"{spec.experiment_id:<{id_width}}  "
                f"{spec.family:<{family_width}}  {spec.cost:>6.1f}"
            )
        print(f"{len(specs)} experiments")
        return 0

    ids = _select_ids(args)
    if ids is None:
        parser.print_help()
        return 2
    if not ids:
        print(f"no experiment ids match --filter {args.filter!r}", file=sys.stderr)
        return 2

    report = run_experiments(ids, jobs=args.jobs, base_seed=args.base_seed)
    if report.fallback_reason:
        print(
            f"[runner] process pool unavailable ({report.fallback_reason}); "
            "ran serially",
            file=sys.stderr,
        )
    results = report.results()

    if args.csv:
        import pathlib

        from repro.analysis.sweeps import table_to_csv

        directory = pathlib.Path(args.csv)
        directory.mkdir(parents=True, exist_ok=True)
        for result in results:
            path = directory / f"{result.experiment_id}.csv"
            path.write_text(table_to_csv(result.columns, result.rows))
        print(f"wrote {len(results)} CSV tables to {directory}/")

    if args.json:
        target = write_results_json(args.json, report)
        print(f"wrote JSON artifact to {target}")

    any_failed = False
    for result in results:
        print(result.render())
        print()
        if not result.passed:
            any_failed = True
    if any_failed:
        print("SOME CHECKS FAILED", file=sys.stderr)
        return 1
    if args.strict_jobs and args.jobs > 1 and report.fallback_reason:
        # The degradation itself was already surfaced on stderr above;
        # --strict-jobs upgrades it from a warning to a failure (CI
        # wants to *know* the parallel path was exercised).
        print(
            "[runner] --strict-jobs: refusing to report success after "
            "silent serial degradation",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    print(f"all {len(results)} experiments passed their checks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
