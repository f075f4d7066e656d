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
silently degraded to a serial run.  Input errors (an unknown id, a
``--filter`` that matches nothing, ``--jobs`` below 1) exit 2 with one
line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError
from repro.experiments.base import all_experiment_ids, get_spec
from repro.experiments.runner import run_experiments, write_results_json

EXIT_DEGRADED = 3  # --strict-jobs: parallel run silently fell back to serial


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
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2

    ids = _select_ids(args)
    if ids is None and args.list:
        ids = all_experiment_ids()
    if ids is None:
        parser.print_help()
        return 2
    if not ids:
        print(f"no experiment ids match --filter {args.filter!r}", file=sys.stderr)
        return 2
    try:
        specs = [get_spec(eid) for eid in ids]
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.list:
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
