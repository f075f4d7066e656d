"""The parallel experiment engine behind :func:`run_experiments`.

:func:`run_experiments` turns the requested experiment ids into tasks
(experiment id, derived seed, registry cost) and fans them out over a
``ProcessPoolExecutor`` while keeping every observable output
**bit-identical to a serial run**:

* **Deterministic per-task seeding** — each experiment's seed is
  derived from ``(experiment_id, base_seed)`` by :func:`derive_seed`
  (a SHA-256 hash, not Python's randomized ``hash``), so a task's
  randomness never depends on which worker ran it or in what order.
* **Deterministic assembly** — tasks are *dispatched* longest-first
  (using the registry's relative ``cost`` weights), one task per
  future, so idle workers pull the next task as they free up; results
  are keyed by experiment id and reported in the requested order.
* **Per-worker cache warm-up** — every worker starts by running
  ``repro.views.clear_caches()`` (which also fires all hooks installed
  via ``register_cache_clearer``), so worker cache state is cold and
  identical regardless of fork inheritance.
* **Graceful degradation** — if the pool cannot be created or breaks
  mid-run (sandboxed interpreters, missing ``fork``/semaphores, a
  killed worker), the engine transparently finishes the remaining
  tasks serially and records the reason in the report.

Each run can be persisted as a machine-readable JSON artifact
(``RESULTS_experiments.json``) whose shape mirrors ``BENCH_views.json``:
a schema version, machine/host metadata, engine metadata, and one row
per experiment with its table, checks and timing.  The deterministic
portion of the artifact (everything except machine/engine/timing) is
exposed by :func:`canonical_results` — the serial-vs-parallel identity
contract is that this portion is byte-equal for any ``jobs`` value.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any

from repro.analysis.sweeps import SweepRow
from repro.experiments.base import ExperimentResult, all_experiment_ids, get_spec
from repro.runtime.engine import collect_engine_metrics

__all__ = [
    "ExperimentRun",
    "RunReport",
    "canonical_results",
    "derive_seed",
    "results_payload",
    "run_experiments",
    "write_results_json",
]

# Schema history: 2 = machine/engine metadata split out of rows;
# 3 = per-run engine metrics carry ``faults_injected`` (fault subsystem).
RESULTS_SCHEMA = 3


def derive_seed(experiment_id: str, base_seed: int = 0) -> int:
    """A deterministic 63-bit seed for one experiment.

    Derived by hashing the experiment's *identity* — never its position
    in the schedule — so serial and parallel runs (and reruns of a
    single experiment) see identical randomness.  SHA-256 is used
    instead of ``hash()`` because the latter is salted per interpreter
    process.  The two empty fields keep the key material (and so every
    seed the golden file pins) byte-identical to earlier releases.
    """
    key = f"{experiment_id}\x1f\x1f0\x1f{base_seed}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class ExperimentRun:
    """One experiment's result plus runner bookkeeping.

    ``engine_metrics`` aggregates the unified execution engine's
    instrumentation over every run the experiment performed (see
    :func:`repro.runtime.engine.collect_engine_metrics`): executions,
    rounds, messages sent, bits drawn, nodes decided, and engine wall
    time.  All fields except ``wall_s`` are deterministic.
    """

    result: ExperimentResult
    seed: int
    wall_s: float
    worker_pid: int
    mode: str  # "serial" | "parallel"
    engine_metrics: dict[str, Any] | None = None


@dataclass(frozen=True)
class _Task:
    """One experiment to run: its seed and its longest-first dispatch weight."""

    experiment_id: str
    seed: int
    cost: float


@dataclass
class RunReport:
    """Everything one engine invocation produced."""

    runs: list[ExperimentRun]
    requested_jobs: int
    base_seed: int
    fallback_reason: str | None = None
    wall_s: float = 0.0

    @property
    def mode(self) -> str:
        """``"parallel"`` only if some task actually ran on the pool."""
        return "parallel" if any(run.mode == "parallel" for run in self.runs) else "serial"

    @property
    def all_passed(self) -> bool:
        return all(run.result.passed for run in self.runs)

    def results(self) -> list[ExperimentResult]:
        return [run.result for run in self.runs]


# ---------------------------------------------------------------------------
# Worker-side entry points.  These must stay top-level (picklable by
# qualified name) and must not capture any parent-process state beyond
# their arguments: under the ``spawn`` start method a worker re-imports
# this module from scratch.
# ---------------------------------------------------------------------------


def _worker_init() -> None:
    """Per-worker warm-up: reset every registered cache.

    Uses the ``repro.views`` cache infrastructure — ``clear_caches()``
    empties the intern/rank tables and fires every hook installed via
    ``register_cache_clearer`` (builder registry, refinement memo, …).
    Under ``fork`` a worker inherits whatever the parent had cached;
    clearing makes worker state cold and identical across start
    methods, schedules and job counts.
    """
    from repro.views import clear_caches

    clear_caches()


def _run_task(task: _Task) -> ExperimentRun:
    """Run one experiment under engine instrumentation.

    The run is reported as serial; the parent marks the ones the pool
    ran as parallel.
    """
    import repro.experiments  # noqa: F401  (registration on spawn)

    # Wall-clock fields are stripped from canonical_results (timing only).
    start = time.perf_counter()  # repro-lint: disable=DET001 -- wall-time metric only
    with collect_engine_metrics() as totals:
        result = get_spec(task.experiment_id).run(seed=task.seed)
    wall = time.perf_counter() - start  # repro-lint: disable=DET001 -- wall-time metric only
    return ExperimentRun(
        result=result,
        seed=task.seed,
        wall_s=wall,
        worker_pid=os.getpid(),
        mode="serial",
        engine_metrics=totals.as_dict(),
    )


def _default_executor_factory(jobs: int):
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init)


def run_experiments(
    experiment_ids: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    base_seed: int = 0,
    executor_factory: Callable[[int], Any] | None = None,
) -> RunReport:
    """Run experiments (all of them by default), possibly in parallel.

    Results are reported in the requested order regardless of ``jobs``;
    the rows and checks of every :class:`ExperimentResult` are
    bit-identical for any job count.  Unknown ids raise before any work
    starts.  ``executor_factory`` exists for tests (inject a pool that
    fails or misbehaves).

    Tasks are dispatched in ``(-cost, experiment_id)`` order and
    submitted one per future; workers pull from the executor's shared
    queue as they free up (work stealing).  Any pool-level failure
    (creation, pickling, broken pool) degrades to serial execution of
    whatever is missing — a task that *itself* raises will raise again
    serially, so the parallel path introduces no new failure modes.
    """
    ids = list(experiment_ids) if experiment_ids is not None else all_experiment_ids()
    tasks = [_Task(eid, derive_seed(eid, base_seed=base_seed), get_spec(eid).cost) for eid in ids]
    dispatch = sorted(tasks, key=lambda task: (-task.cost, task.experiment_id))
    runs: dict[str, ExperimentRun] = {}
    fallback_reason: str | None = None

    start = time.perf_counter()  # repro-lint: disable=DET001 -- wall-time metric only
    if jobs > 1 and len(dispatch) > 1:
        from concurrent.futures import as_completed

        factory = executor_factory or _default_executor_factory
        try:
            with factory(jobs) as pool:
                futures = {pool.submit(_run_task, task): task for task in dispatch}
                for future in as_completed(futures):
                    runs[futures[future].experiment_id] = replace(future.result(), mode="parallel")
        except Exception as exc:  # degrade, never fail the run
            fallback_reason = f"{type(exc).__name__}: {exc}"

    for task in dispatch:
        if task.experiment_id not in runs:
            runs[task.experiment_id] = _run_task(task)
    wall_s = time.perf_counter() - start  # repro-lint: disable=DET001 -- wall-time metric only

    return RunReport(
        runs=[runs[eid] for eid in ids],
        requested_jobs=jobs,
        base_seed=base_seed,
        fallback_reason=fallback_reason,
        wall_s=wall_s,
    )


# ---------------------------------------------------------------------------
# JSON artifacts.
# ---------------------------------------------------------------------------


def _jsonify(value: Any) -> Any:
    """Deterministic JSON-safe projection of a table cell."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonify(val) for key, val in sorted(value.items())}
    return repr(value)


def _row_payload(row: SweepRow) -> dict[str, Any]:
    return {
        "label": row.label,
        "values": {key: _jsonify(val) for key, val in row.values.items()},
    }


def results_payload(report: RunReport) -> dict[str, Any]:
    """The full JSON artifact for a run (mirrors ``BENCH_views.json``)."""
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "experiments",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "engine": {
            "requested_jobs": report.requested_jobs,
            "mode": report.mode,
            "base_seed": report.base_seed,
            "fallback_reason": report.fallback_reason,
            "wall_s": report.wall_s,
        },
        "results": [
            {
                "experiment_id": run.result.experiment_id,
                "title": run.result.title,
                "passed": run.result.passed,
                "checks": dict(run.result.checks),
                "columns": list(run.result.columns),
                "rows": [_row_payload(row) for row in run.result.rows],
                "seed": run.seed,
                "metrics": run.engine_metrics,
                "timing": {
                    "wall_s": run.wall_s,
                    "worker_pid": run.worker_pid,
                    "mode": run.mode,
                },
            }
            for run in report.runs
        ],
    }


def canonical_results(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """The deterministic portion of an artifact: per-experiment rows and
    checks with machine/engine/timing/metrics stripped.  Serial and
    parallel runs of the same experiments must agree on this
    byte-for-byte.  The ``metrics`` block is excluded because its
    ``wall_s`` field is a timing; its other fields are deterministic and
    covered by the perf suite's runtime trend data instead."""
    return [
        {key: entry[key] for key in sorted(entry) if key not in ("timing", "metrics")}
        for entry in payload["results"]
    ]


def write_results_json(path: "str | Path", report: RunReport) -> Path:
    """Persist the run's artifact; returns the written path."""
    target = Path(path)
    target.write_text(json.dumps(results_payload(report), indent=2) + "\n")
    return target
