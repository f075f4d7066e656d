"""``repro.experiments.fabric`` — sharded, resumable experiment fabric.

The registry runner (:func:`~repro.experiments.runner.run_experiments`)
fans a task list over one process pool and forgets everything when it
exits.  The fabric runs the *same* task list through the same task core
(:func:`~repro.experiments.runner.execute_tasks`) and scales it across
*runs*, *shards* and *machines* by making every task a pure,
content-addressed unit of work:

* **Task keys.**  Every task is keyed by
  ``sha256(code_fingerprint, canonical spec, seed)`` —
  :func:`~repro.experiments.fingerprint.code_fingerprint` digests the
  ``src/repro`` source tree, the spec is a canonical JSON projection of
  *what* to run, and the seed follows the runner's
  :func:`~repro.experiments.runner.derive_seed` discipline.  Same code
  + same spec + same seed ⇒ same key ⇒ same result, so a stored record
  can stand in for a fresh run, byte for byte.
* **Append-only store.**  Completed tasks stream to a JSONL
  :class:`~repro.experiments.store.ResultStore` (one fsync'd line per
  task, no footer), so a killed run loses at most the in-flight task.
* **Resume.**  :func:`run_tasks` scans the store first and skips every
  task whose key already has a record — ``fabric run`` is idempotent
  and resumable across processes, machines and CI runs.  A source
  change rotates the fingerprint, which invalidates every key: a stale
  store degrades to a cache miss, never a wrong answer.
* **Sharding.**  ``--shard i/n`` statically partitions the task set by
  a stable hash of the task id (*not* the key, so shard assignment
  survives code changes and cached shards stay warm).  Shards are
  disjoint and cover the set exactly.
* **Work stealing.**  Within a shard, tasks are submitted
  longest-first (the runner's cost weights) to a shared executor
  queue, one task per future; idle workers pull the next task the
  moment they free up, and every completion is persisted before the
  run advances.
* **Merge.**  :func:`merge_stores` folds any collection of stores into
  one canonical artifact — a pure function of the *current-fingerprint*
  records, so a sharded, resumed, parallel run merges byte-identically
  to a fresh ``--jobs 1`` serial run.  That identity is the fabric's
  correctness gate (it extends the runner's serial-vs-parallel
  identity; enforced by CI's ``fabric-resume`` job).

Grid sweeps (size × family × fault-rate × seed) are declared once as
:class:`GridSweep` registry entries — see the ``resilience`` and
``costs`` experiment modules — and expanded into atomic tasks by
:func:`grid_tasks`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Sequence
from typing import Any

from repro.analysis.sweeps import FamilySpec, spec_to_dict
from repro.exceptions import ReproError
from repro.experiments.fingerprint import code_fingerprint
from repro.experiments.runner import (
    RESULTS_SCHEMA,
    FabricTask,
    _jsonify,
    derive_seed,
    execute_tasks,
    experiment_entry,
    experiment_tasks,
)
from repro.experiments.store import ResultStore, scan_store

__all__ = [
    "FabricReport",
    "FabricTask",
    "GridSweep",
    "all_grid_names",
    "dump_merged",
    "experiment_tasks",
    "get_grid",
    "get_kernel",
    "grid_tasks",
    "merge_stores",
    "parse_shard",
    "register_grid",
    "register_kernel",
    "run_tasks",
    "shard_tasks",
    "task_key",
]


# ---------------------------------------------------------------------------
# Task model.
# ---------------------------------------------------------------------------


def canonical_spec(spec: dict[str, Any]) -> str:
    """The canonical one-line JSON form a task key is computed over."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def task_key(fingerprint: str, spec: dict[str, Any], seed: int) -> str:
    """``sha256(code_fingerprint, spec, seed)`` as hex — the store key."""
    material = f"{fingerprint}\x1f{canonical_spec(spec)}\x1f{seed}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Grid sweeps: families × axis values × seeds, declared once, expanded
# into atomic tasks.  Kernels are referenced by registry *name* so a
# task spec stays canonical JSON and a worker process can resolve the
# callable after its own import of ``repro.experiments``.
# ---------------------------------------------------------------------------

# kernel(graph, axis_value, seed) -> JSON-able measurement
GridKernel = Callable[[Any, Any, int], Any]

_KERNELS: dict[str, GridKernel] = {}
_GRIDS: dict[str, "GridSweep"] = {}


@dataclass(frozen=True)
class GridSweep:
    """A declared sweep grid: ``families × values × seeds``.

    ``kernel`` names a registered grid kernel; ``axis`` names the
    swept parameter (``values`` may be ``(None,)`` for grids whose only
    axes are family and seed); ``cost`` is the per-point dispatch
    weight.
    """

    name: str
    kernel: str
    families: tuple[FamilySpec, ...]
    axis: str
    values: tuple[Any, ...]
    seeds: tuple[int, ...]
    cost: float = 1.0


def register_kernel(name: str) -> Callable[[GridKernel], GridKernel]:
    """Decorator registering a grid kernel under a stable name."""

    def register(fn: GridKernel) -> GridKernel:
        if name in _KERNELS:
            raise ReproError(f"duplicate grid kernel {name!r}")
        _KERNELS[name] = fn
        return fn

    return register


def get_kernel(name: str) -> GridKernel:
    try:
        return _KERNELS[name]
    except KeyError:
        raise ReproError(
            f"unknown grid kernel {name!r}; known: {sorted(_KERNELS)!r}"
        ) from None


def register_grid(grid: GridSweep) -> GridSweep:
    if grid.name in _GRIDS:
        raise ReproError(f"duplicate grid {grid.name!r}")
    _GRIDS[grid.name] = grid
    return grid


def get_grid(name: str) -> GridSweep:
    try:
        return _GRIDS[name]
    except KeyError:
        raise ReproError(
            f"unknown grid {name!r}; known: {all_grid_names()!r}"
        ) from None


def all_grid_names() -> list[str]:
    return sorted(_GRIDS)


def grid_tasks(grid: "GridSweep | str", *, base_seed: int = 0) -> list[FabricTask]:
    """Expand a grid into its atomic ``family × value × seed`` tasks.

    Each point's seed is ``derive_seed`` over the point's full identity
    (grid, axis value, point seed, family, size, base seed) — a pure
    function of *what* the point is, never of sharding or schedule.
    """
    sweep = get_grid(grid) if isinstance(grid, str) else grid
    tasks = []
    for family in sweep.families:
        for value in sweep.values:
            for point_seed in sweep.seeds:
                identity = f"{sweep.name}:{sweep.axis}={value}:s{point_seed}"
                tasks.append(
                    FabricTask(
                        task_id=f"grid:{identity}:{family.name}",
                        kind="grid",
                        spec={
                            "kind": "grid",
                            "grid": sweep.name,
                            "kernel": sweep.kernel,
                            "family": spec_to_dict(family),
                            "axis": sweep.axis,
                            "value": value,
                            "point_seed": point_seed,
                            "base_seed": base_seed,
                        },
                        seed=derive_seed(identity, family.name, family.size, base_seed),
                        # Larger instances dominate a point's wall time.
                        cost=sweep.cost * max(1, family.size),
                    )
                )
    return tasks


# ---------------------------------------------------------------------------
# Sharding.
# ---------------------------------------------------------------------------


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/n"`` (1-based) into ``(index, count)``, validated."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ReproError(f"--shard wants i/n (e.g. 2/4), got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ReproError(f"--shard index out of range: {text!r}")
    return index, count


def shard_tasks(
    tasks: Sequence[FabricTask], index: int, count: int
) -> list[FabricTask]:
    """The ``index``-th of ``count`` static shards (1-based).

    Assignment hashes the *task id* (stable across code changes, unlike
    the key) so the shards of a grid partition it exactly: disjoint,
    and jointly covering.
    """
    if count == 1:
        return list(tasks)
    selected = []
    for task in tasks:
        digest = hashlib.sha256(task.task_id.encode("utf-8")).digest()
        if int.from_bytes(digest[:8], "big") % count == index - 1:
            selected.append(task)
    return selected


# ---------------------------------------------------------------------------
# Execution: resume-scan, longest-first work-stealing dispatch, streamed
# persistence.
# ---------------------------------------------------------------------------


@dataclass
class FabricReport:
    """What one ``fabric run`` invocation did."""

    total: int
    skipped: int
    ran: int
    failed: int
    fingerprint: str
    store_path: Path
    fallback_reason: "str | None" = None
    wall_s: float = 0.0

    @property
    def mode(self) -> str:
        return "serial" if self.fallback_reason else "fabric"

    def summary(self) -> str:
        """The stable one-line summary CI greps (``ran=0`` ⇔ full resume)."""
        return (
            f"fabric-summary fingerprint={self.fingerprint[:12]} "
            f"total={self.total} stored={self.skipped} ran={self.ran} "
            f"failed={self.failed} store={self.store_path}"
        )


def _keyed_tasks(
    tasks: Sequence[FabricTask], fingerprint: str
) -> list[tuple[str, FabricTask]]:
    """Pair tasks with their keys; reject task-id collisions and dupes."""
    seen: dict[str, str] = {}
    keyed = []
    for task in tasks:
        key = task_key(fingerprint, task.spec, task.seed)
        if task.task_id in seen:
            if seen[task.task_id] != key:
                raise ReproError(
                    f"task id {task.task_id!r} maps to two different specs"
                )
            continue  # exact duplicate: run once
        seen[task.task_id] = key
        keyed.append((key, task))
    return keyed


def run_tasks(
    tasks: Sequence[FabricTask],
    store_path: "str | Path",
    *,
    jobs: int = 1,
    fingerprint: "str | None" = None,
    executor_factory: "Callable[[int], Any] | None" = None,
) -> FabricReport:
    """Run every task not already in the store; stream records to it.

    Idempotent: a second invocation over the same tasks, store and
    source tree runs nothing.  Pending tasks are dispatched
    longest-first (cost-weighted) one-per-future over a shared executor
    queue — work stealing — and each completed record is fsync'd to the
    store before the run proceeds, so a kill loses at most the tasks
    still in flight.
    """
    code_fp = fingerprint if fingerprint is not None else code_fingerprint()
    start = time.perf_counter()  # repro-lint: disable=DET001 -- wall-time metric only
    with ResultStore.open(store_path) as store:
        keyed = _keyed_tasks(tasks, code_fp)
        pending = {task.task_id: (key, task) for key, task in keyed if key not in store}

        def persist(task_id: str, outcome: Any) -> None:
            key, task = pending[task_id]
            value = outcome[0]
            if task.kind == "experiment":
                result = experiment_entry(value, task.seed)
            else:
                result = _jsonify(value)
            store.append(
                {
                    "key": key,
                    "task_id": task_id,
                    "kind": task.kind,
                    "fingerprint": code_fp,
                    "seed": task.seed,
                    "spec": task.spec,
                    "result": result,
                }
            )

        _outcomes, _modes, fallback_reason = execute_tasks(
            [task for _key, task in pending.values()],
            jobs,
            executor_factory,
            on_result=persist,
        )
        failed = sum(
            1
            for key, task in keyed
            if task.kind == "experiment"
            and not store.records[key]["result"]["passed"]
        )
    return FabricReport(
        total=len(keyed),
        skipped=len(keyed) - len(pending),
        ran=len(pending),
        failed=failed,
        fingerprint=code_fp,
        store_path=Path(store_path),
        fallback_reason=fallback_reason,
        wall_s=time.perf_counter() - start,  # repro-lint: disable=DET001 -- wall-time metric only
    )


# ---------------------------------------------------------------------------
# Merge: fold stores into the canonical artifact.
# ---------------------------------------------------------------------------


def merge_stores(
    paths: Sequence["str | Path"],
    *,
    fingerprint: "str | None" = None,
) -> tuple[dict[str, Any], dict[str, int]]:
    """Fold JSONL stores into one canonical payload.

    Returns ``(payload, stats)``.  Only records carrying the requested
    (default: current) code fingerprint participate — stale records
    from before a source change are counted in ``stats["ignored"]``
    but never merged, so the payload is a pure function of the
    current-fingerprint record set.  Two stores disagreeing on the
    same key is corruption and raises.

    The payload is schema-compatible with ``RESULTS_experiments.json``
    (``schema``/``suite``/``results`` with canonical per-experiment
    entries) but contains *only* deterministic fields: merging the
    shards of a sharded, resumed, parallel run is byte-identical to
    merging a fresh ``--jobs 1`` serial run over the same grid.
    """
    code_fp = fingerprint if fingerprint is not None else code_fingerprint()
    records: dict[str, dict[str, Any]] = {}
    ignored = 0
    for path in paths:
        for key, record in scan_store(path).items():
            if record.get("fingerprint") != code_fp:
                ignored += 1
                continue
            if key in records and records[key] != record:
                raise ReproError(
                    f"stores disagree on task key {key[:12]}… "
                    f"({records[key].get('task_id')!r})"
                )
            records[key] = record
    experiments = sorted(
        (dict(record["result"]) for record in records.values()
         if record["kind"] == "experiment"),
        key=lambda entry: entry["experiment_id"],
    )
    grids: dict[str, list[dict[str, Any]]] = {}
    for record in records.values():
        if record["kind"] != "grid":
            continue
        spec = record["spec"]
        grids.setdefault(spec["grid"], []).append(
            {
                "task_id": record["task_id"],
                "family": spec["family"]["name"],
                "size": spec["family"]["size"],
                "axis": spec["axis"],
                "value": spec["value"],
                "point_seed": spec["point_seed"],
                "seed": record["seed"],
                "result": record["result"],
            }
        )
    for rows in grids.values():
        rows.sort(key=lambda row: row["task_id"])
    payload = {
        "schema": RESULTS_SCHEMA,
        "suite": "experiments",
        "engine": {"mode": "fabric", "fingerprint": code_fp},
        "results": experiments,
        "grids": {name: grids[name] for name in sorted(grids)},
    }
    stats = {"records": len(records), "ignored": ignored, "stores": len(paths)}
    return payload, stats


def dump_merged(payload: dict[str, Any]) -> str:
    """The canonical (byte-stable) text form of a merged payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
