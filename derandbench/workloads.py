"""Workloads of the end-to-end benchmark: inputs, ops and output checks.

A workload is a fixed cycle of *units*.  A pipeline unit is one op: one
``derandomize_pipeline`` call on one instance.  A registry unit is one
``run_experiments(jobs=1)`` pass whose ops are the registry's
experiments.  Every unit starts from ``clear_caches()``, outside the
timed interval, and every op's output is checked after the interval.

Imports ``repro``: the caller puts the checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import (
    AnonymousMatchingAlgorithm,
    AnonymousMISAlgorithm,
    ColoringProblem,
    GranBundle,
    KHopColoringProblem,
    LabeledGraph,
    MaximalMatchingProblem,
    MISProblem,
    TwoHopColoringAlgorithm,
    VertexColoringAlgorithm,
    WellFormedInputDecider,
    derandomize_pipeline,
    with_uniform_input,
)
from repro.artifacts.store import memory_stats
from repro.experiments.base import all_experiment_ids
from repro.experiments.fingerprint import short_fingerprint
from repro.experiments.runner import canonical_results, results_payload, run_experiments
from repro.graphs.builders import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.runtime.engine import collect_engine_metrics
from repro.views import clear_caches
from repro.views.view_tree import intern_stats

HERE = Path(__file__).resolve().parent
EXPECTED_DIGESTS = HERE / "expected_digests.json"

# Each random family and each stage-1 seed comes in this many variants;
# the workload seed picks one variant per prg instance type.  The pool is
# finite so that every instance has a digest in EXPECTED_DIGESTS.
VARIANTS = 8

# Cuts off an instance whose lexicographic search runs away (MIS on a
# 3x3 torus needs 262,821 trials); hitting it is an op failure.
SEARCH_BUDGET = 50_000
MAX_ASSIGNMENT_LENGTH = 128

# (bundle, graph) types, ordered so that families, sizes and bundles
# interleave.  Reconstruction dominates: |V_*| = n on these inputs.
RECONSTRUCT_TYPES = (
    ("mis", "cycle-48"),
    ("coloring", "torus-8x8"),
    ("coloring", "rr3-48"),
    ("mis", "rc-64"),
    ("mis", "torus-6x8"),
    ("coloring", "cycle-64"),
    ("coloring", "rc-48"),
    ("mis", "rr3-64"),
)

# (bundle, strategy, graph) types: the paper's lexicographic order on at
# most 8 nodes, where thousands of engine executions per op dominate,
# plus prg matching at n = 16..24.  Lexicographic instances keep variant
# 0: their trial count swings with the stage-1 coloring (MIS on C6 takes
# 4,199 to 6,215 trials), which moved op_s_tail by 45% between seeds.
SEARCH_TYPES = (
    ("mis", "lexicographic", "cycle-5"),
    ("coloring", "lexicographic", "cycle-6"),
    ("mis", "lexicographic", "star-5"),
    ("coloring", "lexicographic", "path-6"),
    ("mis", "lexicographic", "cycle-6"),
    ("2-hop-coloring", "lexicographic", "complete-4"),
    ("coloring", "lexicographic", "path-8"),
    ("mis", "lexicographic", "k23"),
    ("mis", "lexicographic", "star-6"),
    ("coloring", "lexicographic", "complete-4"),
    ("2-hop-coloring", "lexicographic", "path-6"),
    ("matching", "prg", "rc-20"),
    ("matching", "prg", "rr3-24"),
    ("matching", "prg", "cycle-16"),
)

COUNT_KEYS = ("executions", "rounds", "messages_sent", "bits_drawn")
INTERN_KEYS = ("trees", "truncations", "mark_renumbers", "bucket_shifts")
ARTIFACT_KEYS = ("hits", "misses", "evictions")


def make_bundles() -> dict[str, GranBundle]:
    decider = WellFormedInputDecider()
    return {
        "mis": GranBundle(MISProblem(), AnonymousMISAlgorithm(), decider),
        "coloring": GranBundle(ColoringProblem(), VertexColoringAlgorithm(), decider),
        "2-hop-coloring": GranBundle(KHopColoringProblem(2), TwoHopColoringAlgorithm(), decider),
        "matching": GranBundle(MaximalMatchingProblem(), AnonymousMatchingAlgorithm(), decider),
    }


def build_graph(name: str, variant: int) -> LabeledGraph:
    """The graph ``name`` (``family-size``); random families use ``variant``
    as their generator seed."""
    family, _, size = name.partition("-")
    if family == "cycle":
        graph = cycle_graph(int(size))
    elif family == "path":
        graph = path_graph(int(size))
    elif family == "star":
        graph = star_graph(int(size))
    elif family == "complete":
        graph = complete_graph(int(size))
    elif family == "k23":
        graph = complete_bipartite_graph(2, 3)
    elif family == "torus":
        rows, cols = size.split("x")
        graph = torus_graph(int(rows), int(cols))
    elif family == "rr3":
        graph = random_regular_graph(int(size), 3, seed=variant)
    elif family == "rc":
        # About 1.5 extra edges per node on top of a random spanning tree.
        graph = random_connected_graph(int(size), 1.5 / int(size), seed=variant)
    else:
        raise ValueError(f"unknown graph family {name!r}")
    return with_uniform_input(graph)


@dataclass(frozen=True)
class Instance:
    """One pipeline input; ``key`` names it in the digest and count records."""

    key: str
    bundle: str
    strategy: str
    graph: LabeledGraph
    stage1_seed: int


def _types(workload: str) -> list[tuple[str, str, str]]:
    if workload == "reconstruct":
        return [(bundle, "prg", graph) for bundle, graph in RECONSTRUCT_TYPES]
    if workload == "search":
        return list(SEARCH_TYPES)
    raise ValueError(f"no pipeline catalogue for workload {workload!r}")


def make_instance(workload: str, bundle: str, strategy: str, graph: str, variant: int) -> Instance:
    return Instance(
        key=f"{workload}/{bundle}/{strategy}/{graph}/v{variant}",
        bundle=bundle,
        strategy=strategy,
        graph=build_graph(graph, variant),
        stage1_seed=variant,
    )


def _variants(strategy: str) -> int:
    return VARIANTS if strategy == "prg" else 1


def pipeline_instances(workload: str, seed: int) -> list[Instance]:
    """One instance per type of ``workload``, variants drawn from ``seed``."""
    rng = random.Random(seed)
    return [
        make_instance(workload, bundle, strategy, graph, rng.randrange(_variants(strategy)))
        for bundle, strategy, graph in _types(workload)
    ]


def all_pipeline_instances(workload: str) -> list[Instance]:
    """Every instance any seed can draw (what ``record_digests.py`` covers)."""
    return [
        make_instance(workload, bundle, strategy, graph, variant)
        for bundle, strategy, graph in _types(workload)
        for variant in range(_variants(strategy))
    ]


def solve(bundle: GranBundle, instance: Instance) -> Any:
    """One op: the pipeline on ``instance``."""
    return derandomize_pipeline(
        bundle,
        instance.graph,
        seed=instance.stage1_seed,
        strategy=instance.strategy,
        search_budget=SEARCH_BUDGET,
        max_assignment_length=MAX_ASSIGNMENT_LENGTH,
    )


def output_digest(result: Any) -> str:
    """SHA-256 over the run's (coloring, assignment, outputs)."""
    payload = repr(
        (
            sorted(result.coloring.items()),
            sorted(result.stage2.assignment.items()),
            sorted(result.outputs.items()),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_expected_digests(path: Path = EXPECTED_DIGESTS) -> dict[str, str]:
    return json.loads(path.read_text())


# -- counters -----------------------------------------------------------


def _artifact_totals() -> dict[str, int]:
    stats = memory_stats().values()
    return {key: sum(bucket[key] for bucket in stats) for key in ARTIFACT_KEYS}


def _unit_counters(before: dict[str, int]) -> dict[str, int]:
    """Intern-table sizes (reset by ``clear_caches``) and artifact-counter
    deltas since ``before`` (artifact counters survive the clear)."""
    interned = intern_stats()
    after = _artifact_totals()
    counts = {f"view_tree.{key}": interned[key] for key in INTERN_KEYS}
    counts.update({f"artifacts.{key}": after[key] - before[key] for key in ARTIFACT_KEYS})
    return counts


class CountLedger:
    """Per-key work counts; a count that differs from an earlier record of
    the same key means the work changed and the timings are not comparable.

    With a ``path`` the record persists across runs of the same code: the
    file name carries the code fingerprint of ``src/repro``, so a code
    change starts a fresh record.
    """

    def __init__(self, path: Path | None = None) -> None:
        self.path = path
        self.records: dict[str, dict[str, int]] = {}
        if path is not None and path.is_file():
            self.records = json.loads(path.read_text())

    @classmethod
    def for_checkout(cls) -> CountLedger:
        return cls(HERE / "out" / f"counts-{short_fingerprint()}.json")

    def check(self, key: str, counts: dict[str, int]) -> str | None:
        recorded = self.records.setdefault(key, counts)
        if recorded == counts:
            return None
        changed = sorted(name for name in counts if counts[name] != recorded.get(name))
        return f"counts of {key} changed from an earlier run: {changed}"

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self.records, indent=1, sort_keys=True) + "\n")
        os.replace(scratch, self.path)


# -- units --------------------------------------------------------------


@dataclass
class OpResult:
    key: str
    wall_s: float
    failure: str | None = None


@dataclass
class UnitResult:
    """One unit: its timed wall, its ops and the per-op work counts
    (averaged over the unit's ops for registry-pass counters).
    ``slowness`` is the machine's speed relative to the reference while
    the unit ran (2.0: everything took twice as long)."""

    wall_s: float
    ops: list[OpResult]
    counts: dict[str, float] = field(default_factory=dict)
    slowness: float = 1.0


class PipelineWorkload:
    """Closed loop over ``derandomize_pipeline`` calls."""

    def __init__(
        self,
        name: str,
        instances: list[Instance],
        expected: dict[str, str],
        ledger: CountLedger,
    ) -> None:
        self.name = name
        self.units = instances
        self.expected = expected
        self.ledger = ledger
        self.bundles = make_bundles()

    def run_unit(self, instance: Instance, tracer: Any = None) -> UnitResult:
        bundle = self.bundles[instance.bundle]
        clear_caches()
        before = _artifact_totals()
        result, error = None, None
        with collect_engine_metrics() as engine:
            with tracer.root(instance.key) if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    result = solve(bundle, instance)
                except Exception as exc:  # an op failure, reported below
                    error = f"raised {type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
        counts = {f"engine.{key}": getattr(engine, key) for key in COUNT_KEYS}
        counts.update(_unit_counters(before))
        failure = error or self._check(instance, bundle, result, counts)
        return UnitResult(wall, [OpResult(instance.key, wall, failure)], counts)

    def _check(self, instance: Instance, bundle: GranBundle, result: Any, counts: dict) -> str | None:
        if not bundle.problem.is_valid_output(instance.graph, result.outputs):
            return f"invalid {bundle.problem.name} output"
        expected = self.expected.get(instance.key)
        if expected is None:
            return "no expected digest recorded"
        if output_digest(result) != expected:
            return "output digest differs from the recorded one"
        return self.ledger.check(instance.key, counts)


class RegistryWorkload:
    """Closed loop over full ``run_experiments(jobs=1)`` passes, each
    experiment checked against the golden canonical entry."""

    name = "registry"

    def __init__(
        self,
        golden: dict[str, dict],
        ledger: CountLedger,
        experiment_ids: list[str] | None = None,
    ) -> None:
        self.ids = list(experiment_ids) if experiment_ids is not None else all_experiment_ids()
        self.units = [tuple(self.ids)]
        self.golden = golden
        self.ledger = ledger

    def run_unit(self, ids: tuple[str, ...], tracer: Any = None) -> UnitResult:
        clear_caches()
        before = _artifact_totals()
        report, error = None, None
        with tracer.root("runner.run_experiments") if tracer else nullcontext():
            start = time.perf_counter()
            try:
                report = run_experiments(list(ids), jobs=1, base_seed=0)
            except Exception as exc:  # every op of the pass fails
                error = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if report is None:
            return UnitResult(wall, [OpResult(f"registry/{eid}", 0.0, error) for eid in ids])
        pass_counts = _unit_counters(before)
        pass_failure = self.ledger.check("registry/pass", pass_counts)
        counts = {key: value / len(ids) for key, value in pass_counts.items()}
        ops = []
        canonical = canonical_results(results_payload(report))
        for run, entry in zip(report.runs, canonical):
            eid = run.result.experiment_id
            engine = {key: value for key, value in run.engine_metrics.items() if key != "wall_s"}
            for key in COUNT_KEYS:
                counts[f"engine.{key}"] = counts.get(f"engine.{key}", 0) + engine[key] / len(ids)
            ops.append(OpResult(f"registry/{eid}", run.wall_s, self._check(eid, run, entry, engine)))
        if pass_failure is not None:
            ops = [OpResult(op.key, op.wall_s, op.failure or pass_failure) for op in ops]
        return UnitResult(wall, ops, counts)

    def _check(self, eid: str, run: Any, entry: dict, engine: dict) -> str | None:
        if not run.result.passed:
            return "experiment checks failed"
        golden = self.golden.get(eid)
        if golden is None:
            return "no golden entry"
        if json.dumps(entry, sort_keys=True) != json.dumps(golden, sort_keys=True):
            return "canonical entry differs from the golden file"
        return self.ledger.check(f"registry/{eid}", engine)


def load_golden(path: Path) -> dict[str, dict]:
    return {entry["experiment_id"]: entry for entry in json.loads(path.read_text())}
