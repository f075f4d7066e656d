#!/usr/bin/env python3
"""End-to-end benchmark of the derandomization pipeline.

Run from the root of a checkout:

    python3 derandbench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: each op starts only after the
previous one returned.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``derandbench/README.md`` for the workloads and the
metrics, and ``BENCHMARK.json`` for their units and bounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
GOLDEN = CHECKOUT / "tests" / "runtime" / "golden" / "experiments_canonical.json"
WORKLOADS = ("reconstruct", "search", "registry")

# The sandbox's speed drifts by up to 1.5x over tens of seconds on
# identical work (one search cycle took 10.7 to 16.4 s in one process).
# Timings are therefore reported in reference seconds: wall time divided
# by the machine's relative slowness, which speed_probe() measures between
# units.  The probe is fixed pure-Python work that calls nothing in
# ``repro``, so a change to the program cannot move it.
PROBE_REPEATS = 20
# Mean probe time that defines one reference second (2-vCPU x86 sandbox).
PROBE_REFERENCE_S = 0.0025


def speed_probe() -> float:
    """Mean time of PROBE_REPEATS runs of a fixed integer loop.  It makes
    no containers, so its time does not depend on what the last op left
    on the heap."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        x = 0
        for i in range(30_000):
            x = (x * 31 + i) & 0xFFFF
        samples.append(time.perf_counter() - start)
    return statistics.fmean(samples)


# Set-up (imports plus input generation) is timed in this many fresh
# interpreters; setup_s reports the median.
SETUP_REPEATS = 5
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import run
from workloads import CountLedger
run.build_workload({workload!r}, {seed!r}, CountLedger())
print(time.perf_counter() - start)
"""
# Op time of one cycle of each workload on a 2-vCPU x86 sandbox.  A run
# makes round(seconds / cycle) whole cycles, at least one, so that every
# run of a workload does the same work and reports the same percentile.
NOMINAL_CYCLE_S = {"reconstruct": 30.0, "search": 12.0, "registry": 8.5}


def build_workload(name: str, seed: int, ledger: Any) -> Any:
    from workloads import (
        PipelineWorkload,
        RegistryWorkload,
        load_expected_digests,
        load_golden,
        pipeline_instances,
    )

    if name == "registry":
        # The registry's inputs are pinned by the golden file (base seed
        # 0); the workload seed does not change them.
        return RegistryWorkload(load_golden(GOLDEN), ledger)
    return PipelineWorkload(name, pipeline_instances(name, seed), load_expected_digests(), ledger)


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_CYCLE_S[workload] + 0.5))


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, in reference seconds, to import the benchmark and
    ``repro`` and build the workload's inputs, each in a fresh interpreter."""
    import subprocess

    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    samples = []
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        after = speed_probe()
        slowness = (before + after) / (2 * PROBE_REFERENCE_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]) / slowness)
        before = after
    return statistics.median(samples)


def measure(workload: Any, cycles: int, trace: bool) -> dict[str, Any]:
    """Run ``cycles`` whole cycles of ``workload``'s units, probing the
    machine's speed before the first unit and after every unit.  With
    ``trace`` every unit runs twice, untraced and then traced, so the
    tracing overhead is measured on identical work."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    untraced, traced, in_order = [], [], []
    probes = [speed_probe()]
    probe_s = 0.0

    def timed(unit: Any, unit_tracer: Any = None) -> Any:
        nonlocal probe_s
        result = workload.run_unit(unit, unit_tracer)
        in_order.append(result)
        start = time.perf_counter()
        probes.append(speed_probe())
        probe_s += time.perf_counter() - start
        return result

    loop_start = time.perf_counter()
    for _ in range(cycles):
        for unit in workload.units:
            untraced.append(timed(unit))
            if tracer is not None:
                with tracer.installed():
                    traced.append(timed(unit, tracer))
    loop_wall = time.perf_counter() - loop_start
    # Unit i ran between probes i and i + 1; one probe more on each side
    # averages out the probe's own noise at the cost of some locality.
    for i, result in enumerate(in_order):
        result.slowness = statistics.fmean(probes[max(0, i - 1) : i + 3]) / PROBE_REFERENCE_S
    workload.ledger.save()
    return {
        "untraced": untraced,
        "traced": traced,
        "tracer": tracer,
        "loop_s": loop_wall - probe_s,
        "calibration_s": statistics.fmean(probes),
    }


def end_to_end(run: dict[str, Any], setup_s: float) -> tuple[dict[str, Any], dict[str, Any]]:
    """Op times are in reference seconds.  ``op_s_p50`` is the median over
    the cycle's inputs of each input's median time: every input recurs
    once per cycle, and the registry's 28 experiments split into two
    clusters right at the median, where a single slow sample would
    otherwise move it."""
    units = run["untraced"]
    by_input: dict[str, list[float]] = {}
    for unit in units:
        for op in unit.ops:
            if op.failure is None:
                by_input.setdefault(op.key, []).append(op.wall_s / unit.slowness)
    # A run without a successful op reports every op (it is not correct).
    if not by_input:
        for unit in units:
            for op in unit.ops:
                by_input.setdefault(op.key, []).append(op.wall_s / unit.slowness)
    samples = [time_s for times in by_input.values() for time_s in times]
    ok = sum(op.failure is None for unit in units for op in unit.ops)
    tail_s, tail_p = tail(samples)
    timed_s = sum(unit.wall_s / unit.slowness for unit in units)
    values = {
        "ops_per_s": (ok / timed_s, "1/s"),
        "op_s_p50": (statistics.median(map(statistics.median, by_input.values())), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    context = {
        "op_s_tail_percentile": round(tail_p, 2),
        "samples": len(samples),
        "wall_ops_per_s": ok / sum(unit.wall_s for unit in units),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, context


def per_layer(run: dict[str, Any]) -> dict[str, Any]:
    units, traced, tracer = run["untraced"], run["traced"], run["tracer"]
    ops = sum(len(unit.ops) for unit in units)
    traced_ops = sum(len(unit.ops) for unit in traced)
    values: dict[str, tuple[float, str]] = {}

    def per_op(key: str) -> float:
        return sum(unit.counts.get(key, 0) * len(unit.ops) for unit in units) / ops

    trace = tracer.summary([unit.slowness for unit in traced])
    self_s, calls = trace["self_s"], trace["calls"]

    def span(name: str, *, with_calls: bool = False, metric: str | None = None) -> None:
        metric = metric or name
        values[f"{metric}.self_s"] = (self_s.get(name, 0.0) / traced_ops, "s")
        if with_calls:
            values[f"{metric}.calls"] = (calls.get(name, 0) / traced_ops, "count")

    span("practical.quotient_from_view", with_calls=True)
    values["practical.aliases"] = (tracer.aliases / traced_ops, "count")
    span("practical.solve")
    for key in ("trees", "truncations", "mark_renumbers", "bucket_shifts"):
        values[f"view_tree.{key}"] = (per_op(f"view_tree.{key}"), "count")
    span("local_views.all_views", with_calls=True)
    span("orders.canonical_node_order", with_calls=True)
    span("encoding.encode_ordered_graph")
    span("quotient.finite_view_graph", with_calls=True)
    span("assignment_search")
    trials = calls.get("engine.trial", 0)
    values["assignment_search.trials"] = (trials / traced_ops, "count")
    values["assignment_search.success_ratio"] = (tracer.trial_successes / max(trials, 1), "ratio")
    values["assignment_search.trial_s_p50"] = (trace["trial_s_p50"], "s")
    span("engine.trial", metric="engine.trials")
    for key in ("executions", "rounds", "messages_sent", "bits_drawn"):
        values[f"engine.{key}"] = (per_op(f"engine.{key}"), "count")
    span("engine.stage1")
    span("engine.final_sim")
    span("problems.is_valid_output")
    for key in ("hits", "misses", "evictions"):
        values[f"artifacts.{key}"] = (per_op(f"artifacts.{key}"), "count")
    hits, misses = per_op("artifacts.hits"), per_op("artifacts.misses")
    values["artifacts.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    every = units + traced
    op_wall = sum(op.wall_s for unit in every for op in unit.ops)
    mean_slowness = statistics.fmean(unit.slowness for unit in every)
    overhead = (run["loop_s"] - op_wall) / mean_slowness / (ops + traced_ops)
    values["runner.overhead_s"] = (overhead, "s")
    values["trace.unattributed_s"] = (trace["unattributed_s"] / traced_ops, "s")
    values["trace.attributed_frac"] = (1.0 - trace["unattributed_s"] / trace["root_s"], "ratio")
    untraced_s = sum(unit.wall_s / unit.slowness for unit in units)
    traced_s = sum(unit.wall_s / unit.slowness for unit in traced)
    values["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    values["context.calibration_s"] = (run["calibration_s"], "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def registry_breakdown(units: list[Any]) -> dict[str, float]:
    """Median time per registry experiment in reference seconds (printed,
    not a metric: only the registry workload has experiments)."""
    times: dict[str, list[float]] = {}
    for unit in units:
        for op in unit.ops:
            times.setdefault(op.key, []).append(op.wall_s / unit.slowness)
    return {key: statistics.median(values) for key, values in sorted(times.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not GOLDEN.is_file():
        print(f"derandbench: no repro sources under {SRC} or no golden file", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import CountLedger

    setup_s = setup_seconds(args.workload, args.seed)
    workload = build_workload(args.workload, args.seed, CountLedger.for_checkout())
    run = measure(workload, cycles_for(args.workload, args.seconds), bool(args.trace))
    units = run["untraced"] + run["traced"]
    failures = [op for unit in units for op in unit.ops if op.failure is not None]
    attempted = sum(len(unit.ops) for unit in units)
    for op in failures:
        print(f"derandbench: FAILED {op.key}: {op.failure}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(run)
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        run["tracer"].write(trace_path)
        print(f"# trace: {len(run['tracer'].spans)} spans written to {trace_path.relative_to(CHECKOUT)}")
    else:
        metrics, context = end_to_end(run, setup_s)
        print(
            f"# op_s_tail is p{context['op_s_tail_percentile']} of {context['samples']} op samples; "
            f"uncalibrated ops_per_s={context['wall_ops_per_s']:.6g}"
        )
    if args.workload == "registry":
        print("# registry experiment medians (s): " + json.dumps(registry_breakdown(run["untraced"])))
    print(
        f"# workload={args.workload} seed={args.seed} units={len(run['untraced'])} "
        f"fail_frac={len(failures) / attempted:.6g} "
        f"calibration_s={run['calibration_s']:.4f} setup_s={setup_s:.4f}"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
