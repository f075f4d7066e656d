#!/usr/bin/env python
"""Run the view/refinement/quotient scaling benches and persist a baseline.

Writes ``benchmarks/BENCH_views.json``: machine info, an n-sweep of
timings for the three hot paths (view construction, color refinement,
quotient construction) plus incremental-deepening and interning
statistics.  Future PRs regress against the committed file:

    python benchmarks/run_perf_suite.py            # measure + rewrite baseline
    python benchmarks/run_perf_suite.py --quick    # smaller sweep, no rewrite
    python benchmarks/run_perf_suite.py --check    # compare vs committed baseline

``--check`` exits non-zero when cold view construction at the guard case
(cycle n=64, depth 64) regresses more than the allowed factor (default
2x) against the committed baseline — the CI ``perf-smoke`` gate.  A
timing ratio is only meaningful between runs on the same hardware, so
``--check`` first compares the recorded machine specs (platform, Python
version, implementation) and refuses with a field-by-field diff when
they differ; pass ``--allow-machine-mismatch`` to compare anyway (CI
does, with a widened ``--tolerance`` — see docs/PERFORMANCE.md).

Each *cold* sample clears the intern/rank tables and builder caches
first (`repro.views.clear_caches`), measuring construction from nothing;
*warm* samples reuse them, measuring the cached/incremental path.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graphs.builders import (  # noqa: E402
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
    with_uniform_input,
)
from repro.graphs.coloring import (  # noqa: E402
    apply_two_hop_coloring,
    greedy_two_hop_coloring,
)
from repro.graphs.labeled_graph import LabeledGraph  # noqa: E402
from repro.graphs.lifts import cyclic_lift, lift_graph  # noqa: E402
from repro.factor.factorizing_map import FactorizingMap  # noqa: E402
from repro.factor.prime import all_factors  # noqa: E402
from repro.core.a_star import LAYER_NAMES  # noqa: E402
from repro.core.candidates import (  # noqa: E402
    Candidate,
    enumerate_candidates,
    observed_marks,
)
from repro.core.orders import finite_view_graph_sort_key  # noqa: E402
from repro.problems.mis import MISProblem  # noqa: E402
from repro.problems.problem import TwoHopColoredVariant  # noqa: E402
from repro.factor.quotient import finite_view_graph, infinite_view_graph  # noqa: E402
from repro.algorithms import (  # noqa: E402
    AnonymousMatchingAlgorithm,
    AnonymousMISAlgorithm,
    TwoHopColoringAlgorithm,
)
from repro.dynamic import (  # noqa: E402
    ChurnPlan,
    ChurnSchedule,
    DynamicGraph,
    DynamicViewMaintainer,
)
from repro.faults import FaultPlan, inject_faults  # noqa: E402
from repro.runtime.algorithm import AnonymousAlgorithm  # noqa: E402
from repro.runtime.engine import (  # noqa: E402
    BroadcastDelivery,
    _absorb_all,
    _NotInternable,
    _output_changed,
    _wall_clock,
    collect_engine_metrics,
    execute,
)
from repro.runtime.port_model import PortAwareAlgorithm, PortEmulation  # noqa: E402
from repro.artifacts.specs import (  # noqa: E402
    quotient_spec,
    refinement_spec,
    views_spec,
)
from repro.artifacts.store import ArtifactStore  # noqa: E402
from repro.core.assignment_search import (  # noqa: E402
    TRIALS_PER_LENGTH,
    _PrefixMemo,
    enumerate_extensions,
    smallest_successful_assignment,
)
from repro.core.orders import (  # noqa: E402
    canonical_node_order,
    finite_view_graph_sort_key,
)
from repro.core.practical import _ReconstructionWalk, quotient_from_view  # noqa: E402
from repro.exceptions import FactorError, GraphError, SimulationError  # noqa: E402
from repro.runtime.tape import FixedTape  # noqa: E402
from repro.views.local_views import ViewBuilder, all_views, view_builder  # noqa: E402
from repro.views.refinement import color_refinement, refinement_indices  # noqa: E402
from repro.views import view_tree  # noqa: E402
from repro.views.view_tree import ViewTree, clear_caches, intern_stats  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "BENCH_views.json"
GUARD_BENCH = "views_cycle"
GUARD_N = 64
DEFAULT_TOLERANCE = 2.0

# Pre-CSR (PR-5) cold best-of-7 timings in milliseconds, measured at
# commit 4549e74 on the recording machine, for the cases the CSR core
# targets.  The ``csr`` section of the baseline records the speedup of
# each case against these denominators; ``--check`` enforces the
# headline floors on the *recorded* speedups (machine-independent — the
# recording machine measured both sides).
PR5_BASELINE_MS = {
    "refinement_cycle/256": 0.8211,
    "refinement_cycle/1024": 3.2574,
    "refinement_cycle/4096": 14.2036,
    "refinement_torus/256": 0.8188,
    "refinement_torus/1024": 3.2744,
    "refinement_torus/4096": 14.7188,
    "quotient_lift/256": 2.8626,
    "quotient_lift/1024": 11.0988,
    "quotient_lift/4096": 47.5437,
    "refinement_random/256": 1.6774,
    "refinement_random/512": 5.3166,
    "views_cycle/64": 0.5282,
}
PR5_COMMIT = "4549e74"

# Floors the recorded csr speedups must clear for perf-smoke to pass
# (the headline acceptance targets of the CSR PR).
CSR_SPEEDUP_FLOORS = {
    "refinement_cycle/1024": 5.0,
    "refinement_torus/1024": 5.0,
    "views_cycle/64": 3.0,
}

# Artifact fetch latency gate: a warm ``ArtifactStore.fetch`` (key
# derivation + memory-tier hit) must beat a cold one (compute + persist)
# by at least the floor.  Both are measured live within one run — cold
# and warm share the machine — so the floor is hardware-independent and
# gated on the *current* run, not on the committed baseline.
ARTIFACT_NS = [256, 1024]
ARTIFACT_SPEEDUP_FLOORS = {"artifact_fetch/256": 10.0, "artifact_fetch/1024": 10.0}
ARTIFACT_VIEW_DEPTH = 8

# Incremental view-maintenance gate: after one churn batch, advancing a
# maintainer (blast-radius recompute only) must beat a from-scratch
# ``ViewBuilder(new_graph).views(depth)`` rebuild by the floor at the
# headline case (n=1024, 1% churn).  Both sides run back to back in one
# invocation with shared intern tables — like the artifact ratios, the
# speedup is hardware-independent and gated on the *current* run.  A
# churn rate here means "expected deltas ~ rate * n", split across the
# op families (the blast-radius fraction, and so the attainable
# speedup, is governed by dirty-nodes x depth / n — see docs/DYNAMIC.md).
DYNAMIC_NS = [256, 1024]
DYNAMIC_CHURN_RATES = [0.01, 0.05]
DYNAMIC_VIEW_DEPTH = 6
DYNAMIC_SPEEDUP_FLOORS = {"dynamic_views_cycle/1024@1%": 5.0}

# Quotient reconstruction gate: the ``quotient_from_view`` calls over
# the distinct views of ``all_views(2n+2)`` of a 2-hop colored cycle,
# through one shared walk like the deterministic stage's solve, must
# beat the embedded pre-drop-chain reference (recursive truncate +
# all-pairs alias scan, below) by the floor at n=64.  The second case,
# on a random 3-regular graph under its greedy 2-hop coloring (all n
# views distinct, |V_*| = n), times the shared walk against one fresh
# walk per view, so it isolates what the sharing saves.  Both sides run
# in one invocation, each from cleared intern tables, so the speedup is
# gated live like the dynamic section.  Over 6 runs on a 2-vCPU Linux
# container (CPython 3.11) the distinct case measured 49-83x (6-12 ms
# against 0.38-0.61 s) and the cycle case at n=64 174-216x; the
# distinct floor sits under a third of its lowest measurement.
RECONSTRUCT_NS = [32, 64]
RECONSTRUCT_DISTINCT_N = 64
RECONSTRUCT_SPEEDUP_FLOORS = {"reconstruct_cycle/64": 5.0, "reconstruct_distinct/64": 16.0}

# Assignment search gate: the lexicographic smallest successful
# assignment for MIS on the view quotient of a 2-hop colored C6 (the
# deterministic stage's search: 4,197 engine trials), timed against
# an embedded replaying search on copies of the pre-change kernel pieces
# (every trial from round 0, per-pair message keys, recursive freeze,
# the old tape, funding checked twice a round; below).  Both sides run
# in one invocation and must pick the same assignment with the same
# number of executions, the current one simulating strictly fewer
# rounds, messages and bits (it resumes each trial from its prefix), so
# the speedup is gated live like the reconstruct section.  The current
# search continues each prefix snapshot, a tuple of interned state ids,
# through one transition table shared by every trial of the search: the
# messages and inboxes of a snapshot are computed once, and each
# distinct (state, bits, inbox) transition once per search.  The
# coloring is not periodic, so the quotient keeps all six nodes.  Since
# a trial reads one option slot per node of its prefix snapshot, it
# measured 50.2-74.0x over 18 runs on a 2-vCPU Linux container (CPython
# 3.11; 26.9-38.1x over 6 runs before); the floor is under 80% of the
# lowest measurement.
#
# The second case is a prg search, the ``reconstruct`` workload's kind:
# MIS on the view quotient of a random connected 48-node graph under its
# greedy 2-hop coloring (every view distinct, so all 48 nodes stay), 128
# failed trials of length 4 and then length 8.  Its reference runs every
# trial from round 0 through ``execute``; the current search plays them
# as lookups in its interned round kernel.  Both must pick the same
# assignment with identical engine counts.  Measured 2.1-3.1x over 10
# runs on the same container (2.14-2.93x over 18 runs with the fused
# round); the floor is under 80% of the lowest.
#
# The third case is the ``search`` workload's prg kind: matching on the
# view quotient of a random connected 20-node graph (the pinned search
# of tests/core/test_search_work_counts.py: 257 trials, half of its
# node steps miss the memo), against the same replaying loop with
# identical engine counts.  The replay shares the algorithms' lean miss
# path, so the memo only wins its hits: measured 1.26-1.63x over 6 runs
# with the final kernel (0.97-1.53x over 12 runs before the last miss
# path changes).  Its floor keeps the memo no slower than replay by
# more than a tenth.
#
# The fourth case is the lexicographic search of the ``search``
# workload's heaviest op, MIS on the view quotient of the 6-leaf star
# (all 7 nodes stay: a 2-hop coloring of a star is injective), 16,517
# trials.  Its reference is the search as it played each trial: an
# embedded copy of the per-trial ``_PrefixMemo._continue``, which reads
# a trial's option slots, sums them and keeps its end state.  The
# current search plays each prefix snapshot once and counts its trials
# from its slots.  Both must pick the same assignment with identical
# engine counts and the same calls of the algorithm.  Measured
# 5.34-9.08x over 17 runs on a 2-vCPU Linux container (CPython 3.11);
# the floor is under 80% of the lowest.  The first case measures
# 186-232x since the search plays snapshots (4 runs); its floor stays.
SEARCH_COLORING = (0, 1, 2, 0, 1, 3)
PRG_SEARCH_N = 48
PRG_MATCHING_N = 20
SNAPSHOT_SEARCH_LEAVES = 6
SEARCH_SPEEDUP_FLOORS = {
    "search_mis_cycle/6": 32.0,
    "search_prg_mis_random/48": 1.7,
    "search_prg_matching_random/20": 0.9,
    "search_snapshots_mis_star/7": 4.0,
}

# Factor enumeration gate: ``all_factors(..., include_trivial=True)`` on
# the two graphs of the ``lemma3`` experiment, the 2-hop colored C12
# (the fourfold cyclic lift of a colored C3) and the uncolored C12,
# timed against an embedded copy of the pre-change enumeration, which
# builds and verifies the quotient of every 2-hop independent fiber
# partition and keeps the ones that verify.  Both sides must return the
# same maps onto equal factors in the same order.  Both run in one
# invocation, so the speedup is gated live like the search section.
# Measured 5.5-5.9x (colored lift) and 19.7-22.6x (uncolored cycle)
# over 7 runs on a 2-vCPU Linux container (CPython 3.11); each floor
# sits under a third of the lowest.
FACTORS_SPEEDUP_FLOORS = {"factors_colored_lift/12": 1.5, "factors_cycle/12": 6.0}

# Candidate enumeration gate: ``enumerate_candidates`` (the view-guided
# folding search of A_*'s Update-Graph) on the phase-4 view of
# ``candidate-growth`` (colored C6, cap 4) and on the view node 0 of a
# colored P4 enumerates from in A_*'s phase 4 (cap 4), timed against an
# embedded copy of the brute force it replaced, which checks every
# connected graph on at most 4 nodes under every labeling by observed
# marks.  Both sides must return the same sort keys, finite view graphs
# and anchor classes.  Both run in one invocation, so the speedup is
# gated live.  Measured 630-660x (candidate-growth) and 370-480x (A_* on
# P4) over 3 runs on a 2-vCPU Linux container (CPython 3.11); each floor
# sits far under the lowest.
CANDIDATES_SPEEDUP_FLOORS = {"candidates_growth/4": 50.0, "candidates_a_star_p4/4": 50.0}

# Deepening gate: ``ViewBuilder.views(2n+2)`` on the colored 8x8 torus
# (greedy 2-hop coloring, the reconstruct workload's depth), whose
# levels past the rank fixpoint are built from frozen plans, timed
# against an embedded copy of the deepening loop that calls
# ``_make_ranked`` once per class at every stable level.  Each sample
# starts from cleared intern tables; both sides must give the same rank
# triples at every level and the same intern table sizes.  Both run in
# one invocation, so the speedup is gated live.  Measured 2.3-2.6x
# over 6 runs on a 2-vCPU Linux container (CPython 3.11); the floor
# sits under three fifths of the lowest.  The row also reports, without
# a gate, the traced bytes each side's deepening holds per interned tree
# (one extra untimed run per side under ``tracemalloc``).
DEEPENING_SPEEDUP_FLOORS = {"deepening_colored_torus/64": 1.3}


def _colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def _colored_lift(base_n: int, fiber: int):
    """A permutation-voltage lift of a 2-hop colored cycle: a large
    product graph whose quotient recovers the ``base_n``-node base —
    the paper-shaped workload for quotient construction at scale."""
    base = _colored(with_uniform_input(cycle_graph(base_n)))
    lift, _ = lift_graph(base, fiber, seed=base_n * fiber)
    return lift


def _git_info() -> dict:
    """The repo's HEAD commit and date, or ``"unknown"`` outside git."""
    info = {}
    for field, fmt in (("commit", "%h"), ("date", "%cs")):
        try:
            info[field] = subprocess.run(
                ["git", "-C", str(REPO_ROOT), "log", "-1", f"--format={fmt}"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except Exception:
            info[field] = "unknown"
    return info


def _baseline_provenance(baseline: dict) -> str:
    git = baseline.get("git", {})
    commit = git.get("commit", "unknown")
    date = git.get("date", "unknown")
    return f"baseline recorded at commit {commit} ({date})"


def _time(fn, repeats, cold):
    samples = []
    for _ in range(repeats):
        if cold:
            clear_caches()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "median_s": statistics.median(samples),
        "repeats": repeats,
    }


class _PortEcho(PortAwareAlgorithm):
    """Fixed-length port workload: each node ledgers (round, port) pairs."""

    bits_per_round = 0
    name = "perf-port-echo"

    def __init__(self, rounds_needed: int) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label, degree: int):
        return ((), 0)

    def messages(self, state, degree: int):
        return [(state[1], port) for port in range(degree)]

    def transition(self, state, received, bits: str):
        return (state[0] + (tuple(received),), state[1] + 1)

    def output(self, state):
        return state[0] if state[1] >= self.rounds_needed else None


class _BroadcastTally(AnonymousAlgorithm):
    """Fault-tolerant broadcast workload: each node ledgers the size of the
    received multiset per round, so drops/duplicates/crashed neighbors
    change the ledger without ever tripping an invariant."""

    bits_per_round = 0
    name = "perf-broadcast-tally"

    def __init__(self, rounds_needed: int) -> None:
        self.rounds_needed = rounds_needed

    def init_state(self, input_label, degree: int):
        return ((), 0)

    def message(self, state):
        return state[1]

    def transition(self, state, received, bits: str):
        return (state[0] + (len(received),), state[1] + 1)

    def output(self, state):
        return state[0] if state[1] >= self.rounds_needed else None


def _faulty(algorithm, graph, plan: FaultPlan, **execute_kwargs):
    """One ``execute`` under ``plan``."""
    with inject_faults(plan):
        return execute(algorithm, graph, **execute_kwargs)


def run_runtime_benches(repeats: int) -> list:
    """Unified-engine workloads, timed plus deterministic instrumentation.

    The ``counts`` block (executions, rounds, messages sent, bits drawn,
    nodes decided) is machine-independent: ``--check`` asserts it matches
    the committed baseline exactly, so any behavioral drift in the round
    kernel — an extra round, a changed message count, different bit
    accounting — fails the perf-smoke gate even when timings are fine.
    """
    coloring_graph = with_uniform_input(cycle_graph(32))
    port_graph = _colored(with_uniform_input(cycle_graph(16)))
    workloads = [
        (
            "engine_broadcast_coloring",
            32,
            lambda: execute(
                TwoHopColoringAlgorithm(),
                coloring_graph,
                seed=7,
                require_decided=True,
            ),
        ),
        (
            "engine_port_emulation",
            16,
            lambda: execute(
                PortEmulation(_PortEcho(rounds_needed=5)),
                port_graph,
                max_rounds=10,
                require_decided=True,
            ),
        ),
        # Fixed fault workloads: the plans are pure values, so rounds /
        # messages / bits / faults_injected are deterministic and gated
        # by --check like every other count.
        (
            "engine_faulty_broadcast",
            16,
            lambda: _faulty(
                _BroadcastTally(rounds_needed=6),
                with_uniform_input(cycle_graph(16)),
                FaultPlan(
                    plan_seed=41,
                    drop_rate=0.15,
                    duplicate_rate=0.1,
                    crashes=((3, 4),),
                ),
                max_rounds=6,
                require_decided=True,
            ),
        ),
        (
            "engine_faulty_port",
            16,
            lambda: _faulty(
                _PortEcho(rounds_needed=5),
                port_graph,
                FaultPlan(plan_seed=42, drop_rate=0.1, reorder_rate=0.3),
                max_rounds=5,
                require_decided=True,
            ),
        ),
    ]
    rows = []
    for bench, n, thunk in workloads:
        samples = []
        counts = None
        for _ in range(repeats):
            with collect_engine_metrics() as totals:
                start = time.perf_counter()
                thunk()
                samples.append(time.perf_counter() - start)
            sample_counts = totals.as_dict(include_wall=False)
            if counts is None:
                counts = sample_counts
            elif counts != sample_counts:
                raise AssertionError(
                    f"runtime bench {bench!r} is not deterministic: "
                    f"{counts} vs {sample_counts}"
                )
        rows.append(
            {
                "bench": bench,
                "n": n,
                "best_s": min(samples),
                "median_s": statistics.median(samples),
                "repeats": repeats,
                "counts": counts,
            }
        )
    return rows


def _fetch_once(specs: list, store: ArtifactStore) -> float:
    """Wall seconds of one ``store.fetch`` pass over ``specs`` (store
    opening excluded)."""
    start = time.perf_counter()
    for spec in specs:
        store.fetch(spec)
    return time.perf_counter() - start


def run_artifact_benches(repeats: int) -> dict:
    """Cold-miss vs warm-hit ``ArtifactStore.fetch`` latency for the
    standard query mix (refinement + views + quotient) on 2-hop colored
    cycles.

    Cold resets everything a fetch could hit — memory tier, interned
    trees, the persistent store file — so it pays compute, encoding and
    fsync'd persistence.  Warm fetches the same specs through the
    reopened store against the populated memory tier, re-deriving each
    key.  The per-``n`` ``speedup`` is cold/warm on best samples;
    ``--check`` enforces ``ARTIFACT_SPEEDUP_FLOORS`` on it.
    """
    rows = []
    for n in ARTIFACT_NS:
        graph = _colored(with_uniform_input(cycle_graph(n)))
        specs = [
            refinement_spec(graph),
            views_spec(graph, ARTIFACT_VIEW_DEPTH),
            quotient_spec(graph, with_views=False),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            cold_samples = []
            for _ in range(repeats):
                path.unlink(missing_ok=True)
                clear_caches()
                with ArtifactStore(path) as store:
                    cold_samples.append(_fetch_once(specs, store))
            with ArtifactStore(path) as store:
                warm_samples = [_fetch_once(specs, store) for _ in range(repeats)]
        cold_best = min(cold_samples)
        warm_best = min(warm_samples)
        rows.append(
            {
                "bench": "artifact_fetch",
                "n": n,
                "queries": len(specs),
                "cold": {
                    "best_s": cold_best,
                    "median_s": statistics.median(cold_samples),
                    "repeats": repeats,
                },
                "warm": {
                    "best_s": warm_best,
                    "median_s": statistics.median(warm_samples),
                    "repeats": repeats,
                },
                "speedup": round(cold_best / warm_best, 2),
            }
        )
    clear_caches()
    return {"speedup_floors": ARTIFACT_SPEEDUP_FLOORS, "rows": rows}


def run_dynamic_benches(repeats: int) -> dict:
    """Incremental view maintenance vs a from-scratch rebuild after one
    churn batch on 2-hop colored cycles.

    Setup (seeding the maintainer on the base snapshot, generating and
    applying the batch) is excluded from both sides: the incremental
    sample times ``maintainer.update(...)`` alone, the from-scratch
    sample times a fresh ``ViewBuilder(new_graph).views(depth)``.  The
    intern tables stay warm throughout, which is the honest comparison —
    both sides hash-cons into the same pool, the rebuild just visits
    every (node, depth) slot while the maintainer only walks the blast
    radius.
    """
    rows = []
    for n in DYNAMIC_NS:
        base = _colored(with_uniform_input(cycle_graph(n)))
        for rate in DYNAMIC_CHURN_RATES:
            plan = ChurnPlan(
                plan_seed=n,
                insert_rate=rate / 4,
                delete_rate=rate / 4,
                relabel_rate=rate / 2,
                relabel_values=(("A",), ("B",)),
            )
            dynamic = DynamicGraph(base)
            batch = ChurnSchedule(plan).batch(1, base)
            applied = dynamic.apply(batch)
            incremental_samples = []
            stats = None
            for _ in range(repeats):
                maintainer = DynamicViewMaintainer(base, DYNAMIC_VIEW_DEPTH)
                start = time.perf_counter()
                stats = maintainer.update(
                    applied.graph, applied.relabeled, applied.touched
                )
                incremental_samples.append(time.perf_counter() - start)
            scratch_samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                ViewBuilder(applied.graph).views(DYNAMIC_VIEW_DEPTH)
                scratch_samples.append(time.perf_counter() - start)
            incremental_best = min(incremental_samples)
            scratch_best = min(scratch_samples)
            rows.append(
                {
                    "bench": "dynamic_views_cycle",
                    "n": n,
                    "churn_rate": rate,
                    "deltas": len(batch),
                    "recomputed": stats.recomputed,
                    "reused": stats.reused,
                    "incremental": {
                        "best_s": incremental_best,
                        "median_s": statistics.median(incremental_samples),
                        "repeats": repeats,
                    },
                    "from_scratch": {
                        "best_s": scratch_best,
                        "median_s": statistics.median(scratch_samples),
                        "repeats": repeats,
                    },
                    "speedup": round(scratch_best / incremental_best, 2),
                }
            )
    clear_caches()
    return {"speedup_floors": DYNAMIC_SPEEDUP_FLOORS, "rows": rows}


def _versus_row(bench, n, current_s, reference_s, **extra) -> dict:
    """A live row: best and median of each side's samples, and the
    reference's best over the current side's best."""
    sides = {
        side: {
            "best_s": min(samples),
            "median_s": statistics.median(samples),
            "repeats": len(samples),
        }
        for side, samples in (("current", current_s), ("reference", reference_s))
    }
    speedup = round(sides["reference"]["best_s"] / sides["current"]["best_s"], 2)
    return {"bench": bench, "n": n, **extra, **sides, "speedup": speedup}


def _reference_truncate(tree, depth, memo):
    """Pre-drop-chain truncation: recurse through every child, memoised
    per (tree, depth) — O(n^3) table entries over a node's views."""
    if tree.depth <= depth:
        return tree
    key = (id(tree), depth)
    result = memo.get(key)
    if result is None:
        if depth == 1:
            result = ViewTree.leaf(tree.mark)
        else:
            result = ViewTree.make(
                tree.mark, [_reference_truncate(c, depth - 1, memo) for c in tree.children]
            )
        memo[key] = result
    return result


def _reference_quotient_edges(view, radius, memo):
    """Pre-change ``quotient_from_view`` alias collection and matching:
    the same aliases and edges, matched by scanning every alias."""
    aliases = []
    seen_alias = set()
    best_level = {}
    frontier = [(view, 1)]
    while frontier:
        tree, level = frontier.pop()
        if best_level.get(id(tree), radius + 1) <= level:
            continue
        best_level[id(tree)] = level
        alias = _reference_truncate(tree, radius, memo)
        if id(alias) not in seen_alias:
            seen_alias.add(id(alias))
            aliases.append(alias)
        if level < radius:
            for child in tree.children:
                frontier.append((child, level + 1))
    aliases.sort(key=lambda t: t.sort_key())
    edges = set()
    for i, alias in enumerate(aliases):
        for child in alias.children:
            (j,) = [
                k
                for k, other in enumerate(aliases)
                if _reference_truncate(other, max(1, radius - 1), memo) is child
            ]
            edges.add((min(i, j), max(i, j)))
    return edges


def _reference_reconstruct(views, graph):
    memo = {}
    return [_reference_quotient_edges(views[v], graph.num_nodes, memo) for v in graph.nodes]


def _current_reconstruct(views, graph):
    """As ``PracticalDerandomizer.solve`` does: one walk shared by the
    distinct views (here at radius n), then each node's rebuild."""
    radius = graph.num_nodes
    walk = _ReconstructionWalk(radius)
    rebuilt = {
        tree: quotient_from_view(tree, radius, walk=walk)
        for tree in dict.fromkeys(views.values())
    }
    return [rebuilt[views[v]] for v in graph.nodes]


def _unshared_reconstruct(views, graph):
    """One fresh walk per distinct view: each view redoes the whole walk."""
    radius = graph.num_nodes
    rebuilt = {tree: quotient_from_view(tree, radius) for tree in dict.fromkeys(views.values())}
    return [rebuilt[views[v]] for v in graph.nodes]


def _edge_sets(rebuilt):
    """Each node's rebuilt edges (the pre-change reference yields them
    directly; the others yield graphs, read here, outside the timing)."""
    return [q if isinstance(q, set) else set(q.edges()) for q in rebuilt]


def _time_reconstruction(graph, rebuild):
    """Seconds ``rebuild(views, graph)`` takes on freshly built
    depth-(2n+2) views (intern tables cleared, views built untimed)."""
    clear_caches()
    views = all_views(graph, 2 * graph.num_nodes + 2)
    start = time.perf_counter()
    result = rebuild(views, graph)
    return time.perf_counter() - start, result


def _reconstruct_row(bench, graph, reference_rebuild, samples_per_side) -> dict:
    """Time the shared-walk reconstruction against ``reference_rebuild``
    back to back; both must produce the same edges for every node."""
    current, reference = [], []
    for _ in range(samples_per_side):
        elapsed, current_rebuilt = _time_reconstruction(graph, _current_reconstruct)
        current.append(elapsed)
        elapsed, reference_rebuilt = _time_reconstruction(graph, reference_rebuild)
        reference.append(elapsed)
        if _edge_sets(current_rebuilt) != _edge_sets(reference_rebuilt):
            raise RuntimeError(f"{bench}/{graph.num_nodes}: reference edges differ")
    return _versus_row(bench, graph.num_nodes, current, reference)


def run_reconstruct_benches(repeats: int) -> dict:
    """Quotient reconstruction through one shared walk vs unshared
    references: the embedded pre-change code on 2-hop colored cycles,
    and one fresh walk per view on a random 3-regular graph.

    Each sample clears the intern tables and builds the depth-(2n+2)
    views untimed, then times every view's reconstruction.  The
    reference is checked to produce the same edges, so both sides do
    the same job.
    """
    samples_per_side = min(repeats, 3)  # the pre-change side takes seconds
    rows = [
        _reconstruct_row(
            "reconstruct_cycle",
            _colored(with_uniform_input(cycle_graph(n))),
            _reference_reconstruct,
            samples_per_side,
        )
        for n in RECONSTRUCT_NS
    ]
    n = RECONSTRUCT_DISTINCT_N
    rows.append(
        _reconstruct_row(
            "reconstruct_distinct",
            _colored(with_uniform_input(random_regular_graph(n, 3, seed=0))),
            _unshared_reconstruct,
            samples_per_side,
        )
    )
    clear_caches()
    return {"speedup_floors": RECONSTRUCT_SPEEDUP_FLOORS, "rows": rows}


def _reference_freeze(value):
    """Pre-change ``_freeze``: recursive, with no atom fast path."""
    if isinstance(value, (list, tuple)):
        return tuple(_reference_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _reference_freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(_reference_freeze(v) for v in value))
    return value


def _reference_message_key(message):
    return repr(_reference_freeze(message))


class _ReferenceFixedTape(FixedTape):
    """Pre-change tape: per-character validation, ``draw`` via ``remaining``."""

    def __init__(self, bits: str) -> None:
        if any(c not in "01" for c in bits):
            raise SimulationError(f"bitstring may contain only 0/1, got {bits!r}")
        self._bits = bits
        self._position = 0

    def draw(self, count: int) -> str:
        if not self.remaining(count):
            raise SimulationError("tape exhausted")
        chunk = self._bits[self._position : self._position + count]
        self._position += count
        return chunk


class _ReferenceBroadcast(BroadcastDelivery):
    """Pre-change broadcast delivery: every (receiver, neighbour) pair
    keys its message through the recursive freeze.  Overriding ``inbox``
    puts the kernel on the per-node ``deliver`` path.  ``emit`` repeats
    the tape-funding check the pre-change ``step()`` made after the loop's."""

    def __init__(self, tapes) -> None:
        self._tapes = tapes

    def emit(self, algorithm, states, graph):
        need = algorithm.bits_per_round
        if not all(tape.remaining(need) for tape in self._tapes.values()):
            raise SimulationError("cannot step: some node's bit tape is exhausted")
        return {v: algorithm.message(states[v]) for v in graph.nodes}

    def inbox(self, outboxes, node, graph):
        return tuple(
            sorted((outboxes[u] for u in graph.neighbors(node)), key=_reference_message_key)
        )


def _reference_search(algorithm, graph, node_order):
    """The lexicographic smallest successful assignment with every trial
    replayed from round 0 on the pre-change delivery, freeze, tapes and
    funding checks.  The
    trials run through ``execute`` with explicit tapes, so the kernel
    checks funding each round and stops at the same round as an
    assignment run; they share the current round loop and run plan."""
    empty = {v: "" for v in node_order}
    for target_length in range(1, 65):
        for assignment in enumerate_extensions(empty, node_order, target_length):
            tapes = {v: _ReferenceFixedTape(assignment[v]) for v in graph.nodes}
            delivery = _ReferenceBroadcast(tapes)
            if execute(algorithm, graph, tapes=tapes, delivery=delivery, record_trace=False).successful:
                return assignment
    raise RuntimeError("reference search found no assignment")


def _reference_prg_search(algorithm, graph, node_order):
    """The prg search with every trial replayed from round 0 through
    ``execute``, as it ran before its trials became memo lookups."""
    empty = {v: "" for v in node_order}
    target_length = 4
    while target_length <= 128:
        for assignment in enumerate_extensions(
            empty,
            node_order,
            target_length,
            strategy="prg",
            prg_seed=target_length,
            limit=TRIALS_PER_LENGTH,
        ):
            if execute(algorithm, graph, assignment=assignment).successful:
                return assignment
        target_length *= 2
    raise RuntimeError("reference prg search found no assignment")


class _PerTrialPrefixMemo(_PrefixMemo):
    """The lexicographic search as it played each trial: pre-change
    ``_continue`` reads a trial's ``n`` option slots, sums their decided
    bits and keeps its end state as the next length's snapshot, trial by
    trial.  ``_rows`` holds those per-trial snapshots."""

    def _continue(self, target_length, trials):
        graph = self._graph
        n = graph.num_nodes
        per_round = self._algorithm.bits_per_round
        rounds = target_length // per_round
        new_round = rounds > self._rounds
        kept = self._rounds * per_round
        free = target_length - kept
        keyed = _per_trial_keys(
            trials, [(n - 1 - j) * target_length + free for j in range(n)], kept
        )
        decided_mask = (1 << self._width) - 1
        executions = extended = nodes_decided = index = 0
        start = _wall_clock()
        try:
            if not self._rows:
                self._rows = [self._encode(self._memo.initial_ids())]
            snapshots = self._rows
            if not new_round:
                for index, key in keyed:
                    decided = sum(snapshots[key]) & decided_mask
                    executions += 1
                    nodes_decided += decided
                    if decided == n:
                        return index, range(0)
                return None, range(0)
            chunk_mask = (1 << free) - 1
            reads = [
                (p << free, (n - 1 - j) * target_length) for p, j in enumerate(self._positions)
            ]
            rows = [None] * len(snapshots)
            settled = {}
            fresh = []
            for index, key in keyed:
                slots = rows[key]
                if slots is None:
                    snapshot = snapshots[key]
                    if sum(snapshot) & decided_mask == n:
                        executions += 1
                        nodes_decided += n
                        return index, range(0)
                    settled[key] = self._settle(snapshot)
                    slots = rows[key] = [None] * (n << free)
                codes = [slots[base + ((index >> shift) & chunk_mask)] for base, shift in reads]
                if None in codes:
                    codes = self._fill_trial(
                        slots, settled[key], index, reads, chunk_mask, free, rounds
                    )
                decided = sum(codes) & decided_mask
                fresh.append(tuple(codes))
                executions += 1
                extended += 1
                nodes_decided += decided
                if decided == n:
                    return index, range(0)
        except _NotInternable:
            self._rows = None
            return None, range(index, trials)
        finally:
            _absorb_all(
                executions, extended, extended * 2 * graph.num_edges,
                extended * per_round * n, nodes_decided, _wall_clock() - start,
            )
        self._rows, self._rounds = fresh, rounds
        return None, range(0)

    def _fill_trial(self, slots, settled, index, reads, chunk_mask, free, rounds):
        memo, width = self._memo, self._width
        sids, befores, inboxes = settled
        filled = []
        for p, (base, shift) in enumerate(reads):
            chunk = (index >> shift) & chunk_mask
            if slots[base + chunk] is None:
                target = memo.target(sids[p], format(chunk, f"0{free}b"), inboxes[p])
                filled.append((p, base + chunk, target))
        for p, slot, target in filled:
            value, before = memo.output(target), befores[p]
            if before is not None and (value is None or value != before):
                raise _output_changed(self._graph.nodes[p], before, value, rounds)
            slots[slot] = target << width | (value is not None)
        return [slots[base + ((index >> shift) & chunk_mask)] for base, shift in reads]


def _per_trial_keys(trials, shifts, kept):
    """Each trial index with the lexicographic index of its per-node
    first ``kept`` bits (pre-change ``_prefix_keys``)."""
    mask = (1 << kept) - 1
    for index in range(trials):
        key = 0
        for shift in shifts:
            key = (key << kept) | ((index >> shift) & mask)
        yield index, key


def _per_trial_search(algorithm, graph, node_order):
    """``smallest_successful_assignment``'s lexicographic loop over
    :class:`_PerTrialPrefixMemo`."""
    search_length = _PerTrialPrefixMemo(algorithm, graph, node_order).search_length
    budget = 1_000_000
    for target_length in range(1, 65):
        found = search_length(target_length, budget)
        if found is not None:
            return found
        budget -= 1 << (graph.num_nodes * target_length)
    raise RuntimeError("per-trial search found no assignment")


class _CountingMIS(AnonymousMISAlgorithm):
    """MIS that counts its calls of the per-round protocol."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = {"message": 0, "transition": 0, "output": 0}

    def message(self, state):
        self.calls["message"] += 1
        return super().message(state)

    def transition(self, state, received, bits):
        self.calls["transition"] += 1
        return super().transition(state, received, bits)

    def output(self, state):
        self.calls["output"] += 1
        return super().output(state)


def _snapshot_search_row(samples_per_side) -> dict:
    """The lexicographic MIS search on the view quotient of the
    ``SNAPSHOT_SEARCH_LEAVES``-leaf star against the per-trial search:
    the same assignment, identical engine counts and the same algorithm
    calls."""
    star = with_uniform_input(star_graph(SNAPSHOT_SEARCH_LEAVES))
    graph, order = _quotient_search_input(star, greedy_two_hop_coloring(star))
    calls = []

    def counted(search):
        algorithm = _CountingMIS()
        chosen = search(algorithm, graph, order)
        calls.append(algorithm.calls)
        return chosen

    row = _search_row(
        "search_snapshots_mis_star",
        graph,
        lambda: counted(smallest_successful_assignment),
        lambda: counted(_per_trial_search),
        lambda counts, replayed: counts == replayed,
        samples_per_side,
    )
    if any(side != calls[0] for side in calls):
        raise RuntimeError("search_snapshots_mis_star: the algorithm calls differ")
    return {**row, "calls": calls[0]}


def _search_row(bench, graph, search, reference, same_work, samples_per_side) -> dict:
    """Time ``search()`` against ``reference()`` back to back; both must
    return the same assignment, with engine counts ``same_work`` accepts."""
    current_s, reference_s = [], []
    for _ in range(samples_per_side):
        with collect_engine_metrics() as totals:
            start = time.perf_counter()
            chosen = search()
            current_s.append(time.perf_counter() - start)
        with collect_engine_metrics() as reference_totals:
            start = time.perf_counter()
            reference_chosen = reference()
            reference_s.append(time.perf_counter() - start)
        counts = totals.as_dict(include_wall=False)
        replayed = reference_totals.as_dict(include_wall=False)
        if reference_chosen != chosen or not same_work(counts, replayed):
            raise RuntimeError(f"{bench}/{graph.num_nodes}: reference search differs")
    return _versus_row(bench, graph.num_nodes, current_s, reference_s, counts=counts)


def _quotient_search_input(graph, coloring):
    """The simulation graph and canonical node order of the view quotient
    of ``graph`` under ``coloring`` (as ``PracticalDerandomizer`` searches it)."""
    quotient = finite_view_graph(apply_two_hop_coloring(graph, coloring))
    return quotient.graph.with_only_layers(["input"]), canonical_node_order(quotient.graph)


def _prg_search_row(bench, algorithm, graph, samples_per_side) -> dict:
    """The prg search on the view quotient of ``graph`` under its greedy
    2-hop coloring against the loop that replays every trial through
    ``execute``: the same assignment with identical engine counts."""
    graph, order = _quotient_search_input(graph, greedy_two_hop_coloring(graph))
    return _search_row(
        bench,
        graph,
        lambda: smallest_successful_assignment(
            algorithm, graph, order, strategy="prg", max_length=128
        ),
        lambda: _reference_prg_search(algorithm, graph, order),
        lambda counts, replayed: counts == replayed,
        samples_per_side,
    )


def run_search_benches(repeats: int) -> dict:
    """Assignment searches vs embedded replaying references.

    The lexicographic search (MIS on the view quotient of C6 under
    ``SEARCH_COLORING``) runs against the pre-change kernel pieces: the
    same assignment with the same number of executions, the current side
    simulating strictly fewer rounds, messages and bits (it continues
    each trial from the end state of its failed prefix trial, looking
    each node's step up in the transition table all of the search's
    trials share).  The prg searches (MIS on the view quotient of a
    random connected ``PRG_SEARCH_N``-node graph, matching on that of a
    ``PRG_MATCHING_N``-node one) run against the loop that replays every
    trial through ``execute``: the same assignment with identical engine
    counts.  The snapshot search (MIS on the view quotient of the
    ``SNAPSHOT_SEARCH_LEAVES``-leaf star) runs against the per-trial
    continuation it replaced: the same assignment, identical engine
    counts and the same algorithm calls.
    """
    samples_per_side = min(repeats, 3)  # each side takes under a second
    algorithm = AnonymousMISAlgorithm()

    def fewer_rounds(counts, replayed):
        return replayed["executions"] == counts["executions"] and all(
            counts[k] < replayed[k] for k in ("rounds", "messages_sent", "bits_drawn")
        )

    cycle = with_uniform_input(cycle_graph(len(SEARCH_COLORING)))
    graph, order = _quotient_search_input(cycle, dict(enumerate(SEARCH_COLORING)))
    lexicographic = _search_row(
        "search_mis_cycle",
        graph,
        lambda: smallest_successful_assignment(algorithm, graph, order),
        lambda: _reference_search(algorithm, graph, order),
        fewer_rounds,
        samples_per_side,
    )
    random_graph = with_uniform_input(
        random_connected_graph(PRG_SEARCH_N, 1.5 / PRG_SEARCH_N, seed=1)
    )
    matching_graph = with_uniform_input(
        random_connected_graph(PRG_MATCHING_N, 1.5 / PRG_MATCHING_N, seed=6)
    )
    rows = [
        lexicographic,
        _prg_search_row("search_prg_mis_random", algorithm, random_graph, samples_per_side),
        _prg_search_row(
            "search_prg_matching_random", AnonymousMatchingAlgorithm(), matching_graph,
            samples_per_side,
        ),
        _snapshot_search_row(samples_per_side),
    ]
    return {"speedup_floors": SEARCH_SPEEDUP_FLOORS, "rows": rows}


def _reference_partitions(graph, classes, fiber_size):
    """Pre-change partition enumeration: the same 2-hop independent
    partitions in the same order, re-summing the open slots each step."""
    within_two_hops = {v: set(graph.nodes_within(v, 2)) for v in graph.nodes}
    partitions, blocks = [], []

    def backtrack(remaining):
        if not remaining:
            if all(len(block) == fiber_size for block in blocks):
                partitions.append([tuple(block) for block in blocks])
            return
        if len(remaining) < sum(fiber_size - len(block) for block in blocks):
            return
        first, rest = remaining[0], remaining[1:]
        near = within_two_hops[first]
        for block in blocks:
            if (
                len(block) < fiber_size
                and classes[block[0]] == classes[first]
                and near.isdisjoint(block)
            ):
                block.append(first)
                backtrack(rest)
                block.pop()
        blocks.append([first])
        backtrack(rest)
        blocks.pop()

    backtrack(list(graph.nodes))
    return partitions


def _reference_partition_to_factor(graph, partition):
    """Pre-change quotient step: build and verify the quotient of every
    partition, ``None`` when it is not a factor."""
    block_of = {v: index for index, block in enumerate(partition) for v in block}
    edges = {
        frozenset((block_of[v], block_of[u])) for v in graph.nodes for u in graph.neighbors(v)
    }
    layers = {
        name: {index: graph.label_of(block[0], name) for index, block in enumerate(partition)}
        for name in graph.layer_names
    }
    try:
        quotient = LabeledGraph(
            sorted(tuple(sorted(e)) for e in edges), nodes=range(len(partition)), layers=layers
        )
        return FactorizingMap(graph, quotient, block_of)
    except (GraphError, FactorError):
        return None


def _reference_all_factors(graph):
    """``all_factors(graph, include_trivial=True)`` as it ran before
    non-factors were rejected ahead of their quotient."""
    csr, colors = refinement_indices(graph)
    classes = dict(zip(csr.nodes, colors))
    factors = [FactorizingMap(graph, graph, {v: v for v in graph.nodes})]
    for fiber_size in range(2, graph.num_nodes + 1):
        if graph.num_nodes % fiber_size == 0:
            for partition in _reference_partitions(graph, classes, fiber_size):
                factor_map = _reference_partition_to_factor(graph, partition)
                if factor_map is not None:
                    factors.append(factor_map)
    return factors


def _factors_row(bench, graph, samples_per_side) -> dict:
    """Time ``all_factors`` against the pre-change enumeration back to
    back; both must return the same maps onto equal factors."""
    current_s, reference_s = [], []
    for _ in range(samples_per_side):
        start = time.perf_counter()
        found = all_factors(graph, include_trivial=True)
        current_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference_found = _reference_all_factors(graph)
        reference_s.append(time.perf_counter() - start)
        if [(m.as_dict(), m.factor) for m in found] != [
            (m.as_dict(), m.factor) for m in reference_found
        ]:
            raise RuntimeError(f"{bench}/{graph.num_nodes}: reference factors differ")
    return _versus_row(bench, graph.num_nodes, current_s, reference_s)


def run_factor_benches(repeats: int) -> dict:
    """Factor enumeration vs the embedded pre-change enumeration, on the
    colored and the uncolored C12 of the ``lemma3`` experiment."""
    colored_lift, _projection = cyclic_lift(_colored(with_uniform_input(cycle_graph(3))), 4)
    rows = [
        _factors_row("factors_colored_lift", colored_lift, repeats),
        _factors_row("factors_cycle", with_uniform_input(cycle_graph(12)), repeats),
    ]
    return {"speedup_floors": FACTORS_SPEEDUP_FLOORS, "rows": rows}


def _reference_enumerate_candidates(view, phase, problem_c, layer_names, max_nodes):
    """Pre-change enumeration: every connected edge set on
    ``k <= min(phase, max_nodes)`` nodes times every labeling by
    observed marks, each checked against C1-C3."""
    marks = observed_marks(view)
    by_encoding = {}
    for k in range(1, min(phase, max_nodes) + 1):
        pairs = list(itertools.combinations(range(k), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(edges) < k - 1 or not _reference_connected(k, edges):
                continue
            for labeling in itertools.product(marks, repeat=k):
                candidate = _reference_candidate(
                    edges, labeling, view, phase, problem_c, layer_names
                )
                if candidate is not None and candidate.sort_key not in by_encoding:
                    by_encoding[candidate.sort_key] = candidate
    return [by_encoding[key] for key in sorted(by_encoding)]


def _reference_connected(k, edges):
    adjacency = {v: [] for v in range(k)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == k


def _reference_candidate(edges, labeling, view, phase, problem_c, layer_names):
    k = len(labeling)
    degree = [0] * k
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if not any(
        labeling[v] == view.mark and degree[v] == len(view.children) for v in range(k)
    ):
        return None
    layers = {name: {} for name in layer_names}
    for v, mark in enumerate(labeling):
        if not isinstance(mark, tuple) or len(mark) != len(layer_names):
            return None
        for name, value in zip(layer_names, mark):
            layers[name][v] = value
    try:
        graph = LabeledGraph(edges, nodes=range(k), layers=layers)
    except GraphError:
        return None
    views = all_views(graph, phase)
    anchor = next((v for v in graph.nodes if views[v] is view), None)
    if anchor is None:
        return None
    if not problem_c.is_instance(graph.with_only_layers(list(layer_names[:-1]))):
        return None
    try:
        quotient = finite_view_graph(graph)
    except FactorError:
        return None
    return Candidate(
        graph=graph,
        finite_view=quotient.graph,
        anchor=anchor,
        anchor_class=quotient.map(anchor),
        sort_key=finite_view_graph_sort_key(quotient.graph),
    )


def _candidates_row(bench, view, phase, cap, samples_per_side) -> dict:
    """Time ``enumerate_candidates`` against the brute force back to
    back; both must return the same candidate list."""
    problem_c = TwoHopColoredVariant(MISProblem())
    current_s, reference_s = [], []
    for _ in range(samples_per_side):
        start = time.perf_counter()
        found = enumerate_candidates(view, phase, problem_c, LAYER_NAMES, max_nodes=cap)
        current_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference_found = _reference_enumerate_candidates(
            view, phase, problem_c, LAYER_NAMES, cap
        )
        reference_s.append(time.perf_counter() - start)
        if [(c.sort_key, c.finite_view, c.anchor_class) for c in found] != [
            (c.sort_key, c.finite_view, c.anchor_class) for c in reference_found
        ]:
            raise RuntimeError(f"{bench}/{cap}: reference candidates differ")
    return _versus_row(bench, cap, current_s, reference_s, phase=phase)


def run_candidate_benches(repeats: int) -> dict:
    """Candidate enumeration vs the embedded brute force, on the phase-4
    view of ``candidate-growth`` and on an A_* phase-4 view of P4."""
    samples_per_side = min(repeats, 3)  # the brute-force side takes ~0.5 s
    lift, _projection = cyclic_lift(_colored(with_uniform_input(cycle_graph(3))), 2)
    lift = lift.with_layer("bits", {v: "" for v in lift.nodes}).with_only_layers(
        list(LAYER_NAMES)
    )
    growth_view = all_views(lift, 4)[lift.nodes[0]]
    # On P4 no phase before the 4th has a candidate, so A_* adopts no bits
    # before it and its phase-4 views are those of the empty bit labeling.
    p4 = _colored(with_uniform_input(path_graph(4)))
    p4 = p4.with_layer("bits", {v: "" for v in p4.nodes}).with_only_layers(list(LAYER_NAMES))
    p4_view = all_views(p4, 4)[p4.nodes[0]]
    rows = [
        _candidates_row("candidates_growth", growth_view, 4, 4, samples_per_side),
        _candidates_row("candidates_a_star_p4", p4_view, 4, 4, samples_per_side),
    ]
    return {"speedup_floors": CANDIDATES_SPEEDUP_FLOORS, "rows": rows}


def _reference_deepen(builder, depth):
    """Pre-change stable deepening: refine until stable, then one
    ``_make_ranked`` per class at every level."""
    while len(builder._levels) < depth and not builder._stable:
        builder._extend()
    levels, counts = builder._levels, builder._counts
    csr = builder._csr
    colors, count = levels[-1][1], counts[-1]
    if builder._rep_order is None:
        builder._rep_order = builder._first_member_order(colors, count)
    classes = [
        (
            colors[rep],
            builder._rank_marks[csr.label_ranks[rep]],
            builder._rank_mark_ids[csr.label_ranks[rep]],
            [colors[u] for u in csr.adjacency[rep]],
        )
        for rep in builder._rep_order
    ]
    make = view_tree._make_ranked
    prev_trees = levels[-1][0]
    while len(levels) < depth:
        trees = [None] * count
        for c, mark, mark_id, row in classes:
            trees[c] = make(mark, mark_id, [prev_trees[d] for d in row])
        view_tree._record_drops(trees, prev_trees)
        levels.append((trees, colors))
        counts.append(count)
        prev_trees = trees


def _current_deepen(builder, depth):
    builder.views(depth)


def _deepened(graph, deepen):
    """Time ``deepen`` on a fresh builder from cleared intern tables;
    return the time, every level's rank triples and the table sizes."""
    clear_caches()
    gc.collect()  # start both sides from the same collector state
    builder = ViewBuilder(graph)
    depth = 2 * graph.num_nodes + 2
    start = time.perf_counter()
    deepen(builder, depth)
    elapsed = time.perf_counter() - start
    ranks = [[tree.sort_key() for tree in trees] for trees, _colors in builder._levels]
    stats = intern_stats()
    del stats["bucket_shifts"]  # plan-built buckets are created sorted
    return elapsed, (ranks, stats)


def _traced_bytes_per_tree(graph, deepen) -> float:
    """Traced bytes that ``deepen`` to depth 2n+2 leaves held, per
    interned tree, from cleared intern tables."""
    clear_caches()
    gc.collect()
    builder = ViewBuilder(graph)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deepen(builder, 2 * graph.num_nodes + 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    trees = intern_stats()["trees"]
    clear_caches()
    return round(held / trees, 1)


def run_deepening_benches(repeats: int) -> dict:
    """Plan-built stable levels vs one ``_make_ranked`` per class at
    every level, on the colored 8x8 torus at depth 2n+2."""
    graph = _colored(with_uniform_input(torus_graph(8, 8)))
    current_s, reference_s = [], []
    for _ in range(repeats):
        elapsed, current = _deepened(graph, _current_deepen)
        current_s.append(elapsed)
        elapsed, reference = _deepened(graph, _reference_deepen)
        reference_s.append(elapsed)
        if current != reference:
            raise RuntimeError("deepening_colored_torus: reference levels differ")
    clear_caches()
    bytes_per_tree = {
        "current": _traced_bytes_per_tree(graph, _current_deepen),
        "reference": _traced_bytes_per_tree(graph, _reference_deepen),
    }
    rows = [
        _versus_row(
            "deepening_colored_torus",
            graph.num_nodes,
            current_s,
            reference_s,
            bytes_per_tree=bytes_per_tree,
        )
    ]
    return {"speedup_floors": DEEPENING_SPEEDUP_FLOORS, "rows": rows}


def run_suite(quick: bool, repeats: int) -> dict:
    view_ns = [8, 16, 32, 64] if quick else [8, 16, 32, 64, 96, 128]
    refine_ns = [16, 64, 128] if quick else [16, 64, 128, 256, 512]
    quotient_ns = [8, 16, 32] if quick else [8, 16, 32, 48, 64]
    rows = []

    for n in view_ns:
        graph = with_uniform_input(cycle_graph(n))
        cold = _time(lambda: all_views(graph, n), repeats, cold=True)
        stats = intern_stats()
        warm = _time(lambda: all_views(graph, n), repeats, cold=False)
        rows.append(
            {
                "bench": GUARD_BENCH,
                "n": n,
                "cold": cold,
                "warm": warm,
                "intern": stats,
            }
        )

    for n in view_ns:
        # Incremental deepening: extend a cached depth-(n//2) builder to
        # depth n, versus the cold full build measured above.
        graph = with_uniform_input(cycle_graph(n))
        clear_caches()
        builder = view_builder(graph)
        builder.views(n // 2)
        start = time.perf_counter()
        builder.views(n)
        extend_s = time.perf_counter() - start
        rows.append(
            {
                "bench": "views_incremental_extend",
                "n": n,
                "cold": {"best_s": extend_s, "median_s": extend_s, "repeats": 1},
                "warm": None,
                "intern": None,
            }
        )

    for n in refine_ns:
        graph = with_uniform_input(random_connected_graph(n, 0.1, seed=n))
        cold = _time(lambda: color_refinement(graph), repeats, cold=True)
        warm = _time(lambda: color_refinement(graph), repeats, cold=False)
        rows.append(
            {"bench": "refinement_random", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    for n in quotient_ns:
        graph = _colored(with_uniform_input(random_connected_graph(n, 0.15, seed=n)))
        cold = _time(lambda: finite_view_graph(graph), repeats, cold=True)
        warm = _time(lambda: finite_view_graph(graph), repeats, cold=False)
        rows.append(
            {"bench": "quotient_colored", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    # The CSR-core headline cases: flat-array refinement on uniform
    # cycles and tori, and quotient construction on lifts of a 2-hop
    # colored cycle (the sizes the PR-5 reference timings were recorded
    # at; see PR5_BASELINE_MS).
    csr_ns = [256, 1024] if quick else [256, 1024, 4096]
    for n in csr_ns:
        graph = with_uniform_input(cycle_graph(n))
        cold = _time(lambda: color_refinement(graph), repeats, cold=True)
        warm = _time(lambda: color_refinement(graph), repeats, cold=False)
        rows.append(
            {"bench": "refinement_cycle", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    for n in csr_ns:
        side = math.isqrt(n)
        graph = with_uniform_input(torus_graph(side, side))
        cold = _time(lambda: color_refinement(graph), repeats, cold=True)
        warm = _time(lambda: color_refinement(graph), repeats, cold=False)
        rows.append(
            {"bench": "refinement_torus", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    for n in csr_ns:
        graph = _colored_lift(16, n // 16)
        cold = _time(lambda: infinite_view_graph(graph), repeats, cold=True)
        warm = _time(lambda: infinite_view_graph(graph), repeats, cold=False)
        rows.append(
            {"bench": "quotient_lift", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    # Epoch-stamped BFS on the CSR arrays: the antipodal distance plus a
    # radius query on a uniform cycle.
    for n in csr_ns:
        graph = with_uniform_input(cycle_graph(n))

        def bfs(graph=graph, n=n):
            return graph.distance(0, n // 2), len(graph.nodes_within(0, n // 4))

        if bfs() != (n // 2, n // 2 + 1):
            raise RuntimeError(f"bfs_csr_distance/{n}: wrong distance or radius")
        cold = _time(bfs, repeats, cold=True)
        warm = _time(bfs, repeats, cold=False)
        rows.append(
            {"bench": "bfs_csr_distance", "n": n, "cold": cold, "warm": warm, "intern": None}
        )

    # The canonical sort key of a finite view graph (quotient + encoding).
    graph = _colored(with_uniform_input(random_connected_graph(12, 0.2, seed=5)))

    def encode():
        return finite_view_graph_sort_key(finite_view_graph(graph).graph)

    if encode()[0] > graph.num_nodes:
        raise RuntimeError("canonical_encoding/12: quotient larger than the graph")
    cold = _time(encode, repeats, cold=True)
    warm = _time(encode, repeats, cold=False)
    rows.append(
        {"bench": "canonical_encoding", "n": 12, "cold": cold, "warm": warm, "intern": None}
    )

    clear_caches()
    speedups = {}
    for row in rows:
        case = f"{row['bench']}/{row['n']}"
        reference_ms = PR5_BASELINE_MS.get(case)
        if reference_ms is not None:
            speedups[case] = round(reference_ms / (row["cold"]["best_s"] * 1e3), 2)
    return {
        # Schema history: 2 = runtime counts section; 3 = git provenance
        # block + fault workloads + ``faults_injected`` in counts;
        # 4 = ``csr`` section (speedups of the array kernels vs the
        # embedded pre-CSR reference timings) + refinement_cycle /
        # refinement_torus / quotient_lift benches; 5 = ``artifacts``
        # section (cold-miss vs warm-hit artifact-service latency with a
        # live warm/cold ratio floor); 6 = ``dynamic`` section
        # (incremental view maintenance vs from-scratch rebuild under
        # churn, with a live speedup floor); 7 = ``reconstruct`` section
        # (per-node quotient reconstruction vs the embedded pre-change
        # reference, with a live speedup floor); 8 = the ``artifacts``
        # section times ``ArtifactStore.fetch`` (``artifact_fetch`` rows
        # with a ``speedup``, floors checked like the other live sections);
        # 9 = ``search`` section (lexicographic assignment search vs the
        # embedded pre-change round kernel, same assignment and engine
        # counts asserted, with a live speedup floor); 10 = the ``search``
        # reference replays every trial from round 0, the current search
        # resumes trials from their prefixes (same assignment and
        # executions, strictly fewer rounds, messages and bits asserted);
        # 11 = the current search shares each failed prefix's round
        # across its trials (same checks, higher floor); 12 = plain
        # ``bfs_csr_distance`` and ``canonical_encoding`` rows in
        # ``results`` (no floor); 13 = a prg ``search`` row against the
        # loop that replays every trial through ``execute`` (same
        # assignment and identical engine counts, with a live floor);
        # 14 = the ``reconstruct`` current side shares one walk across
        # the distinct views, plus a ``reconstruct_distinct`` row
        # against one fresh walk per view (same edges, live floor);
        # 15 = ``factors`` section (factor enumeration vs the embedded
        # pre-change one that builds every partition's quotient, same
        # maps asserted, with a live floor); 16 = ``candidates`` section
        # (view-guided candidate enumeration vs the embedded brute force,
        # same candidate list asserted, with a live floor); 17 = a prg
        # matching ``search`` row (the ``search`` workload's prg kind)
        # against the replaying loop, and the lexicographic floor raised
        # to 32x; 18 = ``deepening`` section (plan-built stable view
        # levels vs one ``_make_ranked`` per class, same rank triples
        # asserted, with a live floor); 19 = the ``deepening`` row reports
        # each side's traced bytes per interned tree (no gate); 20 = a
        # lexicographic ``search`` row on the star-6 quotient against the
        # per-trial continuation (same assignment, identical engine counts
        # and algorithm calls, with a live floor).
        "schema": 20,
        "suite": "views-perf",
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "git": _git_info(),
        "csr": {
            "reference_commit": PR5_COMMIT,
            "reference_ms": PR5_BASELINE_MS,
            "speedups": speedups,
        },
        "results": rows,
        "runtime": run_runtime_benches(repeats),
        "artifacts": run_artifact_benches(repeats),
        "dynamic": run_dynamic_benches(repeats),
        "reconstruct": run_reconstruct_benches(repeats),
        "search": run_search_benches(repeats),
        "factors": run_factor_benches(repeats),
        "candidates": run_candidate_benches(repeats),
        "deepening": run_deepening_benches(repeats),
    }


def _guard_time(payload: dict):
    for row in payload.get("results", []):
        if row.get("bench") == GUARD_BENCH and row.get("n") == GUARD_N:
            return row["cold"]["best_s"]
    return None


def _runtime_counts_drift(baseline: dict, current: dict) -> list:
    """Per-bench diff of the engine's deterministic counts (empty = same).

    A baseline without a ``runtime`` section (schema 1) produces no
    drift: the counts gate only arms once a schema-2 baseline is
    committed.
    """
    base_rows = {row["bench"]: row["counts"] for row in baseline.get("runtime", [])}
    cur_rows = {row["bench"]: row["counts"] for row in current.get("runtime", [])}
    drifts = []
    for bench in sorted(base_rows):
        if bench not in cur_rows:
            drifts.append(f"  {bench}: missing from current run")
            continue
        for field in sorted(set(base_rows[bench]) | set(cur_rows[bench])):
            base_value = base_rows[bench].get(field, "<missing>")
            cur_value = cur_rows[bench].get(field, "<missing>")
            if base_value != cur_value:
                drifts.append(
                    f"  {bench}.{field}: baseline={base_value!r} "
                    f"vs current={cur_value!r}"
                )
    return drifts


def _machine_mismatch(baseline: dict, current: dict) -> list:
    """Field-by-field diff of the recorded machine specs (empty = same)."""
    base_machine = baseline.get("machine", {})
    cur_machine = current.get("machine", {})
    diffs = []
    for field in sorted(set(base_machine) | set(cur_machine)):
        base_value = base_machine.get(field, "<missing>")
        cur_value = cur_machine.get(field, "<missing>")
        if base_value != cur_value:
            diffs.append(f"  {field}: baseline={base_value!r} vs current={cur_value!r}")
    return diffs


def _cold_by_case(payload: dict) -> dict:
    """``{"bench/n": cold best seconds}`` for every measured case."""
    return {
        f"{row['bench']}/{row['n']}": row["cold"]["best_s"]
        for row in payload.get("results", [])
    }


def _ratio_table(baseline: dict, current: dict) -> list:
    """Per-bench old/new rows ``(case, base_s, cur_s, ratio)`` over the
    cases present in both runs (``--check`` runs the quick sweep, so the
    committed full-sweep baseline usually has extra sizes)."""
    base_cases = _cold_by_case(baseline)
    cur_cases = _cold_by_case(current)
    return [
        (case, base_cases[case], cur_cases[case], cur_cases[case] / base_cases[case])
        for case in sorted(base_cases)
        if case in cur_cases
    ]


def _print_ratio_table(rows: list, tolerance: float) -> None:
    print(f"{'bench/n':<26}{'baseline':>12}{'current':>12}{'ratio':>8}")
    for case, base_s, cur_s, ratio in rows:
        print(
            f"{case:<26}{base_s * 1e3:10.4f}ms{cur_s * 1e3:10.4f}ms{ratio:8.2f}"
        )
    print(f"(ratio = current/baseline cold best; guard tolerance {tolerance:.2f})")


def _write_step_summary(rows: list, csr_lines: list, tolerance: float) -> None:
    """Append the ratio table as markdown to the GitHub job summary, when
    running under Actions (``$GITHUB_STEP_SUMMARY`` set)."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### perf-smoke: baseline vs current (cold best)",
        "",
        "| bench/n | baseline | current | ratio |",
        "| --- | ---: | ---: | ---: |",
    ]
    for case, base_s, cur_s, ratio in rows:
        lines.append(
            f"| {case} | {base_s * 1e3:.4f}ms | {cur_s * 1e3:.4f}ms | {ratio:.2f} |"
        )
    lines.append("")
    lines.append(f"ratio = current/baseline; guard tolerance {tolerance:.2f}")
    if csr_lines:
        lines.append("")
        lines.extend(csr_lines)
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError:
        pass  # summary output is best-effort; the stdout table is canonical


def _check_csr_floors(baseline: dict) -> tuple:
    """Validate the *recorded* csr speedups against the acceptance floors.

    The speedups in the committed baseline were measured on the recording
    machine against PR-5 timings from the same machine, so the check is
    hardware-independent — it gates what the baseline claims, and the
    timing-ratio guard above gates whether this run still matches the
    baseline.  A baseline without a ``csr`` section (schema <= 3) arms
    nothing.  Returns ``(failures, summary_lines)``.
    """
    recorded = baseline.get("csr", {}).get("speedups", {})
    failures = []
    lines = ["recorded CSR speedups vs pre-CSR reference "
             f"(commit {baseline.get('csr', {}).get('reference_commit', '?')}):"]
    for case in sorted(recorded):
        floor = CSR_SPEEDUP_FLOORS.get(case)
        floor_note = f" (floor {floor:.1f})" if floor is not None else ""
        lines.append(f"  {case}: {recorded[case]:.2f}x{floor_note}")
        if floor is not None and recorded[case] < floor:
            failures.append(
                f"  {case}: recorded speedup {recorded[case]:.2f}x is below "
                f"the acceptance floor {floor:.1f}x"
            )
    for case in sorted(CSR_SPEEDUP_FLOORS):
        if recorded and case not in recorded:
            failures.append(
                f"  {case}: required by the acceptance floors but missing "
                "from the baseline's csr section (re-record the baseline "
                "with the full sweep)"
            )
    return failures, lines if recorded else []


def _dynamic_case(row: dict) -> str:
    return f"{row['bench']}/{row['n']}@{row['churn_rate']:.0%}"


def _sized_case(row: dict) -> str:
    return f"{row['bench']}/{row['n']}"


# Sections whose speedups are measured live (both sides back to back in
# one invocation), in check order: section -> (default floors, case
# naming, summary title, (row key, label) of each timed side as printed,
# failure text, violation banner).
LIVE_SPEEDUP_SECTIONS = {
    "artifacts": (
        ARTIFACT_SPEEDUP_FLOORS,
        _sized_case,
        "artifact fetch cold miss vs warm hit",
        (("cold", "cold"), ("warm", "warm")),
        "warm hits beat cold misses",
        "ARTIFACT FETCH SPEEDUP FLOOR VIOLATION:",
    ),
    "dynamic": (
        DYNAMIC_SPEEDUP_FLOORS,
        _dynamic_case,
        "incremental view maintenance vs from-scratch rebuild",
        (("incremental", "incremental"), ("from_scratch", "rebuild")),
        "incremental maintenance beats a rebuild",
        "INCREMENTAL MAINTENANCE SPEEDUP FLOOR VIOLATION:",
    ),
    "reconstruct": (
        RECONSTRUCT_SPEEDUP_FLOORS,
        _sized_case,
        "shared-walk quotient reconstruction vs unshared references",
        (("current", "current"), ("reference", "reference")),
        "reconstruction beats the reference",
        "RECONSTRUCTION SPEEDUP FLOOR VIOLATION:",
    ),
    "search": (
        SEARCH_SPEEDUP_FLOORS,
        _sized_case,
        "assignment search vs pre-change round kernel",
        (("current", "current"), ("reference", "reference")),
        "the search beats the pre-change kernel",
        "ASSIGNMENT SEARCH SPEEDUP FLOOR VIOLATION:",
    ),
    "factors": (
        FACTORS_SPEEDUP_FLOORS,
        _sized_case,
        "factor enumeration vs building every partition's quotient",
        (("current", "current"), ("reference", "reference")),
        "factor enumeration beats the pre-change one",
        "FACTOR ENUMERATION SPEEDUP FLOOR VIOLATION:",
    ),
    "candidates": (
        CANDIDATES_SPEEDUP_FLOORS,
        _sized_case,
        "view-guided candidate enumeration vs the brute force",
        (("current", "current"), ("reference", "reference")),
        "candidate enumeration beats the brute force",
        "CANDIDATE ENUMERATION SPEEDUP FLOOR VIOLATION:",
    ),
    "deepening": (
        DEEPENING_SPEEDUP_FLOORS,
        _sized_case,
        "plan-built view deepening vs make per class",
        (("current", "current"), ("reference", "reference")),
        "plan-built deepening beats make per class",
        "VIEW DEEPENING SPEEDUP FLOOR VIOLATION:",
    ),
}


def _check_live_speedups(current: dict, section_name: str) -> tuple:
    """Validate the *current* run's speedups in a live section against
    its floors.

    Both sides are measured back to back on this machine within one
    invocation, so the check needs no baseline and no machine match.
    Returns ``(failures, summary_lines)``.
    """
    default_floors, case_of, title, sides, beats, _ = LIVE_SPEEDUP_SECTIONS[section_name]
    section = current.get(section_name, {})
    rows = section.get("rows", [])
    floors = section.get("speedup_floors", default_floors)
    failures = []
    lines = [f"{title} (live):"]
    for row in rows:
        case = case_of(row)
        floor = floors.get(case)
        floor_note = f" (floor {floor:.1f})" if floor is not None else ""
        timings = " ".join(f"{label} {row[key]['best_s'] * 1e3:.4f}ms" for key, label in sides)
        lines.append(f"  {case}: {timings} -> {row['speedup']:.2f}x{floor_note}")
        if floor is not None and row["speedup"] < floor:
            failures.append(
                f"  {case}: {beats} by only {row['speedup']:.2f}x (floor {floor:.1f}x)"
            )
    measured = {case_of(row) for row in rows}
    for case in sorted(floors):
        if rows and case not in measured:
            failures.append(
                f"  {case}: required by the speedup floors but missing from "
                f"the {section_name} section"
            )
    return failures, lines if rows else []


def check_against_baseline(
    current: dict,
    baseline_path: Path,
    tolerance: float,
    allow_machine_mismatch: bool = False,
) -> int:
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run without --check to create one")
        return 1
    baseline = json.loads(baseline_path.read_text())
    mismatch = _machine_mismatch(baseline, current)
    if mismatch:
        print(
            f"machine specs differ from the committed baseline ({baseline_path}, "
            f"{_baseline_provenance(baseline)}):"
        )
        for line in mismatch:
            print(line)
        if not allow_machine_mismatch:
            print(
                "timing ratios across machines are not comparable; refusing "
                "the check.  Re-record the baseline on this machine (run "
                "without --check) or pass --allow-machine-mismatch (ideally "
                "with a widened --tolerance) to compare anyway."
            )
            return 3
        print("--allow-machine-mismatch given: comparing anyway")
    base_time = _guard_time(baseline)
    new_time = _guard_time(current)
    if base_time is None or new_time is None:
        print("guard case missing from baseline or current run")
        return 1
    ratio = new_time / base_time
    table = _ratio_table(baseline, current)
    csr_failures, summary_lines = _check_csr_floors(baseline)
    live_failures = {}
    for section_name in LIVE_SPEEDUP_SECTIONS:
        live_failures[section_name], lines = _check_live_speedups(current, section_name)
        summary_lines += lines
    _print_ratio_table(table, tolerance)
    for line in summary_lines:
        print(line)
    _write_step_summary(table, summary_lines, tolerance)
    print(
        f"perf-smoke guard: views cycle n={GUARD_N} cold "
        f"{new_time * 1e3:.3f}ms vs baseline {base_time * 1e3:.3f}ms "
        f"(ratio {ratio:.2f}, allowed {tolerance:.2f})"
    )
    if ratio > tolerance:
        print("PERF REGRESSION: view construction slowed beyond tolerance")
        return 2
    if csr_failures:
        print("CSR SPEEDUP FLOOR VIOLATION:")
        for line in csr_failures:
            print(line)
        return 2
    for section_name, failures in live_failures.items():
        if failures:
            print(LIVE_SPEEDUP_SECTIONS[section_name][-1])
            for line in failures:
                print(line)
            return 2
    drift = _runtime_counts_drift(baseline, current)
    if drift:
        print(
            "runtime engine counts drifted from the committed baseline "
            f"({_baseline_provenance(baseline)}):"
        )
        for line in drift:
            print(line)
        print(
            "ENGINE BEHAVIOR CHANGE: rounds/messages/bits differ from the "
            "baseline.  If intentional, re-record it (run without --check)."
        )
        return 2
    print("perf-smoke ok")
    return 0


def _print_table(payload: dict) -> None:
    print(f"{'bench':<26}{'n':>5}{'cold best':>14}{'warm best':>14}")
    for row in payload["results"]:
        cold = row["cold"]["best_s"] * 1e3
        warm = "" if row["warm"] is None else f"{row['warm']['best_s'] * 1e3:11.4f}ms"
        print(f"{row['bench']:<26}{row['n']:>5}{cold:11.4f}ms{warm:>14}")
    for row in payload.get("runtime", []):
        counts = row["counts"]
        print(
            f"{row['bench']:<26}{row['n']:>5}{row['best_s'] * 1e3:11.4f}ms"
            f"    rounds={counts['rounds']} msgs={counts['messages_sent']} "
            f"bits={counts['bits_drawn']}"
        )
    for row in payload.get("artifacts", {}).get("rows", []):
        cold = row["cold"]["best_s"] * 1e3
        warm = row["warm"]["best_s"] * 1e3
        print(
            f"{row['bench']:<26}{row['n']:>5}{cold:11.4f}ms{warm:11.4f}ms"
            f"   speedup={row['speedup']:.2f}x"
        )
    for row in payload.get("dynamic", {}).get("rows", []):
        scratch = row["from_scratch"]["best_s"] * 1e3
        incremental = row["incremental"]["best_s"] * 1e3
        print(
            f"{_dynamic_case(row):<26}     {scratch:11.4f}ms{incremental:11.4f}ms"
            f"   speedup={row['speedup']:.2f}x"
        )
    for section_name in ("reconstruct", "search", "factors", "candidates", "deepening"):
        for row in payload.get(section_name, {}).get("rows", []):
            reference = row["reference"]["best_s"] * 1e3
            current = row["current"]["best_s"] * 1e3
            line = (
                f"{row['bench']:<26}{row['n']:>5}{reference:11.4f}ms{current:11.4f}ms"
                f"   speedup={row['speedup']:.2f}x"
            )
            held = row.get("bytes_per_tree")
            if held:
                line += f"   bytes/tree={held['reference']}/{held['current']}"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sweep (CI smoke)")
    parser.add_argument("--repeats", type=int, default=5, help="samples per case")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed slowdown factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--allow-machine-mismatch",
        action="store_true",
        help=(
            "compare against a baseline recorded on different machine specs "
            "instead of refusing (consider widening --tolerance)"
        ),
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="baseline file path"
    )
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick or args.check, repeats=args.repeats)
    _print_table(payload)

    if args.check:
        return check_against_baseline(
            payload,
            args.output,
            args.tolerance,
            allow_machine_mismatch=args.allow_machine_mismatch,
        )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
