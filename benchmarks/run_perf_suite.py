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

Each *cold* sample clears the intern/rank tables and the artifact
payload bucket first (`repro.views.clear_caches`), measuring
construction from nothing; *warm* samples keep the interned trees, so
they measure a rebuild that finds every tree already interned.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the oracles of ``tests/oracles.py``

from repro.graphs.builders import (  # noqa: E402
    complete_graph,
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
from repro.graphs.csr import csr_of  # noqa: E402
from repro.graphs.lifts import cyclic_lift, lift_graph  # noqa: E402
from repro.factor.prime import all_factors  # noqa: E402
from repro.core.a_star import LAYER_NAMES  # noqa: E402
from repro.core.candidates import enumerate_candidates  # noqa: E402
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
from repro.runtime.engine import collect_engine_metrics, execute  # noqa: E402
from repro.runtime.port_model import PortAwareAlgorithm, PortEmulation  # noqa: E402
from repro.artifacts.specs import (  # noqa: E402
    quotient_spec,
    refinement_spec,
    views_spec,
)
from repro.artifacts.store import ArtifactStore  # noqa: E402
from repro.core.assignment_search import smallest_successful_assignment  # noqa: E402
from repro.core.orders import (  # noqa: E402
    canonical_node_order,
    finite_view_graph_sort_key,
)
from repro.core.practical import _ReconstructionWalk, quotient_from_view  # noqa: E402
from repro.views.local_views import ViewBuilder, all_views  # noqa: E402
from repro.views.refinement import color_refinement  # noqa: E402
from repro.views.view_tree import clear_caches, intern_stats  # noqa: E402
from tests.oracles import (  # noqa: E402
    csr_tables,
    per_trial_search,
    reference_all_factors,
    reference_deepen,
    reference_derive,
    reference_enumerate_candidates,
    reference_prg_search,
    reference_reconstruct,
    reference_search,
    unshared_reconstruct,
)

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "BENCH_views.json"
GUARD_BENCH = "views_cycle"
GUARD_N = 64
DEFAULT_TOLERANCE = 2.0
# The guard case's cold time is the best of at least this many samples:
# one sample takes about 0.2 ms, and a best of 5 spread 2x between runs
# on a shared 2-vCPU container.
GUARD_SAMPLES = 30

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
# The two sides alternate over at least DYNAMIC_SAMPLES samples: the
# incremental side takes well under a millisecond, and a best of 5
# taken in one block read 4.53x once when a neighbour slowed that block.
DYNAMIC_NS = [256, 1024]
DYNAMIC_CHURN_RATES = [0.01, 0.05]
DYNAMIC_VIEW_DEPTH = 6
DYNAMIC_SAMPLES = 15
DYNAMIC_SPEEDUP_FLOORS = {"dynamic_views_cycle/1024@1%": 5.0}

# Graph derivation gate: ``with_uniform_input`` on a 64-cycle whose CSR
# mirror exists, plus the derived graph's mirror, against
# ``reference_derive`` (the constructor re-sorting and re-validating the
# topology from its edge list) plus its mirror.  The derived graph
# shares the node tuple, adjacency, ports and CSR topology arrays, so it
# validates the new layer and ranks its labels and nothing else.  Same
# structure key and CSR tables asserted.  Measured 1.95-2.41x over 26
# runs on a 2-vCPU Linux container (CPython 3.11); the floor sits under
# 80% of the lowest.
DERIVATION_N = 64
DERIVATION_SAMPLES = 20
DERIVATION_SPEEDUP_FLOORS = {"derive_uniform_input/64": 1.5}

# Quotient reconstruction gate: the ``quotient_from_view`` calls over
# the distinct views of ``all_views(2n+2)`` of a 2-hop colored cycle,
# through one shared walk like the deterministic stage's solve, must
# beat the pre-drop-chain reference (recursive truncate + all-pairs
# alias scan: ``reference_reconstruct`` in tests/oracles.py, like every
# reference below) by the floor at n=64.  The second case,
# on a random 3-regular graph under its greedy 2-hop coloring (all n
# views distinct, |V_*| = n), times the shared walk against one fresh
# walk per view (``unshared_reconstruct``), so it isolates what the
# sharing saves.  Both sides run
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
# ``reference_search``, which replays every trial from round 0 through
# ``execute``.  Both sides run in one invocation and must pick the same
# assignment with the same number of executions, the current one
# simulating strictly fewer rounds, messages and bits (it resumes each
# trial from its prefix), so the speedup is gated live like the
# reconstruct section.  The current
# search continues each prefix snapshot, a tuple of interned state ids,
# through one transition table shared by every trial of the search: the
# messages and inboxes of a snapshot are computed once, and each
# distinct (state, bits, inbox) transition once per search.  The
# coloring is not periodic, so the quotient keeps all six nodes.  It
# measured 112-124x over 4 runs on a 2-vCPU Linux container (CPython
# 3.11); the floor is under a third of the lowest.
#
# The second case is a prg search, the ``reconstruct`` workload's kind:
# MIS on the view quotient of a random connected 48-node graph under its
# greedy 2-hop coloring (every view distinct, so all 48 nodes stay), 128
# failed trials of length 4 and then length 8.  Its reference,
# ``reference_prg_search``, runs every trial from round 0 through
# ``execute``; the current search plays them
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
# trials.  Its reference is the search as it played each trial
# (``per_trial_search``, the per-trial ``_PrefixMemo._continue``), which
# reads a trial's option slots, sums them and keeps its end state.  The
# current search plays each prefix snapshot once and counts its trials
# from its slots.  Both must pick the same assignment with identical
# engine counts and the same calls of the algorithm.  Measured
# 5.34-9.08x over 17 runs on a 2-vCPU Linux container (CPython 3.11);
# the floor is under 80% of the lowest.
#
# The fifth case is the ``search`` workload's tail op, 2-hop coloring on
# the view quotient of K4 (all 4 nodes stay), 5,533 trials, against the
# same per-trial continuation with the same checks.  Its snapshots are
# many and small (440 settles), so the row gates what a settle costs:
# it fills every option slot the transition table already answers, and
# leaves only the others (428 here) to an event at their first reader.
# Measured 1.44-2.05x over 16 runs on a 2-vCPU Linux container (CPython
# 3.11); with one event per option slot (1,546), 1.09-1.75x single
# timings.  The floor is under 80% of the lowest.
SEARCH_COLORING = (0, 1, 2, 0, 1, 3)
PRG_SEARCH_N = 48
PRG_MATCHING_N = 20
SNAPSHOT_SEARCH_LEAVES = 6
SNAPSHOT_SEARCH_COMPLETE = 4
SEARCH_SPEEDUP_FLOORS = {
    "search_mis_cycle/6": 32.0,
    "search_prg_mis_random/48": 1.7,
    "search_prg_matching_random/20": 0.9,
    "search_snapshots_mis_star/7": 4.0,
    "search_snapshots_2hop_complete/4": 1.1,
}

# Factor enumeration gate: ``all_factors(..., include_trivial=True)`` on
# the two graphs of the ``lemma3`` experiment, the 2-hop colored C12
# (the fourfold cyclic lift of a colored C3) and the uncolored C12,
# timed against ``reference_all_factors``, the unpruned enumeration:
# every equal-size partition inside the view classes, its quotient
# built and verified unless it needs a loop or is not locally
# injective.  Both sides must return the same maps onto equal factors
# in the same order.  Both run in one invocation, so the speedup is
# gated live like the search section.  Measured 5.7-6.4x (colored lift)
# and 71-81x (uncolored cycle) over 4 runs on a 2-vCPU Linux container
# (CPython 3.11); each floor sits under a third of the lowest.
FACTORS_SPEEDUP_FLOORS = {"factors_colored_lift/12": 1.5, "factors_cycle/12": 6.0}

# Candidate enumeration gate: ``enumerate_candidates`` (the view-guided
# folding search of A_*'s Update-Graph) on the phase-4 view of
# ``candidate-growth`` (colored C6, cap 4) and on the view node 0 of a
# colored P4 enumerates from in A_*'s phase 4 (cap 4), timed against
# the brute force it replaced (``reference_enumerate_candidates``),
# which checks every connected graph on at most 4 nodes under every
# labeling by observed marks.  Both sides must return the same sort keys, finite view graphs
# and anchor classes.  Both run in one invocation, so the speedup is
# gated live.  Measured 460-522x (candidate-growth) and 276-326x (A_* on
# P4) over 5 runs on a 2-vCPU Linux container (CPython 3.11); each floor
# sits far under the lowest.
CANDIDATES_SPEEDUP_FLOORS = {"candidates_growth/4": 50.0, "candidates_a_star_p4/4": 50.0}

# Deepening gate: ``ViewBuilder.views(2n+2)`` on the colored 8x8 torus
# (greedy 2-hop coloring, the reconstruct workload's depth), whose
# levels past the rank fixpoint are built from frozen plans, timed
# against the deepening loop that calls ``_make_ranked`` once per class
# at every stable level (``reference_deepen``).  Each sample
# starts from cleared intern tables; both sides must give the same rank
# triples at every level and the same intern table sizes.  Both run in
# one invocation, so the speedup is gated live.  Measured 2.3-2.6x
# over 6 runs on a 2-vCPU Linux container (CPython 3.11); the floor
# sits under three fifths of the lowest.  The row also reports, without
# a gate, the traced bytes each side's deepening holds per interned tree
# (one extra untimed run per side under ``tracemalloc``).
DEEPENING_SPEEDUP_FLOORS = {"deepening_colored_torus/64": 1.3}

# Cold-start gate: a fresh interpreter importing the pipeline entry
# (``from repro import derandomize_pipeline``) against one importing the
# registry entry (``all_experiment_ids()``, which registers all 28
# experiments).  Package exports load on first access and experiments on
# the first registry query, so the pipeline side loads about a third of
# the registry side's ``repro`` modules.  The children import a copy of
# ``src/repro`` without ``__pycache__`` and write no bytecode, so each
# compiles every ``repro`` module it loads, as a fresh checkout does.
# Both sides alternate within one invocation, so the ratio is gated
# live.  Measured 1.86-2.69x over 10 runs of 5 samples on a 2-vCPU Linux
# container (CPython 3.11), 1.11-1.91x at the eager exports before; the
# floor sits under 80% of the lowest, and a ratio near 1 means the
# pipeline entry loads the registry again.
COLD_START_SPEEDUP_FLOORS = {"cold_start_pipeline": 1.5}
COLD_START_ENTRIES = {
    "pipeline": "from repro import derandomize_pipeline",
    "registry": "from repro.experiments import all_experiment_ids; all_experiment_ids()",
}
COLD_START_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
{entry}
elapsed = time.perf_counter() - start
print(elapsed, sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
"""


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
    side times ``maintainer.update(...)`` alone, the rebuild side a
    fresh ``ViewBuilder(new_graph).views(depth)``, and the maintained
    views must equal the rebuild's.  The intern tables stay warm
    throughout, which is the honest comparison — both sides hash-cons
    into the same pool, the rebuild just visits every (node, depth) slot
    while the maintainer only walks the blast radius.
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

            def maintain(maintainer, applied=applied):
                stats = maintainer.update(applied.graph, applied.relabeled, applied.touched)
                return {
                    "views": maintainer.views(),
                    "recomputed": stats.recomputed,
                    "reused": stats.reused,
                }

            def rebuild(_maintainer, applied=applied):
                return {"views": ViewBuilder(applied.graph).views(DYNAMIC_VIEW_DEPTH)}

            rows.append(
                _versus_row(
                    "dynamic_views_cycle",
                    n,
                    max(repeats, DYNAMIC_SAMPLES),
                    maintain,
                    rebuild,
                    setup=partial(DynamicViewMaintainer, base, DYNAMIC_VIEW_DEPTH),
                    same=lambda ours, theirs: ours["views"] == theirs["views"],
                    report=("recomputed", "reused"),
                    churn_rate=rate,
                    deltas=len(batch),
                )
            )
    clear_caches()
    return {"speedup_floors": DYNAMIC_SPEEDUP_FLOORS, "rows": rows}


def _versus_row(
    bench, n, samples, current, reference, *, setup=None, observe=None, same=operator.eq,
    report=(), **extra,
) -> dict:
    """A live row: ``current`` timed against its oracle ``reference``
    (from ``tests/oracles.py``) back to back, ``samples`` times.  The
    side timed first alternates from sample to sample, so neither side
    always runs on a cache or clock state the other one left.

    Before each side, untimed, ``setup()`` (when given) returns the one
    argument the side is called with.  Each side runs under
    ``collect_engine_metrics``; right after it, untimed,
    ``observe(result, counts)`` reads what the two sides must agree on
    (by default the result itself), and ``same`` compares the two
    readings.  The row holds each side's best and median, the keys
    ``report`` names from the current side's reading, and the
    reference's best over the current side's best.
    """
    seconds = {"current": [], "reference": []}
    order = (("current", current), ("reference", reference))
    for sample in range(samples):
        seen = {}
        for side, run in order if sample % 2 == 0 else order[::-1]:
            args = () if setup is None else (setup(),)
            with collect_engine_metrics() as totals:
                start = time.perf_counter()
                result = run(*args)
                seconds[side].append(time.perf_counter() - start)
            counts = totals.as_dict(include_wall=False)
            seen[side] = result if observe is None else observe(result, counts)
        if not same(seen["current"], seen["reference"]):
            raise RuntimeError(f"{bench}/{n}: the reference result differs")
    sides = {
        side: {
            "best_s": min(samples_s),
            "median_s": statistics.median(samples_s),
            "repeats": len(samples_s),
        }
        for side, samples_s in seconds.items()
    }
    reported = {key: seen["current"][key] for key in report}
    speedup = round(sides["reference"]["best_s"] / sides["current"]["best_s"], 2)
    return {"bench": bench, "n": n, **extra, **reported, **sides, "speedup": speedup}


def run_derivation_benches(repeats: int) -> dict:
    """``with_uniform_input`` on a cycle against a rebuild from scratch,
    each followed by the new graph's CSR mirror (see
    DERIVATION_SPEEDUP_FLOORS)."""

    def mirrored_cycle():
        graph = cycle_graph(DERIVATION_N)
        csr_of(graph)
        return graph

    def derive(graph):
        derived = with_uniform_input(graph)
        csr_of(derived)
        return derived

    def rebuild(graph):
        layers = {name: graph.layer(name) for name in graph.layer_names}
        layers["input"] = {v: (graph.degree(v), 0) for v in graph.nodes}
        derived = reference_derive(graph, layers)
        csr_of(derived)
        return derived

    row = _versus_row(
        "derive_uniform_input",
        DERIVATION_N,
        max(repeats, DERIVATION_SAMPLES),
        derive,
        rebuild,
        setup=mirrored_cycle,
        observe=lambda graph, _counts: (graph.structure_key(), csr_tables(graph)),
    )
    return {"speedup_floors": DERIVATION_SPEEDUP_FLOORS, "rows": [row]}


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


def run_reconstruct_benches(repeats: int) -> dict:
    """Quotient reconstruction through one shared walk vs unshared
    references: the pre-change code on 2-hop colored cycles, and one
    fresh walk per view on a random 3-regular graph.

    Each sample clears the intern tables and builds the depth-(2n+2)
    views untimed, then times every view's reconstruction.  The
    reference is checked to produce the same edges, so both sides do
    the same job.
    """
    samples = min(repeats, 3)  # the pre-change side takes seconds
    cases = [
        ("reconstruct_cycle", _colored(with_uniform_input(cycle_graph(n))), reference_reconstruct)
        for n in RECONSTRUCT_NS
    ]
    distinct = random_regular_graph(RECONSTRUCT_DISTINCT_N, 3, seed=0)
    cases.append(
        ("reconstruct_distinct", _colored(with_uniform_input(distinct)), unshared_reconstruct)
    )
    rows = []
    for bench, graph, reference in cases:

        def fresh_views(graph=graph):
            clear_caches()
            return all_views(graph, 2 * graph.num_nodes + 2)

        rows.append(
            _versus_row(
                bench,
                graph.num_nodes,
                samples,
                partial(_current_reconstruct, graph=graph),
                partial(reference, graph=graph),
                setup=fresh_views,
                # The pre-change reference yields edge sets, the others graphs.
                observe=lambda rebuilt, _counts: [
                    q if isinstance(q, set) else set(q.edges()) for q in rebuilt
                ],
            )
        )
    clear_caches()
    return {"speedup_floors": RECONSTRUCT_SPEEDUP_FLOORS, "rows": rows}


def _counting(algorithm_class):
    """A subclass of ``algorithm_class`` that counts its calls of the
    per-round protocol."""

    class Counting(algorithm_class):
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

    return Counting


def _quotient_search_input(graph, coloring):
    """The simulation graph and canonical node order of the view quotient
    of ``graph`` under ``coloring`` (as ``PracticalDerandomizer`` searches it)."""
    quotient = finite_view_graph(apply_two_hop_coloring(graph, coloring))
    return quotient.graph.with_only_layers(["input"]), canonical_node_order(quotient.graph)


def _searched(chosen, counts):
    return {"assignment": chosen, "counts": counts}


def run_search_benches(repeats: int) -> dict:
    """Assignment searches vs the replaying oracles of ``tests/oracles.py``.

    The lexicographic search (MIS on the view quotient of C6 under
    ``SEARCH_COLORING``) runs against ``reference_search``, which replays
    every trial from round 0 through ``execute``: the same assignment
    with the same number of executions, the current side simulating
    strictly fewer rounds, messages and bits (it continues each trial
    from the end state of its failed prefix trial, looking each node's
    step up in the transition table all of the search's trials share).
    The prg searches (MIS on the view quotient of a random connected
    ``PRG_SEARCH_N``-node graph, matching on that of a
    ``PRG_MATCHING_N``-node one) run against ``reference_prg_search``:
    the same assignment with identical engine counts.  The snapshot
    searches (MIS on the view quotient of the ``SNAPSHOT_SEARCH_LEAVES``-leaf
    star, 2-hop coloring on that of the ``SNAPSHOT_SEARCH_COMPLETE``-node
    complete graph) run against ``per_trial_search``, the per-trial
    continuation they replaced: the same assignment, identical engine
    counts and the same algorithm calls.
    """
    samples = min(repeats, 3)  # the cycle search's replaying reference takes ~0.5 s
    algorithm = AnonymousMISAlgorithm()

    def fewer_rounds(current, replayed):
        counts, replayed_counts = current["counts"], replayed["counts"]
        return (
            current["assignment"] == replayed["assignment"]
            and replayed_counts["executions"] == counts["executions"]
            and all(
                counts[k] < replayed_counts[k] for k in ("rounds", "messages_sent", "bits_drawn")
            )
        )

    cycle = with_uniform_input(cycle_graph(len(SEARCH_COLORING)))
    graph, order = _quotient_search_input(cycle, dict(enumerate(SEARCH_COLORING)))
    rows = [
        _versus_row(
            "search_mis_cycle",
            graph.num_nodes,
            samples,
            partial(smallest_successful_assignment, algorithm, graph, order),
            partial(reference_search, algorithm, graph, order),
            observe=_searched,
            same=fewer_rounds,
            report=("counts",),
        )
    ]
    for bench, prg_algorithm, n, seed in (
        ("search_prg_mis_random", algorithm, PRG_SEARCH_N, 1),
        ("search_prg_matching_random", AnonymousMatchingAlgorithm(), PRG_MATCHING_N, 6),
    ):
        random_graph = with_uniform_input(random_connected_graph(n, 1.5 / n, seed=seed))
        graph, order = _quotient_search_input(
            random_graph, greedy_two_hop_coloring(random_graph)
        )
        rows.append(
            _versus_row(
                bench,
                graph.num_nodes,
                repeats,  # each side takes well under a second
                partial(
                    smallest_successful_assignment, prg_algorithm, graph, order,
                    strategy="prg", max_length=128,
                ),
                partial(reference_prg_search, prg_algorithm, graph, order, max_length=128),
                observe=_searched,
                report=("counts",),
            )
        )

    def counted(search, algorithm_class, graph, order):
        counting = _counting(algorithm_class)

        def run():
            algorithm = counting()
            return search(algorithm, graph, order), algorithm.calls

        return run

    star = with_uniform_input(star_graph(SNAPSHOT_SEARCH_LEAVES))
    complete = with_uniform_input(complete_graph(SNAPSHOT_SEARCH_COMPLETE))
    for bench, base, algorithm_class in (
        ("search_snapshots_mis_star", star, AnonymousMISAlgorithm),
        ("search_snapshots_2hop_complete", complete, TwoHopColoringAlgorithm),
    ):
        graph, order = _quotient_search_input(base, greedy_two_hop_coloring(base))
        rows.append(
            _versus_row(
                bench,
                graph.num_nodes,
                samples,
                counted(smallest_successful_assignment, algorithm_class, graph, order),
                counted(per_trial_search, algorithm_class, graph, order),
                observe=lambda result, counts: {**_searched(result[0], counts), "calls": result[1]},
                report=("counts", "calls"),
            )
        )
    return {"speedup_floors": SEARCH_SPEEDUP_FLOORS, "rows": rows}


def run_factor_benches(repeats: int) -> dict:
    """Factor enumeration vs the unpruned enumeration, on the colored and
    the uncolored C12 of the ``lemma3`` experiment: both must return the
    same maps onto equal factors."""
    samples = min(repeats, 3)  # the unpruned side takes ~0.8 s on the cycle
    colored_lift, _projection = cyclic_lift(_colored(with_uniform_input(cycle_graph(3))), 4)
    cases = [
        ("factors_colored_lift", colored_lift),
        ("factors_cycle", with_uniform_input(cycle_graph(12))),
    ]
    rows = [
        _versus_row(
            bench,
            graph.num_nodes,
            samples,
            partial(all_factors, graph, include_trivial=True),
            partial(reference_all_factors, graph),
            observe=lambda maps, _counts: [(m.as_dict(), m.factor) for m in maps],
        )
        for bench, graph in cases
    ]
    return {"speedup_floors": FACTORS_SPEEDUP_FLOORS, "rows": rows}


def run_candidate_benches(repeats: int) -> dict:
    """Candidate enumeration vs the brute force, on the phase-4 view of
    ``candidate-growth`` and on an A_* phase-4 view of P4 (cap 4): both
    must return the same candidate list."""
    samples = min(repeats, 3)  # the brute-force side takes ~0.5 s
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
    problem_c = TwoHopColoredVariant(MISProblem())
    rows = [
        _versus_row(
            bench,
            4,
            samples,
            partial(enumerate_candidates, view, 4, problem_c, LAYER_NAMES, max_nodes=4),
            partial(reference_enumerate_candidates, view, 4, problem_c, LAYER_NAMES, 4),
            observe=lambda found, _counts: [
                (c.sort_key, c.finite_view, c.anchor_class) for c in found
            ],
            phase=4,
        )
        for bench, view in (("candidates_growth", growth_view), ("candidates_a_star_p4", p4_view))
    ]
    return {"speedup_floors": CANDIDATES_SPEEDUP_FLOORS, "rows": rows}


def _current_deepen(builder, depth):
    builder.views(depth)


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
    every level, on the colored 8x8 torus at depth 2n+2.  Each side
    deepens a fresh builder from cleared intern tables; both must leave
    the same rank triples at every level and the same table sizes."""
    graph = _colored(with_uniform_input(torus_graph(8, 8)))
    depth = 2 * graph.num_nodes + 2

    def fresh_builder():
        clear_caches()
        gc.collect()  # start both sides from the same collector state
        return ViewBuilder(graph)

    def deepened(deepen):
        def run(builder):
            deepen(builder, depth)
            return builder

        return run

    def levels(builder, _counts):
        stats = intern_stats()
        del stats["bucket_shifts"]  # plan-built buckets are created sorted
        return [[tree.sort_key() for tree in trees] for trees, _colors in builder._levels], stats

    row = _versus_row(
        "deepening_colored_torus",
        graph.num_nodes,
        repeats,
        deepened(_current_deepen),
        deepened(reference_deepen),
        setup=fresh_builder,
        observe=levels,
    )
    clear_caches()
    row["bytes_per_tree"] = {
        "current": _traced_bytes_per_tree(graph, _current_deepen),
        "reference": _traced_bytes_per_tree(graph, reference_deepen),
    }
    return {"speedup_floors": DEEPENING_SPEEDUP_FLOORS, "rows": [row]}


def _cold_start_sample(entry: str, src: str) -> tuple:
    """``(seconds, repro modules)`` of one fresh interpreter running
    ``entry`` against the package copy in ``src``, timed inside the
    child from before its first import."""
    code = COLD_START_PROBE.format(src=src, entry=entry)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    seconds, modules = done.stdout.split()
    return float(seconds), int(modules)


def run_cold_start_benches(repeats: int) -> dict:
    """Fresh-interpreter import of the pipeline entry vs the registry
    entry, alternating sides; ``speedup`` is registry/pipeline on best
    samples, and each side reports how many ``repro`` modules it loads."""
    samples: dict[str, list[float]] = {side: [] for side in COLD_START_ENTRIES}
    modules: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            Path(src) / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        for _ in range(repeats):
            for side, entry in COLD_START_ENTRIES.items():
                seconds, modules[side] = _cold_start_sample(entry, src)
                samples[side].append(seconds)
    row: dict = {"bench": "cold_start_pipeline"}
    for side, times in samples.items():
        row[side] = {
            "best_s": min(times),
            "median_s": statistics.median(times),
            "repeats": repeats,
            "modules": modules[side],
        }
    row["speedup"] = round(row["registry"]["best_s"] / row["pipeline"]["best_s"], 2)
    return {"speedup_floors": COLD_START_SPEEDUP_FLOORS, "rows": [row]}


def run_suite(quick: bool, repeats: int) -> dict:
    view_ns = [8, 16, 32, 64] if quick else [8, 16, 32, 64, 96, 128]
    refine_ns = [16, 64, 128] if quick else [16, 64, 128, 256, 512]
    quotient_ns = [8, 16, 32] if quick else [8, 16, 32, 48, 64]
    rows = []

    for n in view_ns:
        graph = with_uniform_input(cycle_graph(n))
        samples = max(repeats, GUARD_SAMPLES) if n == GUARD_N else repeats
        cold = _time(lambda: all_views(graph, n), samples, cold=True)
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
        # Incremental deepening: extend a depth-(n//2) builder to depth
        # n, versus the cold full build measured above.
        graph = with_uniform_input(cycle_graph(n))
        clear_caches()
        builder = ViewBuilder(graph)
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
        # and algorithm calls, with a live floor); 21 = ``cold_start``
        # section (fresh-interpreter import of the pipeline entry vs the
        # registry entry, each side's ``repro`` module count, with a live
        # floor on the ratio); 22 = a lexicographic ``search`` row on the
        # K4 quotient (2-hop coloring) against the per-trial continuation
        # (same checks as schema 20, with a live floor); 23 = ``derivation``
        # section (``with_uniform_input`` vs a rebuild from scratch, same
        # structure key and CSR tables asserted, with a live floor), the
        # ``dynamic`` rows alternate their sides through ``_versus_row``
        # (``current``/``reference`` instead of ``incremental``/
        # ``from_scratch``, equal views asserted), and the guard case
        # takes the best of GUARD_SAMPLES cold samples.
        "schema": 23,
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
        "derivation": run_derivation_benches(repeats),
        "reconstruct": run_reconstruct_benches(repeats),
        "search": run_search_benches(repeats),
        "factors": run_factor_benches(repeats),
        "candidates": run_candidate_benches(repeats),
        "deepening": run_deepening_benches(repeats),
        "cold_start": run_cold_start_benches(repeats),
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


def _bench_case(row: dict) -> str:
    return row["bench"]


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
        (("current", "incremental"), ("reference", "rebuild")),
        "incremental maintenance beats a rebuild",
        "INCREMENTAL MAINTENANCE SPEEDUP FLOOR VIOLATION:",
    ),
    "derivation": (
        DERIVATION_SPEEDUP_FLOORS,
        _sized_case,
        "graph derivation vs a rebuild from scratch",
        (("current", "current"), ("reference", "reference")),
        "derivation beats a rebuild",
        "GRAPH DERIVATION SPEEDUP FLOOR VIOLATION:",
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
        "assignment search vs replaying every trial",
        (("current", "current"), ("reference", "reference")),
        "the search beats replaying every trial",
        "ASSIGNMENT SEARCH SPEEDUP FLOOR VIOLATION:",
    ),
    "factors": (
        FACTORS_SPEEDUP_FLOORS,
        _sized_case,
        "factor enumeration vs the unpruned enumeration",
        (("current", "current"), ("reference", "reference")),
        "factor enumeration beats the unpruned one",
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
    "cold_start": (
        COLD_START_SPEEDUP_FLOORS,
        _bench_case,
        "fresh-interpreter import: pipeline entry vs registry entry",
        (("pipeline", "pipeline"), ("registry", "registry")),
        "the pipeline entry starts faster than the registry entry",
        "COLD START SPEEDUP FLOOR VIOLATION:",
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
        scratch = row["reference"]["best_s"] * 1e3
        incremental = row["current"]["best_s"] * 1e3
        print(
            f"{_dynamic_case(row):<26}     {scratch:11.4f}ms{incremental:11.4f}ms"
            f"   speedup={row['speedup']:.2f}x"
        )
    sections = ("derivation", "reconstruct", "search", "factors", "candidates", "deepening")
    for section_name in sections:
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
    for row in payload.get("cold_start", {}).get("rows", []):
        registry, pipeline = row["registry"], row["pipeline"]
        print(
            f"{row['bench']:<26}     {registry['best_s'] * 1e3:11.4f}ms"
            f"{pipeline['best_s'] * 1e3:11.4f}ms   speedup={row['speedup']:.2f}x"
            f"   modules={registry['modules']}/{pipeline['modules']}"
        )


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
