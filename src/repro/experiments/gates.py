"""The differential gates: ``python -m repro.experiments.gates [--out DIR]``.

Every gate runs a baseline and a variant that must produce the same
canonical bytes, and reports the first byte where they differ.  Wired
into CI as ``make smoke``; exits 0 when every gate holds, 1 otherwise.

* **faults** — the full registry under an ambient empty
  :class:`~repro.faults.plan.FaultPlan` (every delivery and tape
  wrapped) is byte-identical to the bare run and injects zero events;
  the ``resilience`` family, whose experiments run fixed nonzero plans,
  replays byte-identically twice serially and at ``jobs=4``.
* **churn** — the same two checks for an empty
  :class:`~repro.dynamic.delta.ChurnPlan` (zero deltas applied) and the
  ``dynamic`` family.  Both share one bare full-registry run.
* **hashseed** — the dynamic twin of the FLOW002 proof (docs/LINT.md):
  :func:`emit_manifest` digests the views/refinement/quotient/artifact
  key/dynamic replay surfaces in child interpreters under
  ``PYTHONHASHSEED`` 0, 0 and 4217.  The rerun separates plain
  nondeterminism from a hash-order leak.
* **artifacts** — the registry-wide query mix is computed directly,
  then fetched cold (fresh store: one compute per distinct key) and warm
  (reopened store, cleared memory: zero computes) through
  :meth:`~repro.artifacts.store.ArtifactStore.fetch`.  All three payload
  files land in ``DIR`` for CI's ``cmp``, the store at
  ``DIR/ARTIFACTS_store.jsonl``.

A fanned (``jobs=4``) run that silently fell back to serial would
compare serial to serial, so it fails its gate and names the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro.artifacts.keys import artifact_key
from repro.artifacts.producers import compute_payload
from repro.artifacts.specs import quotient_spec, refinement_spec, views_spec
from repro.artifacts.store import ArtifactStore
from repro.dynamic.context import apply_churn
from repro.dynamic.delta import ChurnPlan
from repro.experiments.base import all_experiment_ids, get_spec
from repro.experiments.runner import (
    RunReport,
    canonical_results,
    derive_seed,
    results_payload,
    run_experiments,
)
from repro.faults.context import inject_faults
from repro.faults.plan import FaultPlan
from repro.views.view_tree import clear_caches

__all__ = [
    "build_query_mix",
    "check_artifacts",
    "check_churn",
    "check_faults",
    "check_hashseed",
    "emit_manifest",
    "first_divergence",
    "main",
    "registry_bytes",
]

FANNED_JOBS = 4

#: 0 twice pins run-to-run determinism; 0 vs 4217 is the hash-order check.
HASH_SEEDS = ("0", "0", "4217")

_VIEW_DEPTH = 3

# The artifacts query mix: each experiment id picks one family instance
# from this pool (seed-derived, position-independent).
_MIX_SIZES = (4, 6, 8)
_MIX_SEED = 7
_MIX_VIEW_DEPTH_CAP = 6


def _report_bytes(report: RunReport) -> str:
    return json.dumps(canonical_results(results_payload(report)), sort_keys=True)


def registry_bytes(ids: list[str]) -> str:
    """Canonical result bytes of a serial run of the experiments ``ids``."""
    return _report_bytes(run_experiments(ids))


def first_divergence(a: str, b: str) -> str:
    """A short context window around the first differing byte."""
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            lo = max(0, i - 60)
            return f"at byte {i}: ...{a[lo : i + 60]!r} vs ...{b[lo : i + 60]!r}"
    return f"lengths differ: {len(a)} vs {len(b)}"


def _diff(label: str, a: str, b: str) -> list[str]:
    return [] if a == b else [f"{label} diverge ({first_divergence(a, b)})"]


def _replay(family: str, ids: list[str]) -> list[str]:
    """The family's canonical bytes: serial twice, then fanned."""
    members = [eid for eid in ids if get_spec(eid).family == family]
    print(f"[gates] {family} replay over {members} ...")
    serial = registry_bytes(members)
    failures = _diff(f"{family} replay: consecutive serial runs", serial, registry_bytes(members))
    fanned = run_experiments(members, jobs=FANNED_JOBS)
    if len(members) > 1 and fanned.mode != "parallel":
        # Serial-vs-serial bytes would make the comparison vacuous (a
        # family with fewer than two members has nothing to fan out).
        why = f" ({fanned.fallback_reason})" if fanned.fallback_reason else ""
        return failures + [f"{family} replay: jobs={FANNED_JOBS} run fell back to serial{why}"]
    label = f"{family} replay: jobs=1 vs jobs={FANNED_JOBS}"
    return failures + _diff(label, serial, _report_bytes(fanned))


def _empty_plan(plan: str, bare: str, variant: str, events: int, detail: str = "") -> list[str]:
    failures = _diff(f"bare vs empty {plan}", bare, variant)
    if events:
        failures.append(f"empty {plan} applied {events} events{detail}")
    return failures


def check_faults(bare: str, ids: list[str]) -> list[str]:
    """Zero-fault identity against ``bare``, then resilience replay."""
    print(f"[gates] zero-fault identity over {len(ids)} experiments ...")
    with inject_faults(FaultPlan()) as injection:
        wrapped = registry_bytes(ids)
    counts = f" {injection.trace.counts()}"
    failures = _empty_plan("FaultPlan", bare, wrapped, len(injection.trace), counts)
    return failures + _replay("resilience", ids)


def check_churn(bare: str, ids: list[str]) -> list[str]:
    """Zero-churn identity against ``bare``, then dynamic replay."""
    print(f"[gates] zero-churn identity over {len(ids)} experiments ...")
    with apply_churn(ChurnPlan()) as churn:
        hooked = registry_bytes(ids)
    return _empty_plan("ChurnPlan", bare, hooked, churn.deltas_applied) + _replay("dynamic", ids)


# -- hash-seed independence ---------------------------------------------


def _portfolio() -> list[tuple[str, Any]]:
    """Symmetric (cycle, torus, circulant), asymmetric (caterpillar) and
    sampled-but-seeded (random regular) shapes."""
    from repro.graphs.builders import (
        caterpillar_graph,
        circulant_graph,
        cycle_graph,
        petersen_graph,
        random_regular_graph,
        torus_graph,
        with_uniform_input,
    )

    return [
        ("cycle-6", with_uniform_input(cycle_graph(6))),
        ("torus-3x4", with_uniform_input(torus_graph(3, 4))),
        ("circulant-9-12", with_uniform_input(circulant_graph(9, (1, 2)))),
        ("petersen", with_uniform_input(petersen_graph())),
        ("caterpillar-4x2", with_uniform_input(caterpillar_graph(4, 2))),
        ("random-regular-10-3", with_uniform_input(random_regular_graph(10, 3, seed=7))),
    ]


def _quotient_portfolio() -> list[tuple[str, Any]]:
    """2-hop-colored instances whose view quotient is simple."""
    from repro.graphs.builders import caterpillar_graph, cycle_graph, with_uniform_input
    from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
    from repro.graphs.lifts import cyclic_lift

    def colored(graph: Any) -> Any:
        return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))

    lift, _ = cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 4)
    return [
        ("colored-cycle-6", colored(with_uniform_input(cycle_graph(6)))),
        ("colored-caterpillar-4x2", colored(with_uniform_input(caterpillar_graph(4, 2)))),
        ("lifted-colored-cycle-3x4", lift),
    ]


def emit_manifest() -> dict[str, str]:
    """Run the canonical pipelines and digest every byte surface."""
    from repro.artifacts.encoders import (
        encode_dynamic_views,
        encode_quotient,
        encode_refinement,
        encode_views,
    )
    from repro.artifacts.specs import dynamic_views_spec
    from repro.dynamic.delta import add_edge, relabel, remove_edge
    from repro.dynamic.maintain import replay_views
    from repro.factor.quotient import infinite_view_graph
    from repro.views.local_views import all_views
    from repro.views.refinement import color_refinement

    def digest(payload: bytes) -> str:
        return hashlib.sha256(payload).hexdigest()

    manifest: dict[str, str] = {}
    for name, graph in _portfolio():
        views = all_views(graph, _VIEW_DEPTH)
        manifest[f"{name}/views"] = digest(encode_views(views))
        manifest[f"{name}/refinement"] = digest(encode_refinement(color_refinement(graph)))
        # Keys are addresses: a hash-order leak in spec canonicalization
        # would silently rotate every cache entry, so pin them too.
        manifest[f"{name}/key/views"] = artifact_key(views_spec(graph, _VIEW_DEPTH))
        manifest[f"{name}/key/refinement"] = artifact_key(refinement_spec(graph))

    # Quotients require 2-hop-colored input (Lemma 2); the lift of a
    # colored cycle is the paper's Figure 2 tower, whose quotient
    # recovers the base — a nontrivial fibration to canonicalize.
    for name, graph in _quotient_portfolio():
        manifest[f"{name}/quotient"] = digest(
            encode_quotient(infinite_view_graph(graph, with_views=True))
        )
        manifest[f"{name}/key/quotient"] = artifact_key(quotient_spec(graph, with_views=True))

    base = _portfolio()[0][1]
    deltas = [add_edge(0, 3), relabel(1, "input", (2, 99)), add_edge(1, 4), remove_edge(0, 1)]
    manifest["dynamic/replayed-views"] = digest(
        encode_dynamic_views(replay_views(base, deltas, _VIEW_DEPTH))
    )
    manifest["dynamic/key"] = artifact_key(dynamic_views_spec(base, deltas, _VIEW_DEPTH))
    return manifest


_EMIT = (
    "import json; from repro.experiments.gates import emit_manifest; "
    "print(json.dumps(emit_manifest(), indent=2, sort_keys=True))"
)


def check_hashseed() -> list[str]:
    """The manifest from child interpreters under each of HASH_SEEDS."""
    print(f"[gates] canonical manifests under PYTHONHASHSEED {HASH_SEEDS} ...")
    outputs = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _EMIT], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return [f"emit child (PYTHONHASHSEED={seed}) failed:\n{proc.stderr}"]
        outputs.append(proc.stdout)
    first, rerun, other = outputs
    seed, other_seed = HASH_SEEDS[0], HASH_SEEDS[2]
    failures = _diff(f"reruns under PYTHONHASHSEED={seed} (plain nondeterminism)", first, rerun)
    failures += _diff(f"PYTHONHASHSEED={seed} vs {other_seed} (hash-order leak)", first, other)
    return failures


# -- cold/warm artifact fetches -----------------------------------------


def build_query_mix(ids: list[str]) -> list[dict[str, Any]]:
    """Three queries (refinement, views, quotient) per experiment id, on
    a 2-hop colored family instance chosen per id — the registry's full
    breadth without its full cost."""
    from repro.analysis.sweeps import standard_family_specs
    from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring

    pool = standard_family_specs(sizes=_MIX_SIZES, include_random=True, seed=_MIX_SEED)
    queries: list[dict[str, Any]] = []
    for experiment_id in ids:
        graph = pool[derive_seed(experiment_id) % len(pool)].build()
        graph = apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))
        queries.append(refinement_spec(graph))
        queries.append(views_spec(graph, min(graph.num_nodes, _MIX_VIEW_DEPTH_CAP)))
        queries.append(quotient_spec(graph, with_views=False))
    return queries


def _write_payloads(path: Path, queries: list[dict[str, Any]], payloads: list[bytes]) -> None:
    """One canonical JSON file per mode, ``cmp``-able across modes
    because entries are (key, payload) in request order."""
    entries = [
        {"key": artifact_key(spec), "kind": spec["kind"], "payload": payload.decode("utf-8")}
        for spec, payload in zip(queries, payloads)
    ]
    text = json.dumps({"format": 1, "queries": entries}, sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")


def _fetch_all(store_file: Path, queries: list[dict[str, Any]]) -> tuple[list[bytes], int]:
    """Fetch every query from a cleared memory tier; returns the
    payloads and how many of them were computed."""
    clear_caches()
    with ArtifactStore(store_file) as store:
        return [store.fetch(spec) for spec in queries], store.stores


def check_artifacts(out_dir: Path, queries: list[dict[str, Any]]) -> list[str]:
    """Direct vs cold vs warm payloads; prints the summary line CI greps."""
    out_dir.mkdir(parents=True, exist_ok=True)
    store_file = out_dir / "ARTIFACTS_store.jsonl"
    store_file.unlink(missing_ok=True)
    clear_caches()
    direct = [compute_payload(spec) for spec in queries]
    cold, cold_computes = _fetch_all(store_file, queries)
    warm, warm_computes = _fetch_all(store_file, queries)
    for mode, payloads in (("direct", direct), ("cold", cold), ("warm", warm)):
        _write_payloads(out_dir / f"ARTIFACTS_{mode}.json", queries, payloads)

    failures = [
        f"{mode} payloads diverge from direct computation"
        for mode, payloads in (("cold", cold), ("warm", warm))
        if payloads != direct
    ]
    distinct = len({artifact_key(spec) for spec in queries})
    if cold_computes != distinct:
        failures.append(
            f"cold run computed {cold_computes}, expected one per distinct key ({distinct})"
        )
    warm_hits = len(queries) - warm_computes
    if warm_computes:
        failures.append(f"warm run hit {warm_hits}/{len(queries)} with {warm_computes} computes")
    print(
        f"artifacts-smoke {'FAILED' if failures else 'ok'}: "
        f"queries={len(queries)} distinct={distinct} cold_computes={cold_computes} "
        f"warm_hits={warm_hits} warm_computes={warm_computes} store={store_file}"
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.gates",
        description="Run the faults, churn, hashseed and artifacts differential gates.",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/out",
        help="directory for the artifact payload files and ARTIFACTS_store.jsonl",
    )
    args = parser.parse_args(argv)

    ids = all_experiment_ids()
    print(f"[gates] bare registry over {len(ids)} experiments ...")
    bare = registry_bytes(ids)
    verdicts = {
        "faults": check_faults(bare, ids),
        "churn": check_churn(bare, ids),
        "hashseed": check_hashseed(),
        "artifacts": check_artifacts(Path(args.out), build_query_mix(ids)),
    }
    for gate, failures in verdicts.items():
        for failure in failures:
            print(f"[gates] {gate} FAILED: {failure}", file=sys.stderr)
        if not failures:
            print(f"[gates] {gate} ok")
    return 1 if any(verdicts.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
