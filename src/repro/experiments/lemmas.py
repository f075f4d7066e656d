"""Experiments L2-L4 and LIFT: the lemmas and the lifting engine."""

from __future__ import annotations

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.analysis.sweeps import SweepRow
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments._shared import lifted_colored_c3
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.lifting import verify_execution_lifting
from repro.factor.prime import is_prime, prime_factors
from repro.factor.quotient import infinite_view_graph
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime.engine import execute
from repro.views.local_views import all_views


def _is_factorizing(product: LabeledGraph, factor: LabeledGraph, mapping: dict) -> bool:
    """Whether ``mapping`` is a factorizing map from ``product`` onto
    ``factor``, checked from scratch: onto, label-preserving, and a
    bijection from each neighbourhood onto its image's neighbourhood."""
    if set(mapping.values()) != set(factor.nodes):
        return False
    if product.layer_names != factor.layer_names:
        return False
    for v in product.nodes:
        image = mapping[v]
        if any(
            product.label_of(v, name) != factor.label_of(image, name)
            for name in product.layer_names
        ):
            return False
        targets = [mapping[u] for u in product.neighbors(v)]
        if len(set(targets)) != len(targets) or set(targets) != set(factor.neighbors(image)):
            return False
    return True


@experiment("lemma2", cost=1.5)
def lemma2() -> ExperimentResult:
    """Lemma 2: G_infinity is a factor of every 2-hop colored G."""
    rows, checks = [], {}
    for fiber in (1, 2, 3, 4):
        _base, lift, _proj = lifted_colored_c3(fiber)
        quotient = infinite_view_graph(lift)
        checks[f"factor verified (x{fiber})"] = _is_factorizing(
            lift, quotient.graph, quotient.map.as_dict()
        )
        checks[f"multiplicity x{fiber}"] = quotient.map.multiplicity == fiber
        rows.append(
            SweepRow(
                f"C3-lift x{fiber}",
                {
                    "|V|": lift.num_nodes,
                    "|V_inf|": quotient.graph.num_nodes,
                    "m": quotient.map.multiplicity,
                },
            )
        )
    return ExperimentResult(
        experiment_id="lemma2",
        title="Lemma 2 — G_infinity ⪯ G for 2-hop colored lifts of C3",
        columns=["|V|", "|V_inf|", "m"],
        rows=rows,
        checks=checks,
    )


@experiment("lemma3", cost=6.0)
def lemma3() -> ExperimentResult:
    """Lemma 3 + counterexample: prime factor unique iff 2-hop colored."""
    _base, lift, _proj = lifted_colored_c3(4)
    colored_primes = prime_factors(lift)
    quotient = infinite_view_graph(lift)
    uncolored_primes = prime_factors(with_uniform_input(cycle_graph(12)))
    checks = {
        "colored C12 has one prime factor": len(colored_primes) == 1,
        "it is the view quotient": are_isomorphic(colored_primes[0], quotient.graph),
        "uncolored C12 has two prime factors (C3, C4)": sorted(
            p.num_nodes for p in uncolored_primes
        )
        == [3, 4],
    }
    rows = [
        SweepRow(
            "colored C12",
            {"prime factors": len(colored_primes), "sizes": [p.num_nodes for p in colored_primes]},
        ),
        SweepRow(
            "uncolored C12",
            {
                "prime factors": len(uncolored_primes),
                "sizes": sorted(p.num_nodes for p in uncolored_primes),
            },
        ),
    ]
    return ExperimentResult(
        experiment_id="lemma3",
        title=(
            "Lemma 3 — the prime factor of a 2-hop colored graph is unique; "
            "uniqueness fails for the uncolored C12"
        ),
        columns=["prime factors", "sizes"],
        rows=rows,
        checks=checks,
    )


@experiment("lemma4", cost=0.5)
def lemma4() -> ExperimentResult:
    """Lemma 4 / Corollary 1: views alias nodes in prime colored graphs."""
    base, _lift, _proj = lifted_colored_c3(1)
    views = all_views(base, base.num_nodes)
    distinct = len({id(t) for t in views.values()})
    checks = {
        "base is prime": is_prime(base),
        "depth-n views pairwise distinct": distinct == base.num_nodes,
    }
    rows = [
        SweepRow("colored C3", {"n": base.num_nodes, "distinct views": distinct})
    ]
    return ExperimentResult(
        experiment_id="lemma4",
        title=(
            "Lemma 4 — depth-n views of a prime 2-hop colored graph are "
            "pairwise distinct aliases"
        ),
        columns=["n", "distinct views"],
        rows=rows,
        checks=checks,
    )


@experiment("lifting", cost=2.5)
def lifting() -> ExperimentResult:
    """The lifting lemma: factor executions lift message-for-message."""
    algorithms = {
        "two-hop-coloring": TwoHopColoringAlgorithm(),
        "mis": AnonymousMISAlgorithm(),
        "coloring": VertexColoringAlgorithm(),
    }
    rows, checks = [], {}
    for algorithm_name, algorithm in algorithms.items():
        for fiber in (2, 4):
            base, lift, projection = lifted_colored_c3(fiber)
            fm = FactorizingMap(
                lift.with_only_layers(["input"]),
                base.with_only_layers(["input"]),
                projection,
            )
            factor_run = execute(algorithm, fm.factor, seed=17, require_decided=True)
            comparison = verify_execution_lifting(
                algorithm, fm, factor_run.trace.assignment()
            )
            checks[f"{algorithm_name} x{fiber}"] = comparison.lemma_holds
            rows.append(
                SweepRow(
                    f"{algorithm_name} x{fiber}",
                    {
                        "factor rounds": comparison.factor_result.rounds,
                        "product rounds": comparison.product_result.rounds,
                        "messages match": comparison.messages_match,
                        "outputs match": comparison.outputs_match,
                    },
                )
            )
    return ExperimentResult(
        experiment_id="lifting",
        title=(
            "Lifting lemma — per-fiber identical messages and outputs when "
            "a factor execution is lifted to the product"
        ),
        columns=["factor rounds", "product rounds", "messages match", "outputs match"],
        rows=rows,
        checks=checks,
    )
