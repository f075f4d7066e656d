"""Why leader election is *not* rescued by 2-hop colorings.

The paper restricts Theorem 1 to GRAN, explicitly ruling out problems
like leader election.  This example makes the boundary tangible:

1. On a *prime* 2-hop colored instance, views are unique aliases
   (Lemma 4) and a deterministic anonymous algorithm can elect the node
   with the minimal view.
2. On a *non-prime* instance (a lifted cycle), whole fibers share their
   views; we exhibit the lifted execution in which all fiber members
   behave identically — no algorithm, even a randomized Las-Vegas one,
   can guarantee a unique leader.

Run:  python examples/leader_election_impossibility.py
"""

from __future__ import annotations

from repro import cycle_graph, path_graph, with_uniform_input
from repro.analysis.symmetry import (
    election_is_deterministically_impossible,
    view_class_profile,
)
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.lifting import verify_execution_lifting
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift
from repro.runtime.engine import execute
from repro.views.local_views import all_views


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def elect_by_minimal_view(graph):
    """Deterministic anonymous election on a prime instance: leader =
    the node whose depth-n view is the minimum in the canonical order."""
    views = all_views(graph, graph.num_nodes)
    minimum = min(views.values(), key=lambda t: t.sort_key())
    return {v: views[v] is minimum for v in graph.nodes}


def main() -> None:
    # Case 1: a prime 2-hop colored instance — election works.
    prime_instance = colored(with_uniform_input(path_graph(5)))
    profile = view_class_profile(prime_instance)
    print(
        f"prime instance (colored P5): {profile.num_classes} view classes "
        f"for {profile.num_nodes} nodes"
    )
    leaders = elect_by_minimal_view(prime_instance)
    elected = [v for v, is_leader in leaders.items() if is_leader]
    print(f"  deterministic election by minimal view alias: leader = {elected}")
    assert len(elected) == 1

    # Case 2: a lifted (non-prime) instance — election impossible.
    base = colored(with_uniform_input(cycle_graph(3)))
    lift, projection = cyclic_lift(base, 4)  # colored C12, quotient C3
    profile = view_class_profile(lift)
    print(
        f"\nnon-prime instance (colored C12 over C3): "
        f"{profile.num_classes} view classes for {profile.num_nodes} nodes "
        f"(classes of size {profile.class_sizes})"
    )
    print(
        "  deterministic election impossible:",
        election_is_deterministically_impossible(lift),
    )

    # Even randomized Las-Vegas election fails: lift an execution from
    # the quotient — it occurs with positive probability on C12, and in
    # it every fiber of 4 nodes acts in lockstep.
    fm = FactorizingMap(
        lift.with_only_layers(["input"]),
        base.with_only_layers(["input"]),
        projection,
    )
    algorithm = AnonymousMISAlgorithm()
    factor_run = execute(algorithm, fm.factor, seed=5, require_decided=True)
    comparison = verify_execution_lifting(algorithm, fm, factor_run.trace.assignment())
    assert comparison.lemma_holds
    print(
        "\n  lifted execution: per-fiber outputs "
        + str(
            {
                target: sorted(
                    {comparison.product_result.outputs[v] for v in fm.fiber(target)}
                )
                for target in fm.factor.nodes
            }
        )
    )
    print(
        "  every fiber of 4 nodes is indistinguishable -> any 'leader' "
        "would be elected 4 times.  Leader election is the paper's 'mock "
        "case' excluded from GRAN."
    )


if __name__ == "__main__":
    main()
