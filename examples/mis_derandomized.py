"""Deep dive: derandomizing MIS three different ways.

Solves MIS on the same 2-hop colored instance with every solver in the
library and compares them:

* **A_*** — the paper's Figure 3 algorithm, run faithfully (candidate
  enumeration and all);
* **A_∞ / practical** — the Theorem 2 construction on the finite view
  graph, with the smallest-successful-assignment rule;
* **greedy-by-color** — the direct deterministic baseline that skips the
  generic machinery.

All three are deterministic given the colored instance and all three
outputs are valid — but they are *different* MIS's computed at wildly
different costs, which is exactly the trade-off DESIGN.md's ablation
section talks about.

Run:  python examples/mis_derandomized.py
"""

from __future__ import annotations

import time

from repro import MISProblem, cycle_graph, with_uniform_input
from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.core.a_star import AStarSolver
from repro.core.infinity import AInfinitySolver
from repro.core.practical import PracticalDerandomizer
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.lifts import cyclic_lift
from repro.runtime.engine import execute


def main() -> None:
    # A colored C6 that covers a colored C3: the quotient has 3 nodes,
    # which keeps even the faithful A_* comfortable.
    base = with_uniform_input(cycle_graph(3))
    base = apply_two_hop_coloring(base, greedy_two_hop_coloring(base))
    instance, _ = cyclic_lift(base, 2)
    plain = instance.with_only_layers(["input"])
    problem = MISProblem()
    print(f"instance: colored C6 covering colored C3 ({instance.num_nodes} nodes)")

    # 1. Faithful A_* (Figure 3).
    solver = AStarSolver(problem, AnonymousMISAlgorithm(), max_candidate_nodes=3)
    start = time.perf_counter()
    a_star_outputs, diagnostics = solver.solve(instance, max_phases=16)
    a_star_ms = (time.perf_counter() - start) * 1000
    assert problem.is_valid_output(plain, a_star_outputs)
    print(
        f"\nA_* (faithful Figure 3): {diagnostics.phases} phases, "
        f"{diagnostics.message_rounds} gather rounds, "
        f"{diagnostics.candidates_enumerated} candidates, {a_star_ms:.1f} ms"
    )
    print(f"  outputs: {a_star_outputs}")

    # 2. A_infinity / practical derandomizer (Theorem 2 route).
    start = time.perf_counter()
    infinity_result = AInfinitySolver(problem, AnonymousMISAlgorithm()).solve(instance)
    infinity_ms = (time.perf_counter() - start) * 1000
    assert problem.is_valid_output(plain, infinity_result.outputs)
    print(
        f"\nA_infinity (Theorem 2): quotient "
        f"{infinity_result.quotient.graph.num_nodes} nodes, selected "
        f"assignment {infinity_result.assignment}, {infinity_ms:.1f} ms"
    )
    print(f"  outputs: {infinity_result.outputs}")

    practical = PracticalDerandomizer(problem, AnonymousMISAlgorithm()).solve(instance)
    print(
        "  practical derandomizer agrees with A_infinity:",
        practical.outputs == infinity_result.outputs,
    )

    # 3. Greedy-by-color baseline.
    start = time.perf_counter()
    greedy = execute(GreedyMISByColor(), instance, require_decided=True)
    greedy_ms = (time.perf_counter() - start) * 1000
    assert problem.is_valid_output(plain, greedy.outputs)
    print(f"\ngreedy-by-color baseline: {greedy.rounds} rounds, {greedy_ms:.2f} ms")
    print(f"  outputs: {greedy.outputs}")

    print(
        "\nall three deterministic solvers valid; sizes: "
        f"A_*={sum(a_star_outputs.values())}, "
        f"A_inf={sum(infinity_result.outputs.values())}, "
        f"greedy={sum(greedy.outputs.values())}"
    )


if __name__ == "__main__":
    main()
