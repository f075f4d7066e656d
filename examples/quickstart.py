"""Quickstart: the paper's headline result in ten lines of library use.

"Randomization = 2-hop coloring": solving MIS in an anonymous network by
(1) a generic randomized 2-hop coloring stage and (2) a deterministic
problem-specific stage, with every intermediate object inspectable.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AnonymousMISAlgorithm,
    GranBundle,
    MISProblem,
    WellFormedInputDecider,
    cycle_graph,
    derandomize_pipeline,
    execute,
    with_uniform_input,
)


def main() -> None:
    # An anonymous 8-cycle: all nodes identical, no IDs — the classic
    # setting where deterministic algorithms are powerless.
    graph = with_uniform_input(cycle_graph(8))
    print(f"instance: {graph}")

    # MIS is in GRAN: a randomized anonymous solver plus a decider.
    bundle = GranBundle(
        problem=MISProblem(),
        solver=AnonymousMISAlgorithm(),
        decider=WellFormedInputDecider(),
    )

    # For comparison: the purely randomized solve.
    randomized = execute(bundle.solver, graph, seed=42, require_decided=True)
    print(f"\nrandomized MIS ({randomized.rounds} rounds):")
    print(f"  {randomized.outputs}")

    # The paper's decoupling: randomness only for the 2-hop coloring,
    # then a deterministic stage.
    result = derandomize_pipeline(bundle, graph, seed=42, strategy="prg")
    print(f"\npipeline stage 1 (randomized 2-hop coloring, "
          f"{result.stage1_rounds} rounds):")
    print(f"  {result.coloring}")
    print(f"\npipeline stage 2 (deterministic on the quotient of "
          f"{result.quotient_size} view classes):")
    print(f"  selected simulation: {result.stage2.assignment}")
    print(f"  outputs: {result.outputs}")

    in_mis = sorted(v for v, value in result.outputs.items() if value)
    print(f"\nMIS found deterministically from the coloring: {in_mis}")
    print("validated:", bundle.problem.is_valid_output(graph, result.outputs))

    # The same coloring, reused for a *different* problem — the coloring
    # stage is generic (that is the theorem's point).
    from repro import ColoringProblem, VertexColoringAlgorithm

    coloring_bundle = GranBundle(
        ColoringProblem(), VertexColoringAlgorithm(), WellFormedInputDecider()
    )
    second = derandomize_pipeline(coloring_bundle, graph, seed=42, strategy="prg")
    print(f"\nsame stage-1 coloring reused for proper coloring: "
          f"{second.outputs}")


if __name__ == "__main__":
    main()
