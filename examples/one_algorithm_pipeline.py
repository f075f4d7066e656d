"""The decoupling, recomposed: one anonymous algorithm end to end.

`derandomize_pipeline` orchestrates the two stages centrally (run the
coloring, collect it, hand it to the deterministic solver).  But the
paper's claim is about *anonymous algorithms*, so the repository also
provides :class:`~repro.runtime.composition.TwoStageComposition`: the
two stages fused into a single anonymous algorithm, with an embedded
synchronizer that handles nodes finishing stage 1 at different times.
No central orchestration — every node just runs the one composed state
machine.

Run:  python examples/one_algorithm_pipeline.py
"""

from __future__ import annotations

from repro import (
    MISProblem,
    TwoHopColoringAlgorithm,
    execute,
    petersen_graph,
    with_uniform_input,
)
from repro.algorithms.greedy_by_color import GreedyMISByColor
from repro.analysis.render import render_output_timeline
from repro.runtime.composition import TwoStageComposition


def main() -> None:
    graph = with_uniform_input(petersen_graph())
    composed = TwoStageComposition(
        stage1=TwoHopColoringAlgorithm(),
        stage2=GreedyMISByColor(),
        make_stage2_input=lambda original, degree, color: (original[0], color),
    )
    print(f"running {composed.name!r} on the Petersen graph\n")

    result = execute(composed, graph, seed=4, require_decided=True)
    problem = MISProblem()
    assert problem.is_valid_output(graph, result.outputs)

    in_mis = sorted(v for v, value in result.outputs.items() if value)
    print(f"finished in {result.rounds} rounds; MIS = {in_mis} "
          f"(validated: {problem.is_valid_output(graph, result.outputs)})\n")
    print(render_output_timeline(result.trace))
    print(
        "\nNodes decide at different rounds — the embedded synchronizer "
        "bridged the staggered hand-off from the randomized coloring "
        "stage to the deterministic MIS stage."
    )


if __name__ == "__main__":
    main()
