"""The end-to-end pipeline of the paper's headline result.

"The execution of every randomized anonymous algorithm can be decoupled
into a generic preprocessing randomized stage that computes a 2-hop
coloring, followed by a problem-specific deterministic stage."

:func:`derandomize_pipeline` is that sentence as code:

1. **Randomized stage** (problem-independent): run the anonymous
   randomized 2-hop coloring algorithm; attach its output as the
   ``color`` layer.
2. **Deterministic stage** (problem-specific): solve Π^c with the
   derandomizer (practical by default; the faithful A_* can be swapped
   in for small instances).
3. Validate the final outputs against the problem definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ProblemError
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.graphs.coloring import apply_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.gran import GranBundle
from repro.runtime.engine import execute
from repro.core.practical import DerandomizationResult, PracticalDerandomizer


@dataclass
class PipelineResult:
    """Outcome and accounting of the two-stage pipeline."""

    outputs: dict[Node, Any]
    coloring: dict[Node, str]
    stage1_rounds: int
    stage1_bits: int
    stage2: DerandomizationResult

    @property
    def quotient_size(self) -> int:
        return self.stage2.quotient.graph.num_nodes


def derandomize_pipeline(
    bundle: GranBundle,
    instance: LabeledGraph,
    seed: int,
    max_rounds: int = 10_000,
    strategy: str = "lexicographic",
    search_budget: int = 1_000_000,
    max_assignment_length: int = 64,
) -> PipelineResult:
    """Solve a Π instance by 2-hop-coloring preprocessing + deterministic
    derandomization (Theorem 1's decoupling).

    ``seed`` drives only stage 1 — the single place randomness enters.
    The returned outputs are validated against ``bundle.problem``; an
    invalid labeling raises :class:`ProblemError` (it would falsify the
    theorem, so it indicates a bug).
    """
    if not bundle.problem.is_instance(instance):
        raise ProblemError(
            f"{instance!r} is not an instance of {bundle.problem.name}"
        )

    # Stage 1: the generic randomized preprocessing.  Only its coloring
    # and round count are kept, so it records no trace.
    coloring_run = execute(
        TwoHopColoringAlgorithm(),
        instance,
        seed=seed,
        max_rounds=max_rounds,
        record_trace=False,
        require_decided=True,
    )
    coloring = coloring_run.outputs
    colored = apply_two_hop_coloring(instance, coloring)

    # Stage 2: the problem-specific deterministic stage.
    solver = PracticalDerandomizer(
        bundle.problem,
        bundle.solver,
        strategy=strategy,
        search_budget=search_budget,
        max_assignment_length=max_assignment_length,
    )
    stage2 = solver.solve(colored)

    if not bundle.problem.is_valid_output(instance, stage2.outputs):
        raise ProblemError(
            f"pipeline produced an invalid {bundle.problem.name} output: "
            f"{stage2.outputs!r}"
        )

    stage1_bits = instance.num_nodes * coloring_run.rounds
    return PipelineResult(
        outputs=stage2.outputs,
        coloring=dict(coloring),
        stage1_rounds=coloring_run.rounds,
        stage1_bits=stage1_bits,
        stage2=stage2,
    )
