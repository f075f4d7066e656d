"""A_* — the deterministic algorithm of Figure 3, faithfully.

Phases ``p = 1, 2, ...``; in phase ``p`` every node ``v`` runs, *using
only its own view* ``L_p(v, I^p)``:

* **Update-Graph** — enumerate the candidates for phase ``p``, pick the
  smallest finite view graph ``Ĝ_*`` in the set F, and locate its own
  alias ``v̊`` in it;
* **Update-Output** — simulate ``A_R`` on ``(V̂_*, Ê_*, î_*)`` induced by
  the recorded bit labeling ``b̂_*``; on success adopt ``v̊``'s output;
* **Update-Bits** — find the smallest successful ``p``-extension of
  ``b̂_*`` and adopt ``v̊``'s bits as the node's label for phase ``p+1``.

The implementation runs at the *view level*: each phase computes the
views of ``I^p`` (input + color + current bits labeling) and evaluates
the three sub-procedures once per **distinct** view — nodes with equal
views provably compute identical results, so this changes nothing while
making the phase cost proportional to the quotient size.  A
message-passing realization would spend ``p`` rounds of flooding per
phase to gather ``L_p``; the diagnostics account those rounds.

Faithfulness caveats (see DESIGN.md): candidate enumeration is capped at
``max_candidate_nodes`` (sound — Lemma 7/9, cap must be ``>= n``), and
C3 is checked with the problem's ground-truth ``is_instance`` rather
than by simulating the randomized decider to exhaustion.  Candidates are
read off the view by folding it (``repro.core.candidates``), so the cap
can be set to ``|V_*|`` on instances of five or six nodes; the
extension search of Update-Bits is then the expensive part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import DerandomizationError
from repro.factor.quotient import finite_view_graph
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.problem import DistributedProblem, TwoHopColoredVariant
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree
from repro.core.assignment_search import smallest_successful_extension
from repro.core.candidates import Candidate, enumerate_candidates
from repro.core.orders import canonical_node_order
from repro.core.practical import require_colored_instance, require_quotient_instance

LAYER_NAMES = ("input", "color", "bits")


@dataclass
class AStarDiagnostics:
    """Per-run accounting for the faithful A_*."""

    phases: int = 0
    message_rounds: int = 0  # sum of p over executed phases (flooding cost)
    candidates_enumerated: int = 0
    simulations_run: int = 0
    phase_selections: list[tuple[int, int, str]] = field(default_factory=list)
    # (phase, |V̂_*| of the selection, its encoding) — empty-F phases absent


@dataclass
class _PhaseOutcome:
    """What one distinct view computes in one phase."""

    output: Any | None
    new_bits: str | None
    selection: Candidate | None


class AStarSolver:
    """The deterministic anonymous algorithm A_* solving Π^c (Theorem 1)."""

    def __init__(
        self,
        problem: DistributedProblem,
        algorithm: AnonymousAlgorithm,
        max_candidate_nodes: int = 3,
        candidate_budget: int = 200_000,
        extension_budget: int = 200_000,
    ) -> None:
        self.problem = problem
        self.problem_c = TwoHopColoredVariant(problem)
        self.algorithm = algorithm
        self.max_candidate_nodes = max_candidate_nodes
        self.candidate_budget = candidate_budget
        self.extension_budget = extension_budget

    # ------------------------------------------------------------------

    def solve(
        self, instance: LabeledGraph, max_phases: int = 32
    ) -> tuple[dict[Node, Any], AStarDiagnostics]:
        """Run A_* on a Π^c instance until every node holds an output.

        Returns the (deterministic) output labeling and diagnostics.
        Raises :class:`DerandomizationError` if ``max_phases`` is reached
        first — for budget-capped runs, not a termination bound (the
        theorem guarantees some finite phase suffices).  When the
        instance's view quotient is no Π instance, no candidate can pass
        C3, so the error names that cause instead.  Before returning it
        checks Lemma 9's conclusion: the outputs must be a valid Π
        output of the instance reduced to ``input``.
        """
        require_colored_instance(instance)
        diagnostics = AStarDiagnostics()
        bits: dict[Node, str] = {v: "" for v in instance.nodes}
        outputs: dict[Node, Any] = {}

        for phase in range(1, max_phases + 1):
            diagnostics.phases = phase
            diagnostics.message_rounds += phase
            current = instance.with_layer("bits", bits).with_only_layers(list(LAYER_NAMES))
            views = all_views(current, phase)

            outcome_by_view: dict[int, _PhaseOutcome] = {}
            for v in current.nodes:
                view = views[v]
                if id(view) not in outcome_by_view:
                    outcome_by_view[id(view)] = self._run_phase(view, phase, diagnostics)
                outcome = outcome_by_view[id(view)]
                if outcome.output is not None:
                    if v in outputs and outputs[v] != outcome.output:
                        raise DerandomizationError(
                            f"node {v!r} would change its irrevocable output "
                            f"from {outputs[v]!r} to {outcome.output!r} in "
                            f"phase {phase}"
                        )
                    outputs[v] = outcome.output
                if outcome.new_bits is not None:
                    bits[v] = outcome.new_bits

            if len(outputs) == current.num_nodes:
                if not self.problem.is_valid_output(
                    instance.with_only_layers(["input"]), outputs
                ):
                    raise DerandomizationError(
                        f"A_* decided an invalid {self.problem.name} output in "
                        f"phase {phase}, contradicting Lemma 9"
                    )
                return outputs, diagnostics

        require_quotient_instance(
            self.problem, finite_view_graph(instance).graph.with_only_layers(["input"])
        )
        raise DerandomizationError(
            f"A_* did not decide every node within {max_phases} phases "
            f"({len(outputs)}/{instance.num_nodes} decided)"
        )

    # ------------------------------------------------------------------

    def _run_phase(
        self, view: ViewTree, phase: int, diagnostics: AStarDiagnostics
    ) -> _PhaseOutcome:
        # Update-Graph ------------------------------------------------
        candidates = enumerate_candidates(
            view,
            phase,
            self.problem_c,
            LAYER_NAMES,
            max_nodes=self.max_candidate_nodes,
            budget=self.candidate_budget,
        )
        diagnostics.candidates_enumerated += len(candidates)
        if not candidates:
            return _PhaseOutcome(output=None, new_bits=None, selection=None)
        selection = candidates[0]  # smallest finite view graph in F
        diagnostics.phase_selections.append(
            (phase, selection.finite_view.num_nodes, selection.sort_key[1])
        )
        fvg = selection.finite_view
        simulation_graph = fvg.with_only_layers(["input"])
        recorded_bits = fvg.layer("bits")
        anchor_class = selection.anchor_class

        # Update-Output -----------------------------------------------
        output: Any | None = None
        diagnostics.simulations_run += 1
        simulation = execute(
            self.algorithm, simulation_graph, assignment=recorded_bits
        )
        if simulation.successful:
            output = simulation.outputs[anchor_class]

        # Update-Bits -------------------------------------------------
        new_bits: str | None = None
        node_order = canonical_node_order(fvg)
        extension = smallest_successful_extension(
            self.algorithm,
            simulation_graph,
            node_order,
            recorded_bits,
            target_length=phase,
            budget=self.extension_budget,
        )
        if extension is not None:
            new_bits = extension[anchor_class]

        return _PhaseOutcome(output=output, new_bits=new_bits, selection=selection)
