"""A_∞ — Theorem 2, exact on finite graphs.

The infinity model hands node ``v`` its depth-infinity view; ``A_∞``
(i) reconstructs the infinite view graph ``I_∞`` from it, (ii) selects
the smallest successful simulation of the randomized algorithm ``A_R``
on ``J = (V_∞, E_∞, i_∞)``, and (iii) outputs what ``ṽ`` outputs there.
On a finite graph the finite view graph stands in for ``I_∞``
(Corollary 2), making every step computable — no approximation is
involved.

The lifting lemma is what makes step (iii) sound: ``J ⪯ I`` with the
same inputs, so ``J`` is itself an instance of Π (this is where the
GRAN *decider* hypothesis earns its keep — a problem whose instance set
is not closed under factors admits no anonymous decider), and the lifted
simulation is a legal execution of ``A_R`` on ``I``.  Steps (ii) and
(iii), with the runtime checks of both facts, are the solve path shared
with the practical derandomizer
(:class:`repro.core.practical.QuotientSolver`); this module only supplies
the quotient, computed centrally from the instance.
"""

from __future__ import annotations

from repro.factor.quotient import finite_view_graph
from repro.graphs.labeled_graph import LabeledGraph
from repro.core.practical import (
    DerandomizationResult,
    QuotientSolver,
    require_colored_instance,
)


class AInfinitySolver(QuotientSolver):
    """Solves Π^c deterministically in the (finite-graph) infinity model."""

    def solve(self, instance: LabeledGraph) -> DerandomizationResult:
        """Solve the Π^c instance ``instance`` (layers: input + 2-hop color).

        Deterministic: equal instances produce equal outputs.
        """
        require_colored_instance(instance)
        return self.solve_on_quotient(instance, finite_view_graph(instance))
