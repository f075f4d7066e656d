"""Leader election — the problem the paper *excludes* from GRAN.

Election demands a unique distinguished node; on instances whose view
classes are nontrivial that is unattainable by any anonymous algorithm
(deterministic outputs are constant on view classes, and randomized
Las-Vegas executions lift from factors with positive probability).  The
problem class is kept here to delimit the theorem:

* :class:`LeaderElectionProblem` — the standard validity rule (exactly
  one ``LEADER``, everyone else ``FOLLOWER``).
* :class:`MinimalViewElection` — a deterministic anonymous algorithm
  that elects on *prime* 2-hop colored instances, where depth-n views
  are unique aliases (Corollary 1): the node with the minimal alias
  wins.  It expects the instance's node count in the input label (the
  "prior knowledge" the paper's related-work discussion attaches to
  election) and gathers views by flooding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.graphs.labeled_graph import LabeledGraph
from repro.problems.problem import DistributedProblem, OutputLabeling
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.views.view_tree import ViewTree

LEADER = "LEADER"
FOLLOWER = "FOLLOWER"


def holds_minimal_alias(view: ViewTree, n: int) -> bool:
    """Whether ``view``'s depth-``n`` truncation (its node's alias) is the
    minimal alias visible in it.

    Every node's alias appears as the depth-``n`` truncation of some
    subtree within distance ``n - 1 >= diameter``.  Each truncation is
    computed once; :meth:`ViewTree.subtrees` yields ``view`` itself
    first.  Truncations are interned, so equal sort keys mean the same
    object and ``min`` needs no identity-keyed deduplication (``id()``
    would leak node identity into algorithm state).
    """
    aliases = [sub.truncate(n) for sub in view.subtrees() if sub.depth >= n]
    return aliases[0] is min(aliases, key=ViewTree.sort_key)


class LeaderElectionProblem(DistributedProblem):
    """Exactly one node outputs LEADER; all others FOLLOWER."""

    name = "leader-election"

    def is_instance(self, graph: LabeledGraph) -> bool:
        return self.inputs_well_formed(graph)

    def is_valid_output(self, graph: LabeledGraph, outputs: OutputLabeling) -> bool:
        self.require_total(graph, outputs)
        values = [outputs[v] for v in graph.nodes]
        if any(value not in (LEADER, FOLLOWER) for value in values):
            return False
        return values.count(LEADER) == 1


@dataclass(frozen=True)
class _ElectionState:
    n: int
    color: Any
    view: ViewTree  # my view built so far (depth = round + 1)
    round_number: int
    output: str | None


class MinimalViewElection(AnonymousAlgorithm):
    """Deterministic election on prime 2-hop colored instances.

    Input label must be ``((degree, n, ...), color)`` — i.e. the input
    layer carries the node count after the degree, plus the 2-hop color
    layer.  Every node grows its local view one level per round by
    exchanging current views; after ``n`` rounds views are the unique
    aliases (Corollary 1), and a node elects itself iff its alias is
    minimal among all aliases visible in its depth-``2n`` view.  On a
    *non-prime* instance the minimal alias is shared and more than one
    node would claim leadership — which is precisely the experiment
    showing election ∉ GRAN.
    """

    bits_per_round = 0
    name = "minimal-view-election"

    def init_state(self, input_label, degree: int) -> _ElectionState:
        real_input, color = input_label
        n = real_input[1]
        return _ElectionState(
            n=n,
            color=color,
            view=ViewTree.leaf((real_input, color)),
            round_number=0,
            output=None,
        )

    def message(self, state: _ElectionState):
        return state.view

    def transition(self, state: _ElectionState, received, bits: str) -> _ElectionState:
        round_number = state.round_number + 1
        if state.output is not None:
            return replace(state, round_number=round_number)
        grown = ViewTree.make(state.view.mark, list(received))
        if round_number < 2 * state.n:
            return replace(state, view=grown, round_number=round_number)
        verdict = LEADER if holds_minimal_alias(grown, state.n) else FOLLOWER
        return replace(state, view=grown, round_number=round_number, output=verdict)

    def output(self, state: _ElectionState) -> str | None:
        return state.output
