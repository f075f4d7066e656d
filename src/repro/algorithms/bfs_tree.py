"""Leader + BFS spanning tree on prime 2-hop colored instances.

The paper's related-work discussion notes that electing a leader makes
everything ID-solvable solvable.  On *prime* 2-hop colored instances a
leader exists deterministically (minimal view alias — see
:mod:`repro.problems.election`), and this module completes the classic
follow-up: a BFS spanning tree rooted at the leader, computed by a
deterministic anonymous algorithm.  Colors give nodes addressable
identities within neighborhoods, so each node can output its BFS depth
*and its parent's color* — a globally checkable encoding of the tree.

The algorithm composes two phases in one state machine:

1. the minimal-view election (each node grows its view for ``2n``
   rounds, then knows whether it is the root);
2. BFS flooding: the root announces depth 0; an undecided node adopting
   depth ``d+1`` records the color of (one of) the announcing
   neighbor(s) as its parent.

Input labels must be ``((degree, n, ...), color)`` like the election
algorithm's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.graphs.labeled_graph import LabeledGraph
from repro.problems.election import holds_minimal_alias
from repro.problems.problem import DistributedProblem, OutputLabeling
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.views.view_tree import ViewTree


class BFSTreeProblem(DistributedProblem):
    """Output a BFS tree rooted at a unique root.

    Valid outputs: exactly one node outputs ``("root", 0)``; every other
    node outputs ``("child", depth, parent_color)`` where depth equals
    its true hop distance from the root and some neighbor at depth-1 has
    the named color.  Requires the instance to carry a ``color`` layer
    (parent colors are only meaningful against it).
    """

    name = "bfs-tree"

    def is_instance(self, graph: LabeledGraph) -> bool:
        return self.inputs_well_formed(graph) and graph.has_layer("color")

    def is_valid_output(self, graph: LabeledGraph, outputs: OutputLabeling) -> bool:
        self.require_total(graph, outputs)
        roots = [v for v in graph.nodes if outputs[v] == ("root", 0)]
        if len(roots) != 1:
            return False
        root = roots[0]
        colors = graph.layer("color")
        for v in graph.nodes:
            if v == root:
                continue
            value = outputs[v]
            if not (isinstance(value, tuple) and len(value) == 3 and value[0] == "child"):
                return False
            _tag, depth, parent_color = value
            if depth != graph.distance(root, v):
                return False
            parents = [
                u
                for u in graph.neighbors(v)
                if colors[u] == parent_color
                and (outputs[u] == ("root", 0) and depth == 1
                     or outputs[u][:2] == ("child", depth - 1))
            ]
            if not parents:
                return False
        return True


@dataclass(frozen=True)
class _State:
    n: int
    color: Any
    view: ViewTree
    round_number: int
    is_root: bool | None
    depth: int | None
    parent_color: Any
    output: tuple | None


class LeaderBFSTree(AnonymousAlgorithm):
    """Deterministic BFS tree on prime 2-hop colored instances."""

    bits_per_round = 0
    name = "leader-bfs-tree"

    def init_state(self, input_label, degree: int) -> _State:
        real_input, color = input_label
        n = real_input[1]
        return _State(
            n=n,
            color=color,
            view=ViewTree.leaf((real_input, color)),
            round_number=0,
            is_root=None,
            depth=None,
            parent_color=None,
            output=None,
        )

    def message(self, state: _State):
        if state.is_root is None:
            return ("view", state.view)
        return ("bfs", state.color, state.depth)

    def transition(self, state: _State, received, bits: str) -> _State:
        round_number = state.round_number + 1
        if state.output is not None:
            return replace(state, round_number=round_number)

        if state.is_root is None:
            grown = ViewTree.make(state.view.mark, [m[1] for m in received])
            if round_number < 2 * state.n:
                return replace(state, view=grown, round_number=round_number)
            # Election decision (as in MinimalViewElection).
            if holds_minimal_alias(grown, state.n):
                return replace(
                    state,
                    view=grown,
                    round_number=round_number,
                    is_root=True,
                    depth=0,
                    output=("root", 0),
                )
            return replace(
                state, view=grown, round_number=round_number, is_root=False
            )

        # BFS phase: adopt depth+1 from the smallest-depth announcer.
        announcements = [
            (depth_u, color_u)
            for (tag, color_u, depth_u) in received
            if tag == "bfs" and depth_u is not None
        ]
        if not announcements:
            return replace(state, round_number=round_number)
        best_depth, best_color = min(
            announcements, key=lambda item: (item[0], repr(item[1]))
        )
        depth = best_depth + 1
        return replace(
            state,
            round_number=round_number,
            depth=depth,
            parent_color=best_color,
            output=("child", depth, best_color),
        )

    def output(self, state: _State) -> tuple | None:
        return state.output
