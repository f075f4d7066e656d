"""The practical derandomizer — Lemma 7's shortcut, kept distributed.

From phase ``2n`` on, the candidate machinery of A_* provably selects
``I_*^p``, the finite view graph of the node's *actual* instance
(Lemma 7) — so a derandomizer that reconstructs the finite view graph
*directly from the node's own local view* and then runs the same
predetermined-order assignment search produces a valid deterministic
solution while skipping the super-exponential candidate enumeration.

What stays faithful to the paper's algorithm:

* each node uses **only its own view** — :func:`quotient_from_view`
  rebuilds ``I_*`` from a depth-``2n + 2`` view tree alone, and the
  solver asserts all nodes reconstruct the identical canonical object
  (the paper's "all nodes select the same simulation", Lemma 1);
* the simulation is selected by the same total order on assignments;
* outputs are adopted from the node's alias in the quotient.

What is relaxed: the node-count ``n`` is read off the instance instead
of being discovered through the candidate process (a node of A_* never
knows ``n``; it pays for that with the enumeration this class skips).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.exceptions import DerandomizationError, ViewError
from repro.graphs.encoding import encode_ordered_graph
from repro.graphs.labeled_graph import LabeledGraph
from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree
from repro.core.assignment_search import smallest_successful_assignment
from repro.core.infinity import DerandomizationResult
from repro.core.orders import canonical_node_order


def quotient_from_view(
    view: ViewTree, radius: int, layer_names: Sequence[str]
) -> LabeledGraph:
    """Reconstruct the finite view graph from a single local view.

    ``view`` must have depth at least ``2 * radius``, where ``radius``
    bounds both the diameter plus one and the refinement stabilization
    depth of the underlying graph (``radius = n`` always works).  The
    construction mirrors Section 2.1: the distinct depth-``radius``
    subtrees of the view are the quotient's nodes; ``x ~ y`` iff ``y``'s
    truncation appears as a child of ``x``'s tree.

    ``layer_names`` splits composed marks back into label layers.
    """
    if radius < 1:
        raise ViewError(f"radius must be positive, got {radius}")
    if not view.children:
        # A childless view only arises from the 1-node graph (any node
        # with a neighbor has children at every depth); its quotient is
        # that single node.
        return _single_node_graph(view, layer_names)
    if view.depth < 2 * radius:
        raise ViewError(
            f"view depth {view.depth} is too shallow to reconstruct a "
            f"radius-{radius} quotient (need >= {2 * radius})"
        )
    # Collect the depth-`radius` truncations of all subtrees rooted at
    # tree levels 1..radius; those vertices cover every node within
    # distance radius - 1 >= diameter, i.e. every node of the graph.
    # Traversal is deduplicated by interned subtree identity (the number
    # of walk vertices is exponential; the number of distinct subtrees is
    # not), tracking the smallest level each subtree was reached at so
    # expansion depth is never underestimated.
    aliases: list[ViewTree] = []
    seen_alias: set = set()
    best_level: dict[int, int] = {}
    frontier: list[tuple[ViewTree, int]] = [(view, 1)]
    while frontier:
        tree, level = frontier.pop()
        if best_level.get(id(tree), radius + 1) <= level:
            continue
        best_level[id(tree)] = level
        alias = tree.truncate(radius)
        if id(alias) not in seen_alias:
            seen_alias.add(id(alias))
            aliases.append(alias)
        if level < radius:
            for child in tree.children:
                frontier.append((child, level + 1))

    aliases.sort(key=lambda t: t.sort_key())
    index = {id(alias): i for i, alias in enumerate(aliases)}

    # Aliases keyed by their depth-(radius - 1) truncation (interned, so
    # identity is equality): each child lookup is one dict probe.
    by_truncation: dict[int, list[ViewTree]] = {}
    for alias in aliases:
        by_truncation.setdefault(id(alias.truncate(max(1, radius - 1))), []).append(alias)

    edges: set = set()
    for alias in aliases:
        my_index = index[id(alias)]
        for child in alias.children:
            # The child subtree has depth radius - 1; find the alias whose
            # truncation it is.  It is unique: aliases are distinct at
            # depth radius, and depth radius - 1 >= stabilization depth
            # still separates distinct L_∞ classes when radius > stab.
            matches = by_truncation.get(id(child), ())
            if len(matches) != 1:
                raise ViewError(
                    "quotient reconstruction is ambiguous at this radius; "
                    "increase the view depth/radius"
                )
            other_index = index[id(matches[0])]
            if other_index == my_index:
                raise ViewError(
                    "reconstructed quotient has a loop; the underlying "
                    "graph is not 2-hop colored"
                )
            edges.add(frozenset((my_index, other_index)))

    layers: dict[str, dict[int, Any]] = {name: {} for name in layer_names}
    for alias in aliases:
        mark = alias.mark
        if not isinstance(mark, tuple) or len(mark) != len(layer_names):
            raise ViewError(
                f"view marks do not decompose into layers {layer_names!r}: {mark!r}"
            )
        for name, value in zip(layer_names, mark):
            layers[name][index[id(alias)]] = value

    return LabeledGraph(
        [tuple(sorted(e)) for e in edges],
        nodes=range(len(aliases)),
        layers=layers,
    )


def _single_node_graph(view: ViewTree, layer_names: Sequence[str]) -> LabeledGraph:
    mark = view.mark
    if not isinstance(mark, tuple) or len(mark) != len(layer_names):
        raise ViewError(
            f"view marks do not decompose into layers {layer_names!r}: {mark!r}"
        )
    layers = {name: {0: value} for name, value in zip(layer_names, mark)}
    return LabeledGraph([], nodes=[0], layers=layers)


@dataclass
class PracticalResult(DerandomizationResult):
    """Adds the per-node reconstruction agreement check outcome."""

    reconstructions_agreed: bool = True


class PracticalDerandomizer:
    """Deterministic solve of Π^c at practical cost (view-quotient based)."""

    def __init__(
        self,
        problem: DistributedProblem,
        algorithm: AnonymousAlgorithm,
        max_assignment_length: int = 64,
        search_budget: int = 1_000_000,
        strategy: str = "lexicographic",
        input_layer: str = "input",
        color_layer: str = "color",
    ) -> None:
        self.problem = problem
        self.algorithm = algorithm
        self.max_assignment_length = max_assignment_length
        self.search_budget = search_budget
        self.strategy = strategy
        self.input_layer = input_layer
        self.color_layer = color_layer

    def solve(self, instance: LabeledGraph) -> PracticalResult:
        """Solve a Π^c instance; every node works from its own view only."""
        from repro.factor.quotient import finite_view_graph  # cycle-free import

        for layer in (self.input_layer, self.color_layer):
            if not instance.has_layer(layer):
                raise DerandomizationError(
                    f"instance is missing the {layer!r} layer"
                )
        from repro.core.infinity import _require_two_hop_colored

        _require_two_hop_colored(instance, self.color_layer)
        working = instance.with_only_layers([self.input_layer, self.color_layer])
        n = working.num_nodes
        views = all_views(working, 2 * n + 2)
        layer_names = (self.input_layer, self.color_layer)

        # Per-node reconstruction + agreement check (Lemma 1 in action).
        reconstructions: dict[int, LabeledGraph] = {}
        encodings: set = set()
        for v in working.nodes:
            view = views[v]
            if id(view) not in reconstructions:
                # Radius n + 1: aliases stay distinct one level above the
                # stabilization depth, so their depth-n children still
                # identify classes uniquely (Norris).
                rebuilt = quotient_from_view(view, n + 1, layer_names)
                reconstructions[id(view)] = rebuilt
                encodings.add(
                    encode_ordered_graph(rebuilt, canonical_node_order(rebuilt))
                )
        agreed = len(encodings) == 1
        if not agreed:
            raise DerandomizationError(
                "nodes reconstructed different quotients — canonicalization "
                "is broken (this contradicts Lemma 1)"
            )

        quotient = finite_view_graph(working)
        simulation_graph = quotient.graph.with_only_layers([self.input_layer])
        if not self.problem.is_instance(simulation_graph):
            raise DerandomizationError(
                f"the view quotient is not an instance of {self.problem.name}; "
                "Theorem 1's GRAN hypothesis fails for this problem"
            )
        node_order = canonical_node_order(quotient.graph)
        assignment = smallest_successful_assignment(
            self.algorithm,
            simulation_graph,
            node_order,
            max_length=self.max_assignment_length,
            budget=self.search_budget,
            strategy=self.strategy,
        )
        simulation = execute(
            self.algorithm, simulation_graph, assignment=assignment
        )
        outputs = {v: simulation.outputs[quotient.map(v)] for v in working.nodes}
        return PracticalResult(
            outputs=outputs,
            quotient=quotient,
            assignment=assignment,
            simulation_rounds=simulation.rounds,
            reconstructions_agreed=agreed,
        )
