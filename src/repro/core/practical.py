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

A_∞ and this derandomizer share one solve path, :class:`QuotientSolver`;
:func:`require_colored_instance` is the Π^c layer check of all three
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.exceptions import DerandomizationError, ViewError
from repro.factor.quotient import QuotientResult
from repro.graphs.coloring import is_two_hop_coloring
from repro.graphs.encoding import encode_ordered_graph
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree
from repro.core.assignment_search import smallest_successful_assignment
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
    # A childless view only arises from the 1-node graph (any node with a
    # neighbor has children at every depth); it is its own quotient at
    # every radius, so its depth is not checked.
    if view.children and view.depth < 2 * radius:
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


@dataclass
class DerandomizationResult:
    """Outcome of a derandomized solve.

    Attributes
    ----------
    outputs:
        The deterministic output labeling for the input instance.
    quotient:
        The finite view graph machinery used (quotient graph + ``f_∞``).
    assignment:
        The selected bit assignment on the quotient (the simulation all
        nodes agreed on).
    simulation_rounds:
        Rounds of the selected successful simulation.
    """

    outputs: dict[Node, Any]
    quotient: QuotientResult
    assignment: dict[Node, str]
    simulation_rounds: int


def require_colored_instance(instance: LabeledGraph) -> None:
    """Fail fast unless ``instance`` carries the ``input`` layer and a
    ``color`` layer that is a 2-hop coloring — the derandomization
    machinery is undefined outside Π^c instances."""
    for layer in ("input", "color"):
        if not instance.has_layer(layer):
            raise DerandomizationError(
                f"instance is missing the {layer!r} layer; the derandomizers "
                "solve the 2-hop colored variant"
            )
    if not is_two_hop_coloring(instance, instance.layer("color")):
        raise DerandomizationError(
            "layer 'color' is not a 2-hop coloring; the instance "
            "is not a member of the 2-hop colored variant"
        )


class QuotientSolver:
    """Solves Π^c by simulating ``A_R`` on a view quotient and lifting.

    The core shared by :class:`~repro.core.infinity.AInfinitySolver` and
    :class:`PracticalDerandomizer`, which differ only in how they obtain
    the quotient.

    Parameters
    ----------
    problem:
        The underlying problem Π (not Π^c) — used to sanity-check that
        the quotient is an instance, as the lifting lemma promises.
    algorithm:
        A randomized anonymous algorithm solving Π.
    max_assignment_length / search_budget / strategy:
        Passed to the assignment search (see
        :mod:`repro.core.assignment_search`).
    """

    def __init__(
        self,
        problem: DistributedProblem,
        algorithm: AnonymousAlgorithm,
        max_assignment_length: int = 64,
        search_budget: int = 1_000_000,
        strategy: str = "lexicographic",
    ) -> None:
        self.problem = problem
        self.algorithm = algorithm
        self.max_assignment_length = max_assignment_length
        self.search_budget = search_budget
        self.strategy = strategy

    def solve_on_quotient(
        self, graph: LabeledGraph, quotient: QuotientResult
    ) -> DerandomizationResult:
        """Select the smallest successful simulation on ``quotient`` in the
        predetermined order and lift its outputs to ``graph`` through
        ``f_∞``, checking the lifting lemma's promises on the way: the
        quotient is a Π instance and the selected simulation replays."""
        simulation_graph = quotient.graph.with_only_layers(["input"])
        if not self.problem.is_instance(simulation_graph):
            raise DerandomizationError(
                f"the view quotient is not an instance of {self.problem.name}; "
                "the problem's instance set is not factor-closed, so it is "
                "not genuinely solvable (GRAN) and Theorem 1 does not apply"
            )
        assignment = smallest_successful_assignment(
            self.algorithm,
            simulation_graph,
            canonical_node_order(quotient.graph),
            max_length=self.max_assignment_length,
            budget=self.search_budget,
            strategy=self.strategy,
        )
        simulation = execute(self.algorithm, simulation_graph, assignment=assignment)
        if not simulation.successful:
            raise DerandomizationError(
                "selected assignment no longer induces a successful "
                "simulation; the algorithm is not replay-deterministic"
            )
        return DerandomizationResult(
            outputs={v: simulation.outputs[quotient.map(v)] for v in graph.nodes},
            quotient=quotient,
            assignment=assignment,
            simulation_rounds=simulation.rounds,
        )


class PracticalDerandomizer(QuotientSolver):
    """Deterministic solve of Π^c at practical cost (view-quotient based)."""

    def solve(self, instance: LabeledGraph) -> DerandomizationResult:
        """Solve a Π^c instance; every node works from its own view only."""
        # Resolved per call so a wrapper installed on the module sees it.
        from repro.factor.quotient import finite_view_graph

        require_colored_instance(instance)
        working = instance.with_only_layers(["input", "color"])
        n = working.num_nodes
        views = all_views(working, 2 * n + 2)

        # Per-node reconstruction + agreement check (Lemma 1 in action),
        # once per distinct view (interned, so equal views are one key).
        # Radius n + 1: aliases stay distinct one level above the
        # stabilization depth, so their depth-n children still identify
        # classes uniquely (Norris).
        encodings: set = set()
        for view in dict.fromkeys(views.values()):
            rebuilt = quotient_from_view(view, n + 1, ("input", "color"))
            encodings.add(encode_ordered_graph(rebuilt, canonical_node_order(rebuilt)))
        if len(encodings) != 1:
            raise DerandomizationError(
                "nodes reconstructed different quotients — canonicalization "
                "is broken (this contradicts Lemma 1)"
            )
        return self.solve_on_quotient(working, finite_view_graph(working))
