"""The practical derandomizer — Lemma 7's shortcut, kept distributed.

From phase ``2n`` on, the candidate machinery of A_* provably selects
``I_*^p``, the finite view graph of the node's *actual* instance
(Lemma 7) — so a derandomizer that reconstructs the finite view graph
*directly from the node's own local view* and then runs the same
predetermined-order assignment search produces a valid deterministic
solution while skipping the super-exponential candidate enumeration.

What stays faithful to the paper's algorithm:

* each node uses **only its own view** — :func:`quotient_from_view`
  rebuilds ``I_*`` from a depth-``2n + 2`` view tree alone, and every
  distinct view must rebuild the *equal* numbered graph (the paper's
  "all nodes select the same simulation", Lemma 1);
* the simulation is selected by the same total order on assignments;
* each node adopts the output of its own alias (its view's root).

What is relaxed: the node-count ``n`` is read off the instance instead
of being discovered through the candidate process (a node of A_* never
knows ``n``; it pays for that with the enumeration this class skips).

A_∞ and this derandomizer share one solve path, :class:`QuotientSolver`;
:func:`require_colored_instance` is the Π^c layer check of all three
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import DerandomizationError, ViewError
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.quotient import QuotientResult
from repro.graphs.coloring import is_two_hop_coloring
# Unused since rebuilds are compared by identity, but the benchmark
# tracer (derandbench/tracer.py) wraps it at this import site.
from repro.graphs.encoding import encode_ordered_graph  # noqa: F401
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree
from repro.core.assignment_search import smallest_successful_assignment
from repro.core.orders import canonical_node_order


def quotient_from_view(view: ViewTree, radius: int) -> LabeledGraph:
    """Reconstruct the finite view graph from a single local view.

    ``view`` must have depth at least ``2 * radius``, where ``radius``
    bounds both the diameter plus one and the refinement stabilization
    depth of the underlying graph (``radius = n`` always works).  The
    construction mirrors Section 2.1: the distinct depth-``radius``
    subtrees of the view are the quotient's nodes; ``x ~ y`` iff ``y``'s
    truncation appears as a child of ``x``'s tree.

    Node ``i`` is the ``i``-th alias in :class:`ViewTree` order, so
    agreeing views build equal graphs.
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
    # The subtrees rooted at tree levels 1..radius cover every node
    # within distance radius - 1 >= diameter, i.e. every node of the
    # graph.  Walk them one level at a time, deduplicated by interned
    # identity (walk vertices are exponential in the level; distinct
    # subtrees are not).  A level-l subtree has depth view.depth - l + 1,
    # so no subtree recurs at two levels.
    level, trees = [view], [view]
    for _ in range(radius - 1):
        level = list(dict.fromkeys(child for tree in level for child in tree.children))
        trees.extend(level)
    aliases = sorted(
        dict.fromkeys(tree.truncate(radius) for tree in trees), key=ViewTree.sort_key
    )
    index = {alias: i for i, alias in enumerate(aliases)}

    # Aliases keyed by their depth-(radius - 1) truncation (interned, so
    # identity is equality): each child lookup is one dict probe.
    by_truncation: dict[ViewTree, list[ViewTree]] = {}
    for alias in aliases:
        by_truncation.setdefault(alias.truncate(max(1, radius - 1)), []).append(alias)

    edges: set = set()
    for alias in aliases:
        my_index = index[alias]
        for child in alias.children:
            # The child subtree has depth radius - 1; find the alias whose
            # truncation it is.  It is unique: aliases are distinct at
            # depth radius, and depth radius - 1 >= stabilization depth
            # still separates distinct L_∞ classes when radius > stab.
            matches = by_truncation.get(child, ())
            if len(matches) != 1:
                raise ViewError(
                    "quotient reconstruction is ambiguous at this radius; "
                    "increase the view depth/radius"
                )
            other_index = index[matches[0]]
            if other_index == my_index:
                raise ViewError(
                    "reconstructed quotient has a loop; the underlying "
                    "graph is not 2-hop colored"
                )
            edges.add(frozenset((my_index, other_index)))

    layers: dict[str, dict[int, Any]] = {"input": {}, "color": {}}
    for i, alias in enumerate(aliases):
        if not isinstance(alias.mark, tuple) or len(alias.mark) != 2:
            raise ViewError(f"view marks do not decompose into input and color: {alias.mark!r}")
        layers["input"][i], layers["color"][i] = alias.mark

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
        The simulated quotient and the verified map ``f_∞`` to it.
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
        require_colored_instance(instance)
        working = instance.with_only_layers(["input", "color"])
        n = working.num_nodes
        views = all_views(working, 2 * n + 2)

        # Every distinct view (interned: equal views are one key) rebuilds
        # the quotient at radius n + 1, where aliases stay distinct one
        # level above the stabilization depth (Norris).  Rebuilds are
        # numbered in alias order, so agreement (Lemma 1) is equality.
        rebuilds = dict.fromkeys(
            quotient_from_view(view, n + 1) for view in dict.fromkeys(views.values())
        )
        if len(rebuilds) != 1:
            raise DerandomizationError(
                "nodes reconstructed different quotients — canonicalization "
                "is broken (this contradicts Lemma 1)"
            )
        (rebuilt,) = rebuilds

        # Renumber the agreed rebuild once into the canonical node order
        # the search keys on (not the alias order: they differ on a greedy
        # C10), and lift each node through its own alias, its view's root.
        rank = {node: i for i, node in enumerate(canonical_node_order(rebuilt))}
        layers = {name: rebuilt.layer(name) for name in ("input", "color")}
        quotient = LabeledGraph(
            [(rank[u], rank[w]) for u, w in rebuilt.edges()],
            nodes=range(rebuilt.num_nodes),
            layers={name: {rank[u]: x for u, x in layer.items()} for name, layer in layers.items()},
        )
        own_alias = {v: views[v].truncate(n + 1) for v in working.nodes}
        aliases = sorted(dict.fromkeys(own_alias.values()), key=ViewTree.sort_key)
        position = {alias: rank[i] for i, alias in enumerate(aliases)}
        own = {v: position[alias] for v, alias in own_alias.items()}
        return self.solve_on_quotient(
            working, QuotientResult(quotient, FactorizingMap(working, quotient, own))
        )
