"""Candidate enumeration for Update-Graph (Figure 3, conditions C1-C3).

A *candidate for phase p* (as seen from a node with view
``L = L_p(v, I^p)``) is a labeled graph ``Ĝ = (V̂, Ê, î, ĉ, b̂)`` with

* C1: ``|V̂| <= p``;
* C2: some node ``v̂ ∈ V̂`` has ``L_p(v̂, Ĝ) = L``;
* C3: ``(V̂, Ê, î, ĉ)`` is an instance of Π^c.

A covering map is a bijection on each neighbourhood, so C2 says the
view tree ``L`` *folds* onto ``Ĝ`` with its root on ``v̂``: every tree
vertex maps to a node whose children biject with that node's
neighbours.  The candidates are therefore read off ``L`` by backtracking
(:func:`_foldings`) instead of being searched among all labeled graphs,
and every folding then passes the full C1-C3 check.  Two observations
make the enumeration sound and finite:

* a candidate is connected with ``|V̂| <= p`` nodes, so every node lies
  within distance ``p - 1`` of ``v̂`` and every edge has an endpoint
  within distance ``p - 2`` (a node at distance ``p - 1`` forces one
  node per BFS level); the depth-``p`` view therefore sees every node
  and edge, and every candidate is one of the foldings;
* the quotient of a candidate is itself a candidate with the same finite
  view graph (Fact 1 + factor-closure of Π^c), so the minimum of the set
  F is always attained by a candidate that is its own finite view graph.
  Capping the enumerated node count at ``max_nodes`` therefore preserves
  the selected minimum whenever the true selection has at most
  ``max_nodes`` nodes — which Lemma 7 guarantees from phase ``2n`` on
  for any cap ``>= n``.  (Early phases may select differently under a
  cap; Lemma 9 shows A_*'s correctness never depends on those transient
  selections.)

The folding search only branches where a child of the view may go to an
existing node or a new one, so its size follows the number of candidate
graphs rather than the number of labeled graphs on ``p`` nodes.  It is
still budget-guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from repro.exceptions import CandidateError, FactorError, GraphError
from repro.factor.quotient import finite_view_graph
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.problems.problem import DistributedProblem
from repro.views.local_views import all_views
from repro.views.view_tree import ViewTree
from repro.core.orders import finite_view_graph_sort_key


@dataclass
class Candidate:
    """One candidate graph with its finite view graph and anchor node.

    ``anchor`` is the node ``v̂`` promised by C2; ``anchor_class`` is the
    corresponding node ``v̊`` of the finite view graph.
    """

    graph: LabeledGraph
    finite_view: LabeledGraph
    anchor: Node
    anchor_class: int
    sort_key: tuple[int, str]


def observed_marks(view: ViewTree) -> list[tuple]:
    """The distinct marks appearing anywhere in a view, in a canonical
    order — the complete label alphabet of any candidate."""
    marks: dict[str, tuple] = {}
    for subtree in view.subtrees():
        marks.setdefault(repr(subtree.mark), subtree.mark)
    return [marks[key] for key in sorted(marks)]


def enumerate_candidates(
    view: ViewTree,
    phase: int,
    problem_c: DistributedProblem,
    layer_names: Sequence[str],
    max_nodes: int = 4,
    budget: int = 200_000,
) -> list[Candidate]:
    """All candidates for ``phase`` matching ``view``, one representative
    per distinct finite view graph, sorted by the finite-view-graph order.

    ``layer_names`` says how to split a composed mark back into layers
    (e.g. ``("input", "color", "bits")``).  ``problem_c`` checks C3 on the
    graph without its last (bits) layer.  ``max_nodes`` caps C1 (see the
    module docstring for why that is sound); ``budget`` caps the number
    of search states of the folding (partial graphs, see
    :func:`_foldings`) and raises :class:`CandidateError` when exceeded.
    """
    cap = min(phase, max_nodes)
    by_encoding: dict[tuple[int, str], Candidate] = {}
    for edges, labeling in _foldings(view, cap, phase, budget):
        candidate = _try_candidate(edges, labeling, view, phase, problem_c, layer_names)
        if candidate is not None and candidate.sort_key not in by_encoding:
            by_encoding[candidate.sort_key] = candidate
    return [by_encoding[key] for key in sorted(by_encoding)]


def _foldings(
    view: ViewTree, cap: int, phase: int, budget: int
) -> Iterator[tuple[list[tuple[int, int]], list[tuple]]]:
    """Every graph on at most ``cap`` nodes onto which ``view`` folds with
    its root on node 0, as ``(edges, marks)``; a superset of the C2
    candidates up to isomorphism.

    Nodes are expanded in creation order, which is a BFS order from
    node 0.  A node's *representative* is the subtree at its first BFS
    position, so a node at distance ``d`` carries its depth
    ``(p - d)`` view.  Expanding a node whose representative has depth
    at least 2 fixes all its edges: the edges it already has must match
    children of the representative, and every other child goes to a
    not-yet-adjacent unexpanded node whose representative truncates to
    it, or to a new node while fewer than ``cap`` exist.  A node at
    distance ``p - 1`` forces one node per BFS level, so every edge has
    an endpoint that gets expanded.  Child subtrees are interned, so
    "matches" is an identity test on truncations.
    """
    if cap < 1:
        return
    reps: list[ViewTree] = [view]
    adjacency: list[list[int]] = [[]]
    states = 0

    def expand(u: int) -> Iterator[None]:
        while u < len(reps) and reps[u].depth < 2:
            u += 1
        if u == len(reps):
            yield None
            return
        rep = reps[u]
        child_depth = rep.depth - 1
        remaining = list(rep.children)
        for w in adjacency[u]:
            target = reps[w].truncate(child_depth)
            for index, child in enumerate(remaining):
                if child is target:
                    del remaining[index]
                    break
            else:
                return
        yield from place(u, remaining, 0)

    def place(u: int, remaining: list[ViewTree], i: int) -> Iterator[None]:
        nonlocal states
        states += 1
        if states > budget:
            raise CandidateError(
                "candidate enumeration exceeded its budget of "
                f"{budget} search states at phase {phase}"
            )
        if i == len(remaining):
            yield from expand(u + 1)
            return
        child = remaining[i]
        depth = child.depth
        for w in range(len(reps)):
            if (
                (w <= u and reps[w].depth >= 2)  # u itself or already expanded
                or w in adjacency[u]
                or reps[w].depth < depth
                or reps[w].truncate(depth) is not child
                or not _room_for(reps[w], adjacency[w], reps[u])
            ):
                continue
            adjacency[u].append(w)
            adjacency[w].append(u)
            yield from place(u, remaining, i + 1)
            adjacency[w].pop()
            adjacency[u].pop()
        if len(reps) < cap and _room_for(child, (), reps[u]):
            reps.append(child)
            adjacency.append([u])
            adjacency[u].append(len(reps) - 1)
            yield from place(u, remaining, i + 1)
            adjacency[u].pop()
            adjacency.pop()
            reps.pop()

    for _ in expand(0):
        edges = [(u, w) for u, neighbors in enumerate(adjacency) for w in neighbors if u < w]
        yield edges, [rep.mark for rep in reps]


def _room_for(rep: ViewTree, neighbors: Sequence[int], other: ViewTree) -> bool:
    """Whether a node with representative ``rep`` and current
    ``neighbors`` can take one more neighbor with representative
    ``other``: a leaf representative is never expanded and says nothing;
    otherwise a free child slot must exist and some child must be the
    truncation of ``other``."""
    if rep.depth < 2:
        return True
    if len(neighbors) >= len(rep.children):
        return False
    target = other.truncate(rep.depth - 1)
    return any(child is target for child in rep.children)


def _try_candidate(
    edges: list[tuple[int, int]],
    labeling: list[tuple],
    view: ViewTree,
    phase: int,
    problem_c: DistributedProblem,
    layer_names: Sequence[str],
) -> Candidate | None:
    layers: dict[str, dict[int, object]] = {name: {} for name in layer_names}
    for node_id, mark in enumerate(labeling):
        if not isinstance(mark, tuple) or len(mark) != len(layer_names):
            return None
        for name, value in zip(layer_names, mark):
            layers[name][node_id] = value
    try:
        graph = LabeledGraph(edges, nodes=range(len(labeling)), layers=layers)
    except GraphError:
        return None

    # C2: the folding put the view's root on node 0; its depth-`phase`
    # view must be the observed one.
    if all_views(graph, phase)[0] is not view:
        return None

    # C3: drop the trailing bits layer and ask Π^c.
    instance_part = graph.with_only_layers(list(layer_names[:-1]))
    if not problem_c.is_instance(instance_part):
        return None

    try:
        quotient = finite_view_graph(graph)
    except FactorError:
        return None
    return Candidate(
        graph=graph,
        finite_view=quotient.graph,
        anchor=0,
        anchor_class=quotient.map(0),
        sort_key=finite_view_graph_sort_key(quotient.graph),
    )
