"""Tests for the practical derandomizer and the end-to-end pipeline."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.derandomize import derandomize_pipeline
from repro.core.infinity import AInfinitySolver
from repro.core import practical as practical_module
from repro.core.practical import PracticalDerandomizer, quotient_from_view
from repro.exceptions import DerandomizationError, ProblemError, ViewError
from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    with_uniform_input,
)
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.lifts import cyclic_lift, lift_graph
from repro.factor.quotient import finite_view_graph
from repro.problems.coloring import ColoringProblem
from repro.problems.gran import GranBundle
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem
from repro.views.local_views import all_views, view
from repro.views import view_tree
from repro.views.view_tree import clear_caches, intern_stats


def colored(graph):
    return apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))


def colored_k4():
    return colored(with_uniform_input(complete_graph(4)))


# Small colored instances: non-trivial quotients (the lifts) and prime graphs.
ZOO = {
    "c3-lift-2": lambda: cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 2)[0],
    "c3-lift-4": lambda: cyclic_lift(colored(with_uniform_input(cycle_graph(3))), 4)[0],
    "k4": colored_k4,
    "p3": lambda: colored(with_uniform_input(path_graph(3))),
    "k4-lift-2": lambda: lift_graph(colored_k4(), 2, seed=3)[0],
    "p1": lambda: colored(with_uniform_input(path_graph(1))),
    # The smallest graph found whose alias order differs from its
    # canonical node order: the practical solve must renumber.
    "c10": lambda: colored(with_uniform_input(cycle_graph(10))),
}

# C10 runs under prg only: lexicographic exhausts its 10^6 budget on a
# 10-node quotient.
AGREEMENT_CASES = [
    (name, strategy)
    for name in ZOO
    if name != "c10"
    for strategy in ("lexicographic", "prg")
] + [("c10", "prg")]


# Reconstruction inputs that must raise, with the error they raise.
RECONSTRUCTION_ERRORS = [
    # Not 2-hop colored: a node's child matches the node itself.
    (
        with_uniform_input(cycle_graph(4)).with_layer("color", dict.fromkeys(range(4), 0)),
        3,
        "has a loop",
    ),
    # A boundary alias's child is no alias's truncation.
    (
        with_uniform_input(path_graph(8)).with_layer("color", {v: v % 3 for v in range(8)}),
        3,
        "ambiguous",
    ),
    # A child is the depth-1 truncation of two distinct aliases.
    (
        with_uniform_input(cycle_graph(5)).with_layer(
            "color", dict(enumerate((0, 1, 0, 1, 1)))
        ),
        2,
        "ambiguous",
    ),
    # A third label layer: marks are not (input, color) pairs.
    (
        colored(with_uniform_input(path_graph(3))).with_layer(
            "bits", dict.fromkeys(range(3), "")
        ),
        4,
        "do not decompose",
    ),
]
ERROR_IDS = ["loop", "no-match", "two-matches", "three-layers"]


class TestQuotientFromView:
    @pytest.mark.parametrize("fiber", [1, 2, 4])
    def test_reconstruction_matches_centralized_quotient(self, fiber):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, fiber)
        n = lift.num_nodes
        t = view(lift, lift.nodes[0], 2 * (n + 1))
        rebuilt = quotient_from_view(t, n + 1)
        central = finite_view_graph(lift)
        assert are_isomorphic(rebuilt, central.graph)

    def test_prime_graph_reconstruction(self):
        g = colored(with_uniform_input(star_graph(3)))
        n = g.num_nodes
        t = view(g, 0, 2 * (n + 1))
        rebuilt = quotient_from_view(t, n + 1)
        assert are_isomorphic(rebuilt, g)

    def test_single_node(self):
        g = colored(with_uniform_input(path_graph(1)))
        t = view(g, 0, 4)
        rebuilt = quotient_from_view(t, 2)
        assert rebuilt.num_nodes == 1

    def test_shallow_view_rejected(self):
        g = colored(with_uniform_input(cycle_graph(4)))
        t = view(g, 0, 3)
        with pytest.raises(ViewError, match="too shallow"):
            quotient_from_view(t, 5)

    @pytest.mark.parametrize("graph,radius,message", RECONSTRUCTION_ERRORS, ids=ERROR_IDS)
    def test_reconstruction_errors(self, graph, radius, message):
        rebuilt = None
        with pytest.raises(ViewError, match=message):
            rebuilt = quotient_from_view(view(graph, 0, 2 * radius), radius)
        assert rebuilt is None


def _outcome(rebuild):
    """A rebuild's graph, or its ``ViewError`` message."""
    try:
        return rebuild()
    except ViewError as error:
        return str(error)


def reference_aliases(tree, radius):
    """The aliases by definition: the depth-``radius`` truncations of the
    subtrees at tree levels 1..radius, one level at a time."""
    level, trees = [tree], [tree]
    for _ in range(radius - 1):
        level = list(dict.fromkeys(child for t in level for child in t.children))
        trees.extend(level)
    return list(dict.fromkeys(t.truncate(radius) for t in trees))


def assert_shared_walk_matches_fresh(graph, radius):
    """Every distinct view's rebuild through one shared walk equals (or
    raises like) a fresh ``quotient_from_view``, in both view orders, and
    both equal the rebuild from the aliases collected by definition."""
    distinct = list(dict.fromkeys(all_views(graph, 2 * radius).values()))
    fresh = [_outcome(lambda t=t: quotient_from_view(t, radius)) for t in distinct]
    assert fresh == [
        _outcome(lambda t=t: practical_module._rebuild(reference_aliases(t, radius), radius))
        for t in distinct
    ]
    for order in (distinct, distinct[::-1]):
        walk = practical_module._ReconstructionWalk(radius)
        shared = {t: _outcome(lambda t=t: quotient_from_view(t, radius, walk=walk)) for t in order}
        assert [shared[t] for t in distinct] == fresh


def colored_random_regular(n, seed):
    return colored(with_uniform_input(random_regular_graph(n, 3, seed=seed)))


SHARED_WALK_GRAPHS = {
    **{f"zoo-{name}": build for name, build in ZOO.items()},
    **{f"cycle-{n}": lambda n=n: colored(with_uniform_input(cycle_graph(n))) for n in (5, 10, 16)},
    **{
        f"rr3-{n}-{seed}": lambda n=n, seed=seed: colored_random_regular(n, seed)
        for n, seed in ((12, 0), (16, 1), (24, 2))
    },
    **{
        f"rc-{n}-{seed}": lambda n=n, seed=seed: colored(
            with_uniform_input(random_connected_graph(n, 0.2, seed=seed))
        )
        for n, seed in ((9, 3), (14, 4), (20, 5))
    },
}


class TestSharedWalk:
    """One walk shared by a solve's views rebuilds what each view alone
    rebuilds."""

    @pytest.mark.parametrize("name", sorted(SHARED_WALK_GRAPHS))
    def test_matches_fresh_rebuilds(self, name):
        graph = SHARED_WALK_GRAPHS[name]()
        assert_shared_walk_matches_fresh(graph, graph.num_nodes + 1)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=400),
        st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=8),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_fresh_rebuilds_on_small_colored_graphs(self, n, seed, colors, radius):
        """Arbitrary small colorings at arbitrary radii: many are not
        2-hop colorings or too small a radius, so errors are compared too."""
        graph = with_uniform_input(random_connected_graph(n, 0.4, seed=seed))
        graph = graph.with_layer("color", {v: colors[i] for i, v in enumerate(graph.nodes)})
        assert_shared_walk_matches_fresh(graph, radius)

    @pytest.mark.parametrize("graph,radius,message", RECONSTRUCTION_ERRORS, ids=ERROR_IDS)
    def test_reconstruction_errors(self, graph, radius, message):
        walk = practical_module._ReconstructionWalk(radius)
        with pytest.raises(ViewError, match=message):
            quotient_from_view(view(graph, 0, 2 * radius), radius, walk=walk)
        assert_shared_walk_matches_fresh(graph, radius)

    def test_shallow_view_rejected(self):
        t = view(colored(with_uniform_input(cycle_graph(4))), 0, 3)
        with pytest.raises(ViewError, match="too shallow"):
            quotient_from_view(t, 5, walk=practical_module._ReconstructionWalk(5))

    def test_walk_of_another_radius_rejected(self):
        graph = colored(with_uniform_input(cycle_graph(4)))
        with pytest.raises(ValueError, match="radius"):
            quotient_from_view(
                view(graph, 0, 10), 5, walk=practical_module._ReconstructionWalk(4)
            )


class TestPracticalDerandomizer:
    @pytest.mark.parametrize(
        "problem,algorithm",
        [
            (MISProblem(), AnonymousMISAlgorithm()),
            (ColoringProblem(), VertexColoringAlgorithm()),
        ],
        ids=["mis", "coloring"],
    )
    def test_valid_on_lifted_cycle(self, problem, algorithm):
        base = colored(with_uniform_input(cycle_graph(3)))
        lift, _ = cyclic_lift(base, 4)
        solver = PracticalDerandomizer(problem, algorithm)
        result = solver.solve(lift)
        plain = lift.with_only_layers(["input"])
        assert problem.is_valid_output(plain, result.outputs)

    @pytest.mark.parametrize(
        "name,strategy", AGREEMENT_CASES, ids=[f"{n}-{s}" for n, s in AGREEMENT_CASES]
    )
    def test_agrees_with_a_infinity(self, name, strategy):
        """Practical and A_infinity run the same selection rule on the same
        quotient, so their results coincide exactly — including the lift:
        each node's own alias lands where ``f_∞`` sends it."""
        instance = ZOO[name]()
        problem, algorithm = MISProblem(), AnonymousMISAlgorithm()
        practical = PracticalDerandomizer(problem, algorithm, strategy=strategy).solve(instance)
        infinity = AInfinitySolver(problem, algorithm, strategy=strategy).solve(instance)
        assert practical.outputs == infinity.outputs
        assert practical.assignment == infinity.assignment
        assert practical.simulation_rounds == infinity.simulation_rounds
        assert practical.quotient.graph == infinity.quotient.graph
        assert practical.quotient.map.as_dict() == infinity.quotient.map.as_dict()

    @pytest.mark.parametrize("solver_class", [AInfinitySolver, PracticalDerandomizer])
    def test_search_and_replay_resolve_through_practical_module(
        self, solver_class, monkeypatch
    ):
        """Both quotient solvers call the search and the final simulation
        once each, through ``repro.core.practical``'s globals — where the
        benchmark tracer wraps them as ``assignment_search`` and
        ``engine.final_sim``."""
        calls = {"smallest_successful_assignment": 0, "execute": 0}
        for name in calls:
            original = getattr(practical_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(practical_module, name, counting)
        solver_class(MISProblem(), AnonymousMISAlgorithm()).solve(ZOO["c3-lift-2"]())
        assert calls == {"smallest_successful_assignment": 1, "execute": 1}

    @pytest.mark.parametrize("case", ["32", "64", "rr3-64"])
    def test_truncation_work_is_linear_in_view_size(self, case):
        """A work count, not a timing: each node reconstructs from its
        depth-(2n + 2) view, and the memoised truncations (the drops the
        trees hold plus the multi-level table) must stay within a small
        multiple of the n * (2n + 2) distinct view trees (an O(n^3)
        truncation path gave 270,400 entries at n = 64)."""
        clear_caches()
        if case == "rr3-64":
            instance = colored_random_regular(64, 0)
        else:
            instance = colored(with_uniform_input(cycle_graph(int(case))))
        n = instance.num_nodes
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
        solver.solve(instance)
        trees = [tree for table in view_tree._INTERN for tree in table.values()]
        drops = sum(tree._dropped is not None for tree in trees)
        # Every interned tree above the leaves holds its drop, so the
        # count cannot fall silently to the multi-level table alone.
        assert drops == sum(tree.depth > 1 for tree in trees)
        assert drops + intern_stats()["truncations"] <= 2 * n * (2 * n + 2)
        clear_caches()

    def test_one_walk_per_solve(self, monkeypatch):
        """A work count, not a timing: on a random 3-regular graph every
        one of the n views is distinct (|V_*| = n), yet the solve's one
        walk holds at most n * (n + 1) masks (n trees per level, n + 1
        levels) and builds a single graph."""
        walks = []
        original = practical_module.quotient_from_view

        def spy(view, radius, **kwargs):
            walks.append(kwargs["walk"])
            return original(view, radius, **kwargs)

        monkeypatch.setattr(practical_module, "quotient_from_view", spy)
        instance = colored_random_regular(64, 0)
        n = instance.num_nodes
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
        result = solver.solve(instance)
        assert result.quotient.graph.num_nodes == n
        assert len(walks) == n
        (walk,) = {id(w): w for w in walks}.values()
        assert sum(map(len, walk.masks)) <= n * (n + 1)
        assert len(walk.graphs) == 1

    def test_walk_is_released_before_the_search(self, monkeypatch):
        """The solve drops its reconstruction walk (the alias masks and
        the rebuilds) once the quotient is built: none of it is reachable
        while the assignment search runs."""
        walks = []
        original_rebuild = practical_module.quotient_from_view

        def spy(view, radius, **kwargs):
            walks.append(weakref.ref(kwargs["walk"]))
            return original_rebuild(view, radius, **kwargs)

        reachable = []
        original_search = practical_module.smallest_successful_assignment

        def search(*args, **kwargs):
            gc.collect()
            reachable.extend(walk() is not None for walk in walks)
            return original_search(*args, **kwargs)

        monkeypatch.setattr(practical_module, "quotient_from_view", spy)
        monkeypatch.setattr(practical_module, "smallest_successful_assignment", search)
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
        solver.solve(colored_random_regular(16, 0))
        assert len(walks) == 16
        assert reachable == [False] * 16

    def test_agreement_hashes_no_graph_before_the_search(self, monkeypatch):
        """The shared walk returns one rebuild object for all 16 views, so
        Lemma 1 agreement is settled by identity: no graph computes its
        structure key (the cost of hashing or comparing one) before the
        assignment search starts."""
        keys = []
        original_key = LabeledGraph.structure_key

        def counting_key(graph):
            keys.append(graph)
            return original_key(graph)

        keys_at_search = []
        original_search = practical_module.smallest_successful_assignment

        def search(*args, **kwargs):
            keys_at_search.append(len(keys))
            return original_search(*args, **kwargs)

        monkeypatch.setattr(LabeledGraph, "structure_key", counting_key)
        monkeypatch.setattr(practical_module, "smallest_successful_assignment", search)
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm(), strategy="prg")
        solver.solve(colored_random_regular(16, 0))
        assert keys_at_search == [0]

    @pytest.mark.parametrize("equal", [False, True], ids=["unequal", "equal-copy"])
    def test_agreement_falls_back_to_equality(self, equal, monkeypatch):
        """A walk that returns two distinct objects is checked by ``==``:
        an unequal second rebuild raises, an equal copy is agreement."""
        original = practical_module.quotient_from_view
        rebuilds = []

        def stub(view, radius, **kwargs):
            rebuilt = original(view, radius, **kwargs)
            if rebuilds:
                edges = list(rebuilt.edges()) if equal else list(rebuilt.edges())[1:]
                rebuilt = LabeledGraph(
                    edges,
                    nodes=rebuilt.nodes,
                    layers={name: rebuilt.layer(name) for name in rebuilt.layer_names},
                )
            rebuilds.append(rebuilt)
            return rebuilt

        monkeypatch.setattr(practical_module, "quotient_from_view", stub)
        solver = PracticalDerandomizer(MISProblem(), AnonymousMISAlgorithm())
        instance = colored(with_uniform_input(cycle_graph(3)))
        if equal:
            result = solver.solve(instance)
            assert MISProblem().is_valid_output(instance, result.outputs)
        else:
            with pytest.raises(DerandomizationError, match="reconstructed different quotients"):
                solver.solve(instance)
        assert len(rebuilds) == 3
        assert rebuilds[1] is not rebuilds[0]


class TestPipeline:
    def bundles(self):
        decider = WellFormedInputDecider()
        return [
            GranBundle(MISProblem(), AnonymousMISAlgorithm(), decider),
            GranBundle(ColoringProblem(), VertexColoringAlgorithm(), decider),
            GranBundle(MaximalMatchingProblem(), AnonymousMatchingAlgorithm(), decider),
        ]

    @pytest.mark.parametrize(
        "graph_name,graph",
        [
            ("cycle-5", with_uniform_input(cycle_graph(5))),
            ("path-4", with_uniform_input(path_graph(4))),
            ("star-4", with_uniform_input(star_graph(4))),
        ],
        ids=["cycle-5", "path-4", "star-4"],
    )
    def test_pipeline_end_to_end(self, graph_name, graph):
        for bundle in self.bundles():
            result = derandomize_pipeline(bundle, graph, seed=3, strategy="prg")
            # derandomize_pipeline validates outputs internally; check the
            # reported shape too.
            assert set(result.outputs) == set(graph.nodes)
            assert result.stage1_rounds >= 3
            assert result.quotient_size <= graph.num_nodes

    def test_pipeline_deterministic_given_coloring_seed(self):
        g = with_uniform_input(cycle_graph(6))
        bundle = self.bundles()[0]
        a = derandomize_pipeline(bundle, g, seed=11, strategy="prg")
        b = derandomize_pipeline(bundle, g, seed=11, strategy="prg")
        assert a.outputs == b.outputs
        assert a.coloring == b.coloring

    def test_pipeline_rejects_non_instance(self):
        bundle = self.bundles()[0]
        with pytest.raises(ProblemError, match="not an instance"):
            derandomize_pipeline(bundle, cycle_graph(4), seed=0)

    def test_pipeline_on_petersen(self):
        bundle = self.bundles()[0]
        g = with_uniform_input(petersen_graph())
        result = derandomize_pipeline(bundle, g, seed=5, strategy="prg")
        assert MISProblem().is_valid_output(g, result.outputs)
