"""repro — a reproduction of "Anonymous Networks: Randomization = 2-Hop
Coloring" (Emek, Pfister, Seidel, Wattenhofer; PODC 2014).

The library provides, as independently usable layers:

* :mod:`repro.graphs` — labeled graphs, builders, lifts, colorings;
* :mod:`repro.views` — local views ``L_d(v)``, color refinement, the
  universal cover;
* :mod:`repro.factor` — factor/product graphs, the view quotient
  ``G_∞``/``G_*``, primality, the lifting lemma, fibrations;
* :mod:`repro.runtime` — the synchronous anonymous message-passing model
  with explicit random-bit tapes;
* :mod:`repro.problems` / :mod:`repro.algorithms` — distributed problems
  and the randomized anonymous algorithms that solve them;
* :mod:`repro.core` — the paper's contribution: A_∞ (Theorem 2), the
  faithful A_* (Theorem 1 / Figure 3), the practical derandomizer, and
  the two-stage randomized-coloring + deterministic-solve pipeline.

Quickstart::

    from repro import (
        GranBundle, MISProblem, AnonymousMISAlgorithm,
        WellFormedInputDecider, cycle_graph, with_uniform_input,
        derandomize_pipeline,
    )

    bundle = GranBundle(MISProblem(), AnonymousMISAlgorithm(), WellFormedInputDecider())
    graph = with_uniform_input(cycle_graph(6))
    result = derandomize_pipeline(bundle, graph, seed=1)
    print(result.outputs)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.exceptions import (
        CandidateError,
        DerandomizationError,
        FactorError,
        GraphError,
        LabelingError,
        OutputAlreadySetError,
        ProblemError,
        ReproError,
        RuntimeModelError,
        SimulationError,
        ViewError,
    )
    from repro.graphs import (
        LabeledGraph,
        canonical_encoding,
        complete_graph,
        cycle_graph,
        grid_graph,
        hypercube_graph,
        is_two_hop_coloring,
        lift_graph,
        path_graph,
        petersen_graph,
        random_connected_graph,
        star_graph,
        torus_graph,
    )
    from repro.graphs.builders import with_uniform_input
    from repro.graphs.coloring import greedy_two_hop_coloring, apply_two_hop_coloring
    from repro.views import ViewTree, all_views, color_refinement, view
    from repro.factor import (
        FactorizingMap,
        finite_view_graph,
        infinite_view_graph,
        is_prime,
        prime_factors,
    )
    from repro.runtime import AnonymousAlgorithm, execute
    from repro.problems import (
        ColoringProblem,
        GranBundle,
        KHopColoringProblem,
        MaximalMatchingProblem,
        MISProblem,
        TwoHopColoredVariant,
    )
    from repro.algorithms import (
        AnonymousMatchingAlgorithm,
        AnonymousMISAlgorithm,
        GreedyMISByColor,
        TwoHopColoringAlgorithm,
        VertexColoringAlgorithm,
        WellFormedInputDecider,
    )
    from repro.core import (
        AInfinitySolver,
        AStarSolver,
        PracticalDerandomizer,
        derandomize_pipeline,
    )

_EXPORTS = {
    "CandidateError": "repro.exceptions",
    "DerandomizationError": "repro.exceptions",
    "FactorError": "repro.exceptions",
    "GraphError": "repro.exceptions",
    "LabelingError": "repro.exceptions",
    "OutputAlreadySetError": "repro.exceptions",
    "ProblemError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "RuntimeModelError": "repro.exceptions",
    "SimulationError": "repro.exceptions",
    "ViewError": "repro.exceptions",
    "LabeledGraph": "repro.graphs",
    "canonical_encoding": "repro.graphs",
    "complete_graph": "repro.graphs",
    "cycle_graph": "repro.graphs",
    "grid_graph": "repro.graphs",
    "hypercube_graph": "repro.graphs",
    "is_two_hop_coloring": "repro.graphs",
    "lift_graph": "repro.graphs",
    "path_graph": "repro.graphs",
    "petersen_graph": "repro.graphs",
    "random_connected_graph": "repro.graphs",
    "star_graph": "repro.graphs",
    "torus_graph": "repro.graphs",
    "with_uniform_input": "repro.graphs.builders",
    "greedy_two_hop_coloring": "repro.graphs.coloring",
    "apply_two_hop_coloring": "repro.graphs.coloring",
    "ViewTree": "repro.views",
    "all_views": "repro.views",
    "color_refinement": "repro.views",
    "view": "repro.views",
    "FactorizingMap": "repro.factor",
    "finite_view_graph": "repro.factor",
    "infinite_view_graph": "repro.factor",
    "is_prime": "repro.factor",
    "prime_factors": "repro.factor",
    "AnonymousAlgorithm": "repro.runtime",
    "execute": "repro.runtime",
    "ColoringProblem": "repro.problems",
    "GranBundle": "repro.problems",
    "KHopColoringProblem": "repro.problems",
    "MaximalMatchingProblem": "repro.problems",
    "MISProblem": "repro.problems",
    "TwoHopColoredVariant": "repro.problems",
    "AnonymousMatchingAlgorithm": "repro.algorithms",
    "AnonymousMISAlgorithm": "repro.algorithms",
    "GreedyMISByColor": "repro.algorithms",
    "TwoHopColoringAlgorithm": "repro.algorithms",
    "VertexColoringAlgorithm": "repro.algorithms",
    "WellFormedInputDecider": "repro.algorithms",
    "AInfinitySolver": "repro.core",
    "AStarSolver": "repro.core",
    "PracticalDerandomizer": "repro.core",
    "derandomize_pipeline": "repro.core",
}

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "LabelingError",
    "FactorError",
    "ViewError",
    "RuntimeModelError",
    "OutputAlreadySetError",
    "SimulationError",
    "ProblemError",
    "DerandomizationError",
    "CandidateError",
    "LabeledGraph",
    "canonical_encoding",
    "complete_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "is_two_hop_coloring",
    "lift_graph",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "star_graph",
    "torus_graph",
    "with_uniform_input",
    "greedy_two_hop_coloring",
    "apply_two_hop_coloring",
    "ViewTree",
    "all_views",
    "color_refinement",
    "view",
    "FactorizingMap",
    "finite_view_graph",
    "infinite_view_graph",
    "is_prime",
    "prime_factors",
    "AnonymousAlgorithm",
    "execute",
    "ColoringProblem",
    "GranBundle",
    "KHopColoringProblem",
    "MaximalMatchingProblem",
    "MISProblem",
    "TwoHopColoredVariant",
    "AnonymousMatchingAlgorithm",
    "AnonymousMISAlgorithm",
    "GreedyMISByColor",
    "TwoHopColoringAlgorithm",
    "VertexColoringAlgorithm",
    "WellFormedInputDecider",
    "AInfinitySolver",
    "AStarSolver",
    "PracticalDerandomizer",
    "derandomize_pipeline",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
