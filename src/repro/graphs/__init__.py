"""Labeled-graph substrate for anonymous-network computation.

This package provides the data layer of the model in Section 1.1 of the
paper: finite connected simple graphs whose nodes carry *label layers*
(input labels, 2-hop colorings, evolving bitstrings, ...) and a port
numbering at every node.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graphs.labeled_graph import LabeledGraph
    from repro.graphs.builders import (
        caterpillar_graph,
        circulant_graph,
        complete_graph,
        cycle_graph,
        wheel_graph,
        grid_graph,
        hypercube_graph,
        path_graph,
        petersen_graph,
        random_connected_graph,
        random_regular_graph,
        star_graph,
        torus_graph,
        binary_tree_graph,
        complete_bipartite_graph,
    )
    from repro.graphs.lifts import lift_graph, cyclic_lift
    from repro.graphs.coloring import (
        greedy_k_hop_coloring,
        is_k_hop_coloring,
        is_two_hop_coloring,
        k_hop_conflicts,
    )
    from repro.graphs.encoding import canonical_encoding, encode_ordered_graph
    from repro.graphs.properties import (
        diameter,
        degree_profile,
        is_connected,
        is_regular,
    )
    from repro.graphs.io import (
        graph_from_dict,
        graph_to_dict,
    )
    from repro.graphs.isomorphism import (
        are_isomorphic,
        automorphisms,
        find_isomorphism,
        is_vertex_transitive,
    )

_EXPORTS = {
    "LabeledGraph": "repro.graphs.labeled_graph",
    "caterpillar_graph": "repro.graphs.builders",
    "circulant_graph": "repro.graphs.builders",
    "complete_graph": "repro.graphs.builders",
    "cycle_graph": "repro.graphs.builders",
    "wheel_graph": "repro.graphs.builders",
    "grid_graph": "repro.graphs.builders",
    "hypercube_graph": "repro.graphs.builders",
    "path_graph": "repro.graphs.builders",
    "petersen_graph": "repro.graphs.builders",
    "random_connected_graph": "repro.graphs.builders",
    "random_regular_graph": "repro.graphs.builders",
    "star_graph": "repro.graphs.builders",
    "torus_graph": "repro.graphs.builders",
    "binary_tree_graph": "repro.graphs.builders",
    "complete_bipartite_graph": "repro.graphs.builders",
    "lift_graph": "repro.graphs.lifts",
    "cyclic_lift": "repro.graphs.lifts",
    "greedy_k_hop_coloring": "repro.graphs.coloring",
    "is_k_hop_coloring": "repro.graphs.coloring",
    "is_two_hop_coloring": "repro.graphs.coloring",
    "k_hop_conflicts": "repro.graphs.coloring",
    "canonical_encoding": "repro.graphs.encoding",
    "encode_ordered_graph": "repro.graphs.encoding",
    "diameter": "repro.graphs.properties",
    "degree_profile": "repro.graphs.properties",
    "is_connected": "repro.graphs.properties",
    "is_regular": "repro.graphs.properties",
    "graph_from_dict": "repro.graphs.io",
    "graph_to_dict": "repro.graphs.io",
    "are_isomorphic": "repro.graphs.isomorphism",
    "automorphisms": "repro.graphs.isomorphism",
    "find_isomorphism": "repro.graphs.isomorphism",
    "is_vertex_transitive": "repro.graphs.isomorphism",
}

__all__ = [
    "LabeledGraph",
    "caterpillar_graph",
    "circulant_graph",
    "wheel_graph",
    "complete_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "random_regular_graph",
    "star_graph",
    "torus_graph",
    "binary_tree_graph",
    "complete_bipartite_graph",
    "lift_graph",
    "cyclic_lift",
    "greedy_k_hop_coloring",
    "is_k_hop_coloring",
    "is_two_hop_coloring",
    "k_hop_conflicts",
    "canonical_encoding",
    "encode_ordered_graph",
    "graph_from_dict",
    "graph_to_dict",
    "diameter",
    "degree_profile",
    "is_connected",
    "is_regular",
    "are_isomorphic",
    "automorphisms",
    "find_isomorphism",
    "is_vertex_transitive",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
