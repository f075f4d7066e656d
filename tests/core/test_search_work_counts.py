"""Work-count pins for the lexicographic assignment search.

The round kernel may get faster, but the search it serves must do the
same work: the same number of engine executions, rounds, delivered
payloads and drawn bits, and the same chosen assignment.  The expected
values were recorded before the sender-keyed delivery, the ``_freeze``
atom fast path, the per-graph run plan and the single per-round funding
check went in.
"""

from __future__ import annotations

import pytest

from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.core.assignment_search import smallest_successful_assignment
from repro.core.orders import canonical_node_order
from repro.factor.quotient import finite_view_graph
from repro.graphs.builders import complete_graph, cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring
from repro.runtime.engine import collect_engine_metrics

CASES = [
    pytest.param(
        AnonymousMISAlgorithm,
        cycle_graph(6),
        (0, 1, 2, 0, 1, 3),  # not periodic: the quotient keeps all six nodes
        {0: "000", 1: "000", 2: "000", 3: "000", 4: "100", 5: "100"},
        {"executions": 4197, "rounds": 8367, "messages_sent": 100404, "bits_drawn": 50202},
        id="mis-C6",
    ),
    pytest.param(
        TwoHopColoringAlgorithm,
        complete_graph(4),
        (0, 1, 2, 3),
        {0: "0000", 1: "0100", 2: "1000", 3: "1100"},
        {"executions": 5533, "rounds": 17476, "messages_sent": 209712, "bits_drawn": 69904},
        id="2-hop-coloring-K4",
    ),
]


@pytest.mark.parametrize("algorithm_class, graph, colors, assignment, counts", CASES)
def test_lexicographic_search_work_is_pinned(algorithm_class, graph, colors, assignment, counts):
    colored = apply_two_hop_coloring(with_uniform_input(graph), dict(enumerate(colors)))
    quotient = finite_view_graph(colored)
    simulation_graph = quotient.graph.with_only_layers(["input"])
    with collect_engine_metrics() as totals:
        chosen = smallest_successful_assignment(
            algorithm_class(), simulation_graph, canonical_node_order(quotient.graph)
        )
    assert chosen == assignment
    assert {key: getattr(totals, key) for key in counts} == counts
