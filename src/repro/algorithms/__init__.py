"""Anonymous algorithms: the randomized solvers the paper derandomizes,
plus deterministic baselines and the Δ_Π decider.

The Las-Vegas algorithms here share one design: every node grows a
random bitstring (one bit per round) and compares it against the *stale*
bitstrings it hears from its neighborhood.  Because bitstrings only ever
extend, a visible prefix divergence is permanent — which is what lets
nodes commit irrevocable outputs safely while information is one or two
rounds out of date.  Their outputs are valid with probability 1 and
termination has probability 1.  The one exception is
:class:`MonteCarloElection`, the Monte-Carlo contrast class: it always
terminates but may elect several leaders, with probability at most
:func:`failure_probability_bound`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.algorithms.bitstrings import (
        bitstring_order_key,
        diverged,
        prefix_related,
        stream_greater,
    )
    from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
    from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
    from repro.algorithms.luby_mis import AnonymousMISAlgorithm
    from repro.algorithms.matching import AnonymousMatchingAlgorithm
    from repro.algorithms.greedy_by_color import GreedyMISByColor, GreedyColoringByColor
    from repro.algorithms.deciders import WellFormedInputDecider
    from repro.algorithms.monte_carlo_election import (
        MonteCarloElection,
        failure_probability_bound,
    )

_EXPORTS = {
    "bitstring_order_key": "repro.algorithms.bitstrings",
    "diverged": "repro.algorithms.bitstrings",
    "prefix_related": "repro.algorithms.bitstrings",
    "stream_greater": "repro.algorithms.bitstrings",
    "TwoHopColoringAlgorithm": "repro.algorithms.two_hop_coloring",
    "VertexColoringAlgorithm": "repro.algorithms.vertex_coloring",
    "AnonymousMISAlgorithm": "repro.algorithms.luby_mis",
    "AnonymousMatchingAlgorithm": "repro.algorithms.matching",
    "GreedyMISByColor": "repro.algorithms.greedy_by_color",
    "GreedyColoringByColor": "repro.algorithms.greedy_by_color",
    "WellFormedInputDecider": "repro.algorithms.deciders",
    "MonteCarloElection": "repro.algorithms.monte_carlo_election",
    "failure_probability_bound": "repro.algorithms.monte_carlo_election",
}

__all__ = [
    "MonteCarloElection",
    "failure_probability_bound",
    "bitstring_order_key",
    "diverged",
    "prefix_related",
    "stream_greater",
    "TwoHopColoringAlgorithm",
    "VertexColoringAlgorithm",
    "AnonymousMISAlgorithm",
    "AnonymousMatchingAlgorithm",
    "GreedyMISByColor",
    "GreedyColoringByColor",
    "WellFormedInputDecider",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
