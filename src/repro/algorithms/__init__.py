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
