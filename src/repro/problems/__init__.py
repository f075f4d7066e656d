"""Distributed problems Π as first-class objects (paper Section 1.1).

A :class:`~repro.problems.problem.DistributedProblem` knows its legal
input instances and can validate an output labeling against an instance.
:class:`~repro.problems.problem.TwoHopColoredVariant` builds Π^c from Π.
:mod:`repro.problems.gran` bundles a problem with its randomized solver
and decider — the certificate of GRAN membership that Theorem 1 takes as
hypothesis.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.problems.problem import DistributedProblem, TwoHopColoredVariant
    from repro.problems.mis import MISProblem
    from repro.problems.coloring import ColoringProblem, KHopColoringProblem
    from repro.problems.matching import MaximalMatchingProblem
    from repro.problems.decision import decision_outputs_valid
    from repro.problems.election import (
        FOLLOWER,
        LEADER,
        LeaderElectionProblem,
        MinimalViewElection,
    )
    from repro.problems.gran import GranBundle

_EXPORTS = {
    "DistributedProblem": "repro.problems.problem",
    "TwoHopColoredVariant": "repro.problems.problem",
    "MISProblem": "repro.problems.mis",
    "ColoringProblem": "repro.problems.coloring",
    "KHopColoringProblem": "repro.problems.coloring",
    "MaximalMatchingProblem": "repro.problems.matching",
    "decision_outputs_valid": "repro.problems.decision",
    "FOLLOWER": "repro.problems.election",
    "LEADER": "repro.problems.election",
    "LeaderElectionProblem": "repro.problems.election",
    "MinimalViewElection": "repro.problems.election",
    "GranBundle": "repro.problems.gran",
}

__all__ = [
    "FOLLOWER",
    "LEADER",
    "LeaderElectionProblem",
    "MinimalViewElection",
    "DistributedProblem",
    "TwoHopColoredVariant",
    "MISProblem",
    "ColoringProblem",
    "KHopColoringProblem",
    "MaximalMatchingProblem",
    "decision_outputs_valid",
    "GranBundle",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
