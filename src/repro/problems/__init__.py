"""Distributed problems Π as first-class objects (paper Section 1.1).

A :class:`~repro.problems.problem.DistributedProblem` knows its legal
input instances and can validate an output labeling against an instance.
:class:`~repro.problems.problem.TwoHopColoredVariant` builds Π^c from Π.
:mod:`repro.problems.gran` bundles a problem with its randomized solver
and decider — the certificate of GRAN membership that Theorem 1 takes as
hypothesis.
"""

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
