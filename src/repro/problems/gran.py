"""GRAN membership bundles.

Theorem 1's hypothesis is ``Π ∈ GRAN``: a randomized anonymous algorithm
*solves* Π and another *decides* Δ_Π.  A :class:`GranBundle` carries that
certificate — the problem together with both algorithms — and is the
object the derandomization pipeline consumes.
:func:`repro.core.verification.check_gran_bundle` checks its claims on
concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm


@dataclass
class GranBundle:
    """A problem with its GRAN certificate (solver + decider).

    ``solver`` must Las-Vegas-solve ``problem``; ``decider`` must
    Las-Vegas-solve Δ_problem (all-YES on instances, some-NO otherwise).
    """

    problem: DistributedProblem
    solver: AnonymousAlgorithm
    decider: AnonymousAlgorithm
